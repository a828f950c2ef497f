package sql

import (
	"strings"
	"testing"

	"perm/internal/catalog"
	"perm/internal/eval"
	"perm/internal/rel"
)

func TestParseStatementKinds(t *testing.T) {
	st, err := ParseStatement("SELECT a FROM r;")
	if err != nil || st.Query == nil {
		t.Fatalf("query statement: %+v, %v", st, err)
	}
	st, err = ParseStatement("CREATE VIEW v AS SELECT a FROM r")
	if err != nil || st.CreateView == nil || st.CreateView.Name != "v" {
		t.Fatalf("create view: %+v, %v", st, err)
	}
	st, err = ParseStatement("DROP VIEW v;")
	if err != nil || st.DropView != "v" {
		t.Fatalf("drop view: %+v, %v", st, err)
	}
	bad := []string{
		"CREATE VIEW AS SELECT a FROM r",
		"CREATE VIEW v SELECT a FROM r",
		"CREATE VIEW v AS SELECT PROVENANCE a FROM r",
		"DROP VIEW",
		"CREATE TABLE x",
	}
	for _, q := range bad {
		if _, err := ParseStatement(q); err == nil {
			t.Errorf("ParseStatement(%q) should fail", q)
		}
	}
}

// viewsOf builds a view environment from definitions.
func viewsOf(defs ...*ViewDef) *catalog.State[ViewDef] {
	var views *catalog.State[ViewDef]
	for _, d := range defs {
		views = views.With(d.Name, d)
	}
	return views
}

func TestViewExpansion(t *testing.T) {
	c := testDB()
	big, err := ParseStatement("CREATE VIEW big AS SELECT a, b FROM r WHERE a >= 2")
	if err != nil {
		t.Fatal(err)
	}
	env := Env{Catalog: c, Views: viewsOf(big.CreateView)}
	tr, err := CompileEnv(env, "SELECT big.a FROM big WHERE big.b = 1")
	if err != nil {
		t.Fatal(err)
	}
	out, err := eval.New(c).Eval(tr.Plan)
	if err != nil {
		t.Fatal(err)
	}
	want := rel.FromTuples(out.Schema, ints(2))
	if !out.Equal(want) {
		t.Errorf("view query = %s", out)
	}
}

func TestViewInSublinkAndAlias(t *testing.T) {
	c := testDB()
	st, _ := ParseStatement("CREATE VIEW cs AS SELECT c FROM s WHERE d > 3")
	env := Env{Catalog: c, Views: viewsOf(st.CreateView)}
	tr, err := CompileEnv(env, "SELECT a FROM r WHERE a IN (SELECT x.c FROM cs AS x)")
	if err != nil {
		t.Fatal(err)
	}
	out, err := eval.New(c).Eval(tr.Plan)
	if err != nil {
		t.Fatal(err)
	}
	want := rel.FromTuples(out.Schema, ints(2))
	if !out.Equal(want) {
		t.Errorf("view in sublink = %s", out)
	}
}

func TestViewReferencingView(t *testing.T) {
	c := testDB()
	v1, _ := ParseStatement("CREATE VIEW v1 AS SELECT a FROM r WHERE a > 1")
	v2, _ := ParseStatement("CREATE VIEW v2 AS SELECT a FROM v1 WHERE a < 3")
	env := Env{Catalog: c, Views: viewsOf(v1.CreateView, v2.CreateView)}
	tr, err := CompileEnv(env, "SELECT a FROM v2")
	if err != nil {
		t.Fatal(err)
	}
	out, err := eval.New(c).Eval(tr.Plan)
	if err != nil {
		t.Fatal(err)
	}
	want := rel.FromTuples(out.Schema, ints(2))
	if !out.Equal(want) {
		t.Errorf("stacked views = %s", out)
	}
}

func TestCyclicViewRejected(t *testing.T) {
	c := testDB()
	v1, _ := ParseStatement("CREATE VIEW v1 AS SELECT a FROM v2")
	v2, _ := ParseStatement("CREATE VIEW v2 AS SELECT a FROM v1")
	env := Env{Catalog: c, Views: viewsOf(v1.CreateView, v2.CreateView)}
	_, err := CompileEnv(env, "SELECT a FROM v1")
	if err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Fatalf("cyclic views should be rejected, got %v", err)
	}
}
