package perm

import (
	"context"
	"strings"
	"testing"
)

func openFigure3(t *testing.T) *DB {
	t.Helper()
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 1}, {2, 1}, {3, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("s", []string{"c", "d"}, [][]any{{1, 3}, {2, 4}, {4, 5}}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPlainQuery(t *testing.T) {
	db := openFigure3(t)
	res, err := db.Query("SELECT a, b FROM r WHERE a >= 2 ORDER BY a DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != int64(3) || res.Rows[1][0] != int64(2) {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.DataColumns != 2 || len(res.Provenance) != 0 {
		t.Errorf("plain query metadata wrong: %+v", res)
	}
}

// TestLexErrorsReachQuery: DB.Query, Exec and Explain report a statement
// that does not scan with the lexer's message and byte position, whether
// or not the plan cache is on and whatever the statement's first word.
func TestLexErrorsReachQuery(t *testing.T) {
	db := openFigure3(t)
	for _, c := range []struct{ input, err string }{
		{`'abc`, `sql: unterminated string literal at position 4`},
		{`SELECT a FROM r WHERE b = 'it''s`, `sql: unterminated string literal at position 32`},
		{`SELECT "x" FROM r`, `sql: unexpected character '"' at position 8`},
		{`SELECT a ! b FROM r`, `sql: unexpected character '!' at position 10`},
		{"SELECT caf\xc9 FROM r WHERE b = @", `sql: unexpected character '@' at position 30`},
		{`SELECT FROM WHERE @`, `sql: unexpected character '@' at position 19`},
		{`CREATE TABLE w (k int) @`, `sql: unexpected character '@' at position 24`},
		{`INSERT INTO r VALUES (1, 'x)`, `sql: unterminated string literal at position 28`},
	} {
		_, queryErr := db.Query(c.input)
		_, uncachedErr := db.Query(c.input, WithoutPlanCache())
		_, execErr := db.Exec(c.input)
		_, explainErr := db.Explain(c.input)
		for _, err := range []error{queryErr, uncachedErr, execErr, explainErr} {
			if err == nil || err.Error() != c.err {
				t.Errorf("%q: %v, want %s", c.input, err, c.err)
			}
		}
	}
}

func TestProvenanceQueryAllStrategies(t *testing.T) {
	db := openFigure3(t)
	q := "SELECT PROVENANCE a, b FROM r WHERE a = ANY (SELECT c FROM s)"
	var ref *Result
	for _, s := range []Strategy{Gen, Left, Move, Unn, Auto} {
		res, err := db.Query(q, WithStrategy(s))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if res.DataColumns != 2 {
			t.Fatalf("%s: data columns = %d", s, res.DataColumns)
		}
		if len(res.Provenance) != 2 || res.Provenance[0].Relation != "r" || res.Provenance[1].Relation != "s" {
			t.Fatalf("%s: provenance groups = %+v", s, res.Provenance)
		}
		if len(res.Rows) != 2 {
			t.Fatalf("%s: rows = %v", s, res.Rows)
		}
		if ref == nil {
			ref = res
		} else if len(res.Rows) != len(ref.Rows) {
			t.Errorf("%s disagrees with Gen", s)
		}
	}
	// Row (1,1) carries provenance R(1,1), S(1,3).
	found := false
	res, _ := db.Query(q)
	for _, row := range res.Rows {
		if row[0] == int64(1) && row[2] == int64(1) && row[4] == int64(1) && row[5] == int64(3) {
			found = true
		}
	}
	if !found {
		t.Errorf("missing provenance row for (1,1): %v", res.Rows)
	}
}

func TestStrategyNotApplicableSurfaces(t *testing.T) {
	db := openFigure3(t)
	// Correlated sublink: Left must refuse.
	q := "SELECT PROVENANCE a FROM r WHERE a = ANY (SELECT c FROM s WHERE d > b)"
	if _, err := db.Query(q, WithStrategy(Left)); err == nil {
		t.Fatal("Left on a correlated sublink should fail")
	}
	if _, err := db.Query(q, WithStrategy(Gen)); err != nil {
		t.Fatalf("Gen should apply: %v", err)
	}
	if _, err := db.Query(q, WithStrategy(Auto)); err != nil {
		t.Fatalf("Auto should fall back to Gen: %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	db := Open()
	if err := db.Register("x", []string{"a"}, [][]any{{1, 2}}); err == nil {
		t.Error("width mismatch should fail")
	}
	if err := db.Register("x", []string{"a"}, [][]any{{struct{}{}}}); err == nil {
		t.Error("unsupported type should fail")
	}
	if err := db.Register("x", []string{"a"}, [][]any{{nil}, {1.5}, {"s"}, {true}}); err != nil {
		t.Errorf("mixed valid types: %v", err)
	}
}

func TestLoadCSVAndRelations(t *testing.T) {
	db := Open()
	csv := "a,b\n1,x\n2,NULL\n"
	if err := db.LoadCSV("t", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT a FROM t WHERE b IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(2) {
		t.Errorf("rows = %v", res.Rows)
	}
	if got := db.Relations(); len(got) != 1 || got[0] != "t" {
		t.Errorf("relations = %v", got)
	}
	db.Drop("t")
	if len(db.Relations()) != 0 {
		t.Error("drop failed")
	}
}

func TestExplain(t *testing.T) {
	db := openFigure3(t)
	plain, err := db.Explain("SELECT a FROM r WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plain, "Scan r") {
		t.Errorf("explain output: %s", plain)
	}
	prov, err := db.Explain("SELECT PROVENANCE a FROM r WHERE a = ANY (SELECT c FROM s)", WithStrategy(Gen))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prov, "prov_r_a") {
		t.Errorf("provenance explain lacks prov attrs: %s", prov)
	}
}

func TestWithContextCancel(t *testing.T) {
	db := openFigure3(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Big enough to hit a cancellation check.
	_, err := db.Query("SELECT PROVENANCE a FROM r WHERE a = ANY (SELECT r2.a FROM r AS r2, r AS r3, r AS r4, r AS r5, r AS r6)",
		WithStrategy(Gen), WithContext(ctx))
	if err == nil {
		t.Fatal("canceled context should abort")
	}
}

func TestWithoutOptimizer(t *testing.T) {
	db := openFigure3(t)
	a, err := db.Query("SELECT a, c FROM r, s WHERE a = c")
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Query("SELECT a, c FROM r, s WHERE a = c", WithoutOptimizer())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Errorf("optimizer changed results: %v vs %v", a.Rows, b.Rows)
	}
}

func TestFormatTable(t *testing.T) {
	db := openFigure3(t)
	res, err := db.Query("SELECT a, b FROM r ORDER BY a LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	out := res.FormatTable()
	if !strings.Contains(out, "a") || !strings.Contains(out, "1") {
		t.Errorf("table output:\n%s", out)
	}
}

func TestOrderByRespectedInProvenance(t *testing.T) {
	db := openFigure3(t)
	res, err := db.Query("SELECT PROVENANCE a FROM r WHERE a = ANY (SELECT c FROM s) ORDER BY a DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != int64(2) {
		t.Errorf("ordered provenance rows = %v", res.Rows)
	}
}

func TestViewsLifecycle(t *testing.T) {
	db := openFigure3(t)
	if _, err := db.Exec("CREATE VIEW small AS SELECT a, b FROM r WHERE a <= 2"); err != nil {
		t.Fatal(err)
	}
	if got := db.Views(); len(got) != 1 || got[0] != "small" {
		t.Fatalf("views = %v", got)
	}
	res, err := db.Query("SELECT a FROM small WHERE b = 1 ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Provenance through a view traces to the base relations behind it.
	prov, err := db.Query("SELECT PROVENANCE a FROM small WHERE a = ANY (SELECT c FROM s)")
	if err != nil {
		t.Fatal(err)
	}
	if len(prov.Provenance) != 2 || prov.Provenance[0].Relation != "r" {
		t.Fatalf("view provenance sources = %+v", prov.Provenance)
	}
	if _, err := db.Exec("DROP VIEW small"); err != nil {
		t.Fatal(err)
	}
	if len(db.Views()) != 0 {
		t.Error("drop view failed")
	}
	if _, err := db.Exec("DROP VIEW nope"); err == nil {
		t.Error("dropping unknown view should fail")
	}
	// Defining a view over a missing relation fails at definition time and
	// leaves no trace.
	if _, err := db.Exec("CREATE VIEW bad AS SELECT x FROM missing"); err == nil {
		t.Error("invalid view body should fail")
	}
	if len(db.Views()) != 0 {
		t.Error("failed view definition leaked")
	}
}

func TestAdvise(t *testing.T) {
	db := openFigure3(t)
	advice, err := db.Advise("SELECT a FROM r WHERE a = ANY (SELECT c FROM s)")
	if err != nil {
		t.Fatal(err)
	}
	if len(advice) != 5 {
		t.Fatalf("advice = %+v", advice)
	}
	if !advice[0].Applicable {
		t.Errorf("cheapest strategy should be applicable: %+v", advice[0])
	}
	if advice[0].Strategy == Gen {
		t.Errorf("Gen should not win on an uncorrelated equality-ANY: %+v", advice)
	}
	if _, err := db.Advise("SELECT PROVENANCE a FROM r"); err == nil {
		t.Error("Advise should reject PROVENANCE queries")
	}
	// The advised strategy actually works.
	q := "SELECT PROVENANCE a FROM r WHERE a = ANY (SELECT c FROM s)"
	if _, err := db.Query(q, WithStrategy(advice[0].Strategy)); err != nil {
		t.Errorf("advised strategy failed: %v", err)
	}
}

func TestCreateViewHelper(t *testing.T) {
	db := openFigure3(t)
	if err := db.CreateView("v", "SELECT a FROM r"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT count(*) AS n FROM v")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != int64(3) {
		t.Errorf("count over view = %v", res.Rows)
	}
}

func TestBadStrategyAndSQL(t *testing.T) {
	db := openFigure3(t)
	if _, err := db.Query("SELECT PROVENANCE a FROM r", WithStrategy(Strategy("Bogus"))); err == nil {
		t.Error("bogus strategy should fail")
	}
	if _, err := db.Query("SELEC a FROM r"); err == nil {
		t.Error("bad SQL should fail")
	}
}
