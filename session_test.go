package perm

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"perm/internal/rel"
	"perm/internal/types"
)

// TestConcurrentInsertKeepsEveryRow: INSERT is a read-modify-write of the
// table's current version; concurrent INSERTs at the base must serialise,
// not overwrite each other's appended copy.
func TestConcurrentInsertKeepsEveryRow(t *testing.T) {
	const writers, each = 8, 200
	db := Open()
	if _, err := db.Exec(`CREATE TABLE w (k int)`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := db.Exec(fmt.Sprintf(`INSERT INTO w VALUES (%d)`, g*each+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	res, err := db.Query(`SELECT count(*) FROM w`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0]; got != int64(writers*each) {
		t.Fatalf("count(*) = %v after %d concurrent single-row INSERTs, want %d", got, writers*each, writers*each)
	}
}

// TestDDLConformance runs one DDL script against a fresh DB and a fresh
// Session: both are the same statement scope, so every statement must have
// the same outcome and the same error text in both.
func TestDDLConformance(t *testing.T) {
	script := []struct {
		stmt    string
		wantErr string // "" = must succeed
	}{
		{`CREATE TABLE t (a int, b text)`, ""},
		{`CREATE TABLE t (a int)`, `catalog: relation "t" already exists`},
		{`INSERT INTO t VALUES (1, NULL)`, ""},
		{`CREATE VIEW v AS SELECT a FROM t`, ""},
		{`CREATE TABLE v (a int)`, `perm: relation "v" already exists (as a view)`},
		{`INSERT INTO v VALUES (1)`, `perm: cannot INSERT into view "v"`},
		{`INSERT INTO nope VALUES (1)`, `catalog: unknown relation "nope"`},
		{`DROP TABLE nope`, `catalog: unknown relation "nope"`},
		{`DROP VIEW nope`, `perm: unknown view "nope"`},
		{`DROP VIEW v`, ""},
		{`DROP VIEW v`, `perm: unknown view "v"`},
		{`CREATE TABLE v (a int)`, ""},
		{`DROP TABLE t`, ""},
		{`DROP TABLE t`, `catalog: unknown relation "t"`},
		{`CREATE TABLE t (a int)`, ""},
	}
	type execer interface {
		Exec(string, ...Option) (*Result, error)
		Relations() []string
		Views() []string
	}
	scopes := []struct {
		name string
		sc   execer
	}{
		{"DB", Open()},
		{"Session", Open().NewSession()},
	}
	for _, s := range scopes {
		for i, step := range script {
			_, err := s.sc.Exec(step.stmt)
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != step.wantErr {
				t.Errorf("%s: statement %d %q: error %q, want %q", s.name, i, step.stmt, got, step.wantErr)
			}
		}
		if got := strings.Join(s.sc.Relations(), ","); got != "t,v" {
			t.Errorf("%s: Relations() = %s, want t,v", s.name, got)
		}
		if got := s.sc.Views(); len(got) != 0 {
			t.Errorf("%s: Views() = %v, want none", s.name, got)
		}
	}
}

// TestInsertWidensUnknownKinds: a column whose kind is still unknown (all
// NULL so far) takes the kind of the first non-NULL value inserted, in the
// version the INSERT publishes; the version before keeps its kinds.
func TestInsertWidensUnknownKinds(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, nil}}); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	before := s.snapshot()
	if _, err := s.Exec(`INSERT INTO r VALUES (2, 'x')`); err != nil {
		t.Fatal(err)
	}
	if ks, _ := before.src.Kinds("r"); ks[1] != types.KindNull {
		t.Errorf("pre-INSERT snapshot kinds = %v, want b still unknown", ks)
	}
	if ks, _ := s.snapshot().src.Kinds("r"); ks[0] != types.KindInt || ks[1] != types.KindString {
		t.Errorf("post-INSERT kinds = %v, want [int string]", ks)
	}
	if _, err := s.Exec(`INSERT INTO r VALUES (3, 4)`); err == nil {
		t.Error("INSERT of an int into the now-string column succeeded")
	}
	if ks, _ := db.Catalog().Kinds("r"); ks[1] != types.KindNull {
		t.Errorf("session INSERT changed the base's kinds: %v", ks)
	}
}

// TestLoadMergesInsertAppends: loading a table merges its duplicate rows
// into one slot each; INSERT appends its rows as slots of their own, merged
// with nothing, and leaves the version before it as it was. Counting is the
// same either way.
func TestLoadMergesInsertAppends(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a"}, [][]any{{1}, {2}, {1}, {1}}); err != nil {
		t.Fatal(err)
	}
	slots := func(src interface {
		Relation(string) (*rel.Relation, error)
	}) (n int) {
		r, err := src.Relation("r")
		if err != nil {
			t.Fatal(err)
		}
		_ = r.Each(func(rel.Tuple, int) error { n++; return nil })
		return n
	}
	before := db.Catalog().Snapshot()
	if got := slots(before); got != 2 {
		t.Fatalf("%d slots after loading (1)×3, (2)×1, want 2", got)
	}
	if _, err := db.Exec(`INSERT INTO r VALUES (1), (2)`); err != nil {
		t.Fatal(err)
	}
	if got := slots(db.Catalog()); got != 4 {
		t.Errorf("%d slots after inserting (1), (2), want 4", got)
	}
	if got := slots(before); got != 2 {
		t.Errorf("the pre-INSERT version has %d slots, want its 2", got)
	}
	res, err := db.Query(`SELECT a, count(*) FROM r GROUP BY a ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); got != "[[1 4] [2 2]]" {
		t.Errorf("counts = %s, want [[1 4] [2 2]]", got)
	}
}

// TestSessionSnapshotPinsBase: the snapshot a session statement runs
// against is immutable through the base — base Register, DROP and INSERT
// after it was taken do not reach it — while the session's next snapshot
// sees all of them.
func TestSessionSnapshotPinsBase(t *testing.T) {
	db := Open()
	for _, name := range []string{"r", "gone"} {
		if err := db.Register(name, []string{"a"}, [][]any{{1}, {2}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateView("v", `SELECT a FROM r`); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	sn := s.snapshot()
	oldRel, err := sn.src.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	oldKinds, _ := sn.src.Kinds("r")

	if _, err := db.Exec(`INSERT INTO r VALUES (3)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("r", []string{"a"}, [][]any{{"x"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("late", []string{"a"}, nil); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{`DROP TABLE gone`, `DROP VIEW v`, `CREATE VIEW v2 AS SELECT a FROM late`} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}

	if r, err := sn.src.Relation("r"); err != nil || r != oldRel || r.Card() != 2 {
		t.Errorf("snapshot r = %p (%v), want the 2-row relation pinned at %p", r, err, oldRel)
	}
	if ks, err := sn.src.Kinds("r"); err != nil || &ks[0] != &oldKinds[0] || ks[0] != types.KindInt {
		t.Errorf("snapshot kinds(r) = %v (%v), want the pinned %v", ks, err, oldKinds)
	}
	if got := strings.Join(sn.src.Names(), ","); got != "gone,r" {
		t.Errorf("snapshot Names() = %s, want gone,r", got)
	}
	if got := strings.Join(sn.views.Names(), ","); got != "v" {
		t.Errorf("snapshot views = %s, want v", got)
	}
	res, err := sn.query(`SELECT PROVENANCE a FROM v ORDER BY 1`, newQueryConfig(nil))
	if err != nil || len(res.Rows) != 2 {
		t.Errorf("query on the pinned snapshot: %v, %v; want the 2 old rows through the dropped view", res, err)
	}

	// The session's next statement sees the base as it is now.
	if got := strings.Join(s.Relations(), ","); got != "late,r" {
		t.Errorf("session Relations() after base DDL = %s, want late,r", got)
	}
	if got := strings.Join(s.Views(), ","); got != "v2" {
		t.Errorf("session Views() after base DDL = %s, want v2", got)
	}
	res, err = s.Query(`SELECT a FROM r`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "x" {
		t.Errorf("session query after base Register: %v, %v; want the re-registered row", res, err)
	}
}
