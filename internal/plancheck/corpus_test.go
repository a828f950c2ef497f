// The sweep lives in an external test package so it can drive the public
// perm API and the fuzz generator over the real compile pipeline without an
// import cycle.
package plancheck_test

import (
	"path/filepath"
	"strings"
	"testing"

	"perm"
	"perm/internal/fuzz"
)

// sweep runs one query with the frozen-plan check on: the plain query twice
// (the first run admits the plan to the cache and fingerprints it, the
// second runs the cached plan), and its SELECT PROVENANCE form compiled
// under every strategy. A rewrite error means the strategy is inapplicable
// and passes; any other error on a generator-valid query is a defect.
func sweep(t *testing.T, db *perm.DB, label, query string) {
	t.Helper()
	for run := range 2 {
		if _, err := db.Query(query, perm.WithPlanCheck(true)); err != nil {
			t.Errorf("%s [plain, run %d]: %v", label, run+1, err)
			return
		}
	}
	if !strings.HasPrefix(strings.ToUpper(query), "SELECT") {
		return
	}
	provQ := "SELECT PROVENANCE" + query[len("SELECT"):]
	for _, s := range fuzz.Strategies {
		_, err := db.Explain(provQ, perm.WithStrategy(s), perm.WithPlanCheck(true))
		if err != nil && !strings.HasPrefix(err.Error(), "rewrite: ") {
			t.Errorf("%s [%s]: compile failed: %v", label, s, err)
		}
	}
}

// TestCorpusPlancheckClean asserts the checked-in fuzz corpus runs clean
// with the frozen-plan check on and compiles under every strategy.
// Expect-error files do not compile and are skipped.
func TestCorpusPlancheckClean(t *testing.T) {
	cases, err := fuzz.ReadCorpus(filepath.Join("..", "fuzz", "testdata", "fuzz-corpus"))
	if err != nil {
		t.Fatal(err)
	}
	db := fuzz.NewDB(1)
	for _, c := range cases {
		if c.ExpectErr == "" {
			sweep(t, db, c.Name, c.Query)
		}
	}
}

// TestGeneratedPlancheckClean sweeps generated queries the same way: a
// bounded version of the long-budget fuzzer's frozen-plan dimension,
// including the LIMIT and wide queries the differential matrix leaves out.
func TestGeneratedPlancheckClean(t *testing.T) {
	if testing.Short() {
		t.Skip("generated sweep is the long half of the plancheck suite")
	}
	db := fuzz.NewDB(1)
	g := fuzz.NewGen(1)
	const n = 300
	for i := 0; i < n; i++ {
		q := g.Next()
		sweep(t, db, q.SQL, q.SQL)
	}
}
