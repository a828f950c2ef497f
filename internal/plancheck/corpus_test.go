// The sweep lives in an external test package so it can drive the public
// perm API (DB.VerifyPlan) and the fuzz generator over the real compile
// pipeline without an import cycle.
package plancheck_test

import (
	"path/filepath"
	"strings"
	"testing"

	"perm"
	"perm/internal/fuzz"
)

var sweepStrategies = []perm.Strategy{perm.Gen, perm.Left, perm.Move, perm.Unn, perm.UnnX, perm.Auto}

// sweep verifies one query (plain, and SELECT PROVENANCE under every
// strategy) at every compile stage, failing the test on any non-advisory
// finding. Rewrite-stage errors mean the strategy is inapplicable and are
// skipped; any other compile error on a generator-valid query is a defect.
func sweep(t *testing.T, db *perm.DB, label, query string) {
	t.Helper()
	verify := func(config, q string, opts ...perm.Option) {
		stages, err := db.VerifyPlan(q, opts...)
		if err != nil {
			if strings.HasPrefix(err.Error(), "rewrite: ") {
				return
			}
			t.Errorf("%s [%s]: compile failed: %v", label, config, err)
			return
		}
		for _, st := range stages {
			for _, f := range st.Findings {
				if !f.Advisory {
					t.Errorf("%s [%s]: %s", label, config, f)
				}
			}
		}
	}
	verify("plain", query)
	if !strings.HasPrefix(strings.ToUpper(query), "SELECT") {
		return
	}
	provQ := "SELECT PROVENANCE" + query[len("SELECT"):]
	for _, s := range sweepStrategies {
		verify(string(s), provQ, perm.WithStrategy(s))
	}
}

// TestCorpusPlancheckClean asserts the checked-in fuzz corpus verifies
// clean at every stage under every strategy — the "zero findings" contract
// every go test run enforces. Expect-error files do not compile and are
// skipped.
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

// TestGeneratedPlancheckClean sweeps generated queries through the
// verifier: a bounded version of the long-budget fuzzer's plancheck
// oracle, catching checker false positives and engine regressions alike.
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
