package fuzz

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"perm"
	"perm/internal/algebra"
	"perm/internal/eval"
	"perm/internal/opt"
	"perm/internal/rewrite"
	"perm/internal/sql"
)

// TestGeneratorDeterministic: the same seed must yield the same query
// sequence — failure reports are replayed by (seed, index).
func TestGeneratorDeterministic(t *testing.T) {
	a, b := NewGen(7), NewGen(7)
	for i := 0; i < 200; i++ {
		qa, qb := a.Next(), b.Next()
		if qa.SQL != qb.SQL {
			t.Fatalf("query %d diverges:\n%s\n%s", i, qa.SQL, qb.SQL)
		}
	}
}

// TestRenderParseRoundTrip: rendered queries must parse, and re-rendering
// the parse must be a fixpoint (the corpus stores rendered text, so the
// parser and renderer must agree).
func TestRenderParseRoundTrip(t *testing.T) {
	g := NewGen(3)
	for i := 0; i < 500; i++ {
		q := g.Next()
		st, err := sql.Parse(q.SQL)
		if err != nil {
			t.Fatalf("query %d does not parse: %v\n%s", i, err, q.SQL)
		}
		if again := Render(st); again != q.SQL {
			t.Fatalf("query %d is not a render fixpoint:\n%s\n%s", i, q.SQL, again)
		}
	}
}

// fuzzN is the bounded corpus run wired into go test: at least the 2,000
// queries the differential guarantee is stated over.
const fuzzN = 2200

// TestFuzzDifferential generates fuzzN queries from a fixed seed and runs
// each through the full differential matrix. Failures are shrunk before
// reporting.
func TestFuzzDifferential(t *testing.T) {
	n := fuzzN
	if testing.Short() {
		n = 250
	}
	const seed = 1
	db := NewDB(seed)
	g := NewGen(seed)
	queries := make([]*Query, n)
	for i := range queries {
		queries[i] = g.Next()
	}

	type failure struct {
		idx int
		err error
		q   *Query
	}
	var (
		mu       sync.Mutex
		failures []failure
		probed   int // queries whose streaming run probed a correlated index
		genRan   int // queries with a sublink and a Gen rewrite
		genDid   int // ... whose streaming run generated CrossBase witnesses
		ran      int
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, q := range queries {
		mu.Lock()
		full := len(failures) >= 3 // enough evidence; stop collecting
		mu.Unlock()
		if full {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, q *Query) {
			defer wg.Done()
			defer func() { <-sem }()
			err := Check(db, q)
			st := streamStats(db, q)
			mu.Lock()
			defer mu.Unlock()
			ran++
			if st.indexed {
				probed++
			}
			if st.gen {
				genRan++
			}
			if st.generated {
				genDid++
			}
			if err != nil {
				failures = append(failures, failure{idx: i, err: err, q: q})
			}
		}(i, q)
	}
	wg.Wait()
	// The oracle checks the correlated index only where the streaming
	// executor uses it: a generator that stopped reaching it would leave the
	// index unchecked.
	t.Logf("%d of %d queries (%.1f%%) probed a correlated index in a streaming run", probed, ran, 100*float64(probed)/float64(ran))
	if probed == 0 {
		t.Errorf("no generated query probed a correlated index")
	}
	// Likewise generation: the oracle checks Gen's G1 selections answered
	// by generation only if the rewritten queries reach it.
	t.Logf("%d of %d Gen queries with a sublink (%.1f%%) generated CrossBase witnesses in a streaming run", genDid, genRan, 100*float64(genDid)/float64(max(genRan, 1)))
	if genDid == 0 {
		t.Errorf("no Gen query generated CrossBase witnesses")
	}
	for _, f := range failures {
		min := Shrink(db, f.q, 200)
		minErr := Check(db, min)
		t.Errorf("seed %d query %d disagrees: %v\noriginal:  %s\nminimized: %s\nminimized failure: %v",
			seed, f.idx, f.err, f.q.SQL, min.SQL, minErr)
	}
	if len(failures) == 0 {
		t.Logf("%d queries, full differential matrix, zero disagreements", n)
	}
}

// stats is what the streaming executor did for one generated query.
type stats struct {
	indexed   bool // a selection, as written or rewritten by Gen, probed a correlated index (eval.Stats.IndexProbes)
	gen       bool // the query has a sublink and a Gen rewrite
	generated bool // the rewrite's G1 selections were answered by generation (eval.Stats.Generated)
}

// streamStats runs the query, and its Gen rewrite, on the sequential
// streaming executor. A small row budget keeps Gen's large products
// cheap: a run the budget stops still counts what it did.
func streamStats(db *perm.DB, q *Query) stats {
	var st stats
	tr, err := sql.Compile(db.Catalog(), q.SQL)
	if err != nil {
		return st
	}
	run := func(p algebra.Op) eval.Stats {
		ev := eval.New(db.Catalog())
		ev.MaxRows = 1000
		_, _ = ev.Eval(opt.Optimize(p))
		return ev.LastStats()
	}
	st.indexed = run(tr.Plan).IndexProbes > 0
	if !q.UsesLimit && q.Scans <= MaxProvScans {
		if res, err := rewrite.Rewrite(tr.Plan, rewrite.Gen); err == nil {
			gs := run(res.Plan)
			algebra.Walk(tr.Plan, func(op algebra.Op) bool {
				for _, x := range algebra.OperatorExprs(op) {
					st.gen = st.gen || algebra.HasSublink(x)
				}
				return !st.gen
			})
			st.indexed = st.indexed || gs.IndexProbes > 0
			st.generated = gs.Generated > 0
		}
	}
	return st
}

// TestFuzzCorpus replays the checked-in minimized repros. A file may
// declare "-- expect-error: <substring>": then every executor mode must
// fail with a matching error. All other files must pass the full oracle.
func TestFuzzCorpus(t *testing.T) {
	cases, err := ReadCorpus(filepath.Join("testdata", "fuzz-corpus"))
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(1) // corpus cases are stated over the seed-1 data
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			query, expectErr := c.Query, c.ExpectErr
			if expectErr != "" {
				first := ""
				for _, m := range Modes {
					_, err := db.Query(query, m.Opts...)
					if err == nil {
						t.Fatalf("%s: expected an error containing %q, got success", m.Name, expectErr)
					}
					if !strings.Contains(err.Error(), expectErr) {
						t.Fatalf("%s: error %q does not contain %q", m.Name, err, expectErr)
					}
					if first == "" {
						first = err.Error()
					} else if err.Error() != first {
						t.Fatalf("%s: error class diverged: %q vs %q", m.Name, err, first)
					}
				}
				// Compile-stage errors (semantic analysis) must keep their
				// class under SELECT PROVENANCE for every rewrite strategy
				// too — the analyzer runs before the rewrite, so no strategy
				// may succeed or fail differently. (The PROVENANCE keyword
				// shifts byte positions, so the comparison is by class, not
				// by exact message.)
				if strings.HasPrefix(first, "sql:") {
					provQ := "SELECT PROVENANCE" + strings.TrimPrefix(query, "SELECT")
					for _, s := range Strategies {
						_, err := db.Query(provQ, perm.WithStrategy(s))
						if err == nil || !strings.Contains(err.Error(), expectErr) {
							t.Fatalf("%s: provenance error class diverged: %v, want %q", s, err, expectErr)
						}
					}
				}
				return
			}
			st, err := sql.Parse(query)
			if err != nil {
				t.Fatalf("corpus query does not parse: %v", err)
			}
			if err := Check(db, Finalize(st)); err != nil {
				t.Errorf("corpus query disagrees: %v\n%s", err, query)
			}
		})
	}
}

// TestCompileOutsideMatrix compiles the provenance plans of the queries
// Check keeps out of its strategy matrix: those with a LIMIT and those with
// more than MaxProvScans base-relation accesses, among the corpus and the
// queries TestFuzzDifferential generates. Each is compiled as SELECT
// PROVENANCE under every strategy through DB.Explain, which rewrites,
// optimizes and binds the plan but does not run it. A strategy that does
// not apply, and the rewrite's refusal of LIMIT, are rewrite errors and
// pass; any other error is a defect.
func TestCompileOutsideMatrix(t *testing.T) {
	cases, err := ReadCorpus(filepath.Join("testdata", "fuzz-corpus"))
	if err != nil {
		t.Fatal(err)
	}
	var queries []*Query
	for _, c := range cases {
		if c.ExpectErr != "" {
			continue
		}
		st, err := sql.Parse(c.Query)
		if err != nil {
			t.Fatalf("%s: corpus query does not parse: %v", c.Name, err)
		}
		queries = append(queries, Finalize(st))
	}
	g := NewGen(1)
	for range fuzzN {
		queries = append(queries, g.Next())
	}
	db := NewDB(1)
	limited, wide, compiled := 0, 0, 0
	for _, q := range queries {
		switch {
		case q.UsesLimit:
			limited++
		case q.Scans > MaxProvScans:
			wide++
		default:
			continue
		}
		provQ := "SELECT PROVENANCE" + strings.TrimPrefix(q.SQL, "SELECT")
		for _, s := range Strategies {
			_, err := db.Explain(provQ, perm.WithStrategy(s))
			switch {
			case err == nil:
				compiled++
			case !isRewriteErr(err.Error()):
				t.Errorf("%s: %v\n%s", s, err, provQ)
			}
		}
	}
	t.Logf("%d LIMIT and %d wide queries of %d; %d provenance plans compiled", limited, wide, len(queries), compiled)
	if compiled == 0 {
		t.Error("no provenance plan outside the matrix compiled")
	}
}

// TestShrinkTerminates: the shrinker terminates within its budget and
// never returns a larger query than it was given.
func TestShrinkTerminates(t *testing.T) {
	db := NewDB(1)
	g := NewGen(5)
	q := g.Next()
	min := Shrink(db, q, 20)
	if min == nil || min.SQL == "" {
		t.Fatal("shrink returned nothing")
	}
	if len(min.SQL) > len(q.SQL) {
		t.Fatalf("shrink grew the query: %d -> %d", len(q.SQL), len(min.SQL))
	}
}

func ExampleRender() {
	st, _ := sql.Parse("SELECT a AS x FROM r ORDER BY b LIMIT 2")
	fmt.Println(Render(st))
	// Output: SELECT a AS x FROM r ORDER BY b LIMIT 2
}

// TestOrderChecksCastQuarantine: a CAST anywhere in the statement — even
// laundered through a derived-table column — disables semantic order
// checking, since cast digit-strings sort lexically in the engine but would
// be compared numerically by the checker (review-found false positive).
func TestOrderChecksCastQuarantine(t *testing.T) {
	st, err := sql.Parse(`SELECT f2.x1 AS y1 FROM (SELECT CAST(f1.a AS string) AS x1 FROM r AS f1) AS f2 ORDER BY 1`)
	if err != nil {
		t.Fatal(err)
	}
	if checks := Finalize(st).OrderChecks; len(checks) != 0 {
		t.Fatalf("OrderChecks = %v, want none for a cast-bearing statement", checks)
	}
	// Cast-free keys stay checked.
	st, err = sql.Parse(`SELECT f1.a AS x1 FROM r AS f1 ORDER BY 1 DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if checks := Finalize(st).OrderChecks; len(checks) != 1 || !checks[0].Desc || checks[0].Col != 0 {
		t.Fatalf("OrderChecks = %v, want one DESC check on column 0", checks)
	}
}

// TestPlanCacheVariants pins the two statements the plan-cache assertion
// derives from a query: the sibling of the same shape and other values, and
// the variant with a value in both numeric kinds.
func TestPlanCacheVariants(t *testing.T) {
	const q = `SELECT a / 2 FROM r WHERE s = 'x' AND b > 7 AND c < 2.5 AND d = 2 LIMIT 3`
	sibling, err := Sibling(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := `SELECT a / 3 FROM r WHERE s = 'xzz' AND b > 10 AND c < 8.5 AND d = 3 LIMIT 3`; sibling != want {
		t.Errorf("Sibling = %s\nwant      %s", sibling, want)
	}
	if got, want := MixedKinds(q), `SELECT a / 2 FROM r WHERE s = 'x' AND b > 2.0 AND c < 2.5 AND d = 2 LIMIT 3`; got != want {
		t.Errorf("MixedKinds = %s\nwant         %s", got, want)
	}
	if got := MixedKinds(`SELECT 'open`); got != `SELECT 'open` {
		t.Errorf("MixedKinds of a statement that does not lex = %s", got)
	}
}
