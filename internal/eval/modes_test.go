package eval

import (
	"errors"
	"testing"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/opt"
	"perm/internal/rewrite"
	"perm/internal/sql"
	"perm/internal/synth"
)

// equivalenceQueries covers every operator both executors implement:
// selections and projections with correlated and uncorrelated sublinks,
// hash and nested-loop joins, left joins, aggregation and set operations.
func equivalenceQueries() []string {
	return []string{
		`SELECT * FROM r WHERE a = ANY (SELECT c FROM s)`,
		`SELECT * FROM r WHERE a = ANY (SELECT c FROM s WHERE c = b)`,
		`SELECT * FROM r WHERE EXISTS (SELECT c FROM s WHERE c = a)`,
		`SELECT * FROM r WHERE a < ALL (SELECT c FROM s WHERE c > b)`,
		`SELECT a, (SELECT max(c) FROM s WHERE c <= a) FROM r`,
		`SELECT r.a, s.d FROM r, s WHERE r.a = s.c`,
		`SELECT r.a, s.d FROM r LEFT JOIN s ON r.a = s.c`,
		`SELECT r.a, s.d FROM r, s WHERE r.a < s.c`,
		`SELECT b, count(*), sum(a) FROM r GROUP BY b`,
		`SELECT b, max(a) FROM r WHERE EXISTS (SELECT c FROM s WHERE c = b) GROUP BY b`,
		`SELECT a FROM r UNION SELECT c FROM s`,
		`SELECT a FROM r WHERE a > 0 INTERSECT SELECT c FROM s`,
		`SELECT DISTINCT b FROM r`,
	}
}

// compileOptimized compiles a query and runs the logical optimizer over it.
func compileOptimized(t *testing.T, cat *catalog.Catalog, query string) algebra.Op {
	t.Helper()
	tr, err := sql.Compile(cat, query)
	if err != nil {
		t.Fatalf("compile %q: %v", query, err)
	}
	return opt.Optimize(tr.Plan)
}

// checkModes runs one query under every executor mode — the streaming
// pipeline and the materializing reference with its per-binding memo — and
// checks the results are bag-equal to the
// reference with the memo off, which re-evaluates every correlated subplan
// per outer tuple. The streaming executor always memoizes, so every mode is
// a differential test of the memo it runs with; the hashed = ANY set, which
// both executors use, has its own grid test (TestHashedAnyMatchesQuantify).
func checkModes(t *testing.T, cat *catalog.Catalog, query, strategy string) {
	t.Helper()
	tr, err := sql.Compile(cat, query)
	if err != nil {
		t.Fatalf("compile %q: %v", query, err)
	}
	plan := tr.Plan
	if strategy != "" {
		strat, err := rewrite.ParseStrategy(strategy)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rewrite.Rewrite(plan, strat)
		if errors.Is(err, rewrite.ErrNotApplicable) {
			return
		}
		if err != nil {
			t.Fatalf("rewrite %q: %v", query, err)
		}
		plan = res.Plan
	}
	plan = opt.Optimize(plan)

	base := New(cat)
	base.DisableStreaming = true
	base.DisableSublinkMemo = true
	want, err := base.Eval(plan)
	if err != nil {
		t.Fatalf("reference eval %q: %v", query, err)
	}
	for _, mode := range []struct {
		name        string
		materialize bool
	}{
		{"stream", false},
		{"materializing+memo", true},
	} {
		ev := New(cat)
		ev.DisableStreaming = mode.materialize
		got, err := ev.Eval(plan)
		if err != nil {
			t.Fatalf("%s eval %q: %v", mode.name, query, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s eval %q:\n got %s\nwant %s", mode.name, query, got, want)
		}
	}
}

func TestExecutorModesMatchSequential(t *testing.T) {
	cat := figure3DB()
	for _, query := range equivalenceQueries() {
		for _, strategy := range []string{"", "Gen", "Left", "Move", "Unn", "UnnX"} {
			checkModes(t, cat, query, strategy)
		}
	}
}

func TestExecutorModesMatchSequentialSynth(t *testing.T) {
	// A larger workload, including the correlated query the per-binding
	// memo targets.
	w := synth.Workload{InputSize: 120, SublinkSize: 60, Domain: 8, Seed: 3}
	cat := w.Catalog()
	for _, query := range []string{w.Q1(0), w.Q2(0), w.Q3(0)} {
		for _, strategy := range []string{"", "Gen"} {
			checkModes(t, cat, query, strategy)
		}
	}
}

// q4Workload is synth Q4: a selection whose correlated EXISTS probes r2
// once per outer binding.
func q4Workload(t *testing.T) (*catalog.Catalog, algebra.Op) {
	t.Helper()
	w := synth.Workload{InputSize: 200, SublinkSize: 100, Domain: 16, Seed: 2}
	cat := w.Catalog()
	return cat, compileOptimized(t, cat, w.Q4(0))
}

// TestSublinkRowBudget: the row budget trips inside a correlated probe, and
// it is exact — a run needs exactly its PeakRows.
func TestSublinkRowBudget(t *testing.T) {
	cat, plan := q4Workload(t)
	ev := New(cat)
	out, err := ev.Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	if out.Card() <= 5 {
		t.Fatalf("unbounded run has %d rows, want more than the budget of 5", out.Card())
	}
	peak := ev.LastStats().PeakRows
	for _, c := range []struct {
		max  int
		want error
	}{
		{5, ErrBudget},
		{int(peak) - 1, ErrBudget},
		{int(peak), nil},
	} {
		ev := New(cat)
		ev.MaxRows = c.max
		if _, err := ev.Eval(plan); !errors.Is(err, c.want) {
			t.Errorf("MaxRows %d (peak %d): got %v, want %v", c.max, peak, err, c.want)
		}
	}
}

func TestExecutorModesProvenanceRewrites(t *testing.T) {
	// End-to-end over the synthetic provenance workload: every strategy's
	// rewritten plan evaluates identically in every executor mode.
	w := synth.Workload{InputSize: 60, SublinkSize: 40, Domain: 6, Seed: 7}
	cat := w.Catalog()
	for i := int64(0); i < 2; i++ {
		for _, strategy := range []string{"Gen", "Left", "Move", "Unn", "UnnX"} {
			checkModes(t, cat, w.Q1(i), strategy)
		}
	}
}
