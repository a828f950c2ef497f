package eval

import (
	"errors"
	"fmt"
	"testing"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/opt"
	"perm/internal/rel"
	"perm/internal/rewrite"
	"perm/internal/sql"
	"perm/internal/synth"
	"perm/internal/types"
)

// evalMode runs one compiled plan on the streaming executor, or with
// materialize on the reference with its memo off.
func evalMode(t *testing.T, cat *catalog.Catalog, plan algebra.Op, materialize bool) *rel.Relation {
	t.Helper()
	ev := New(cat)
	ev.DisableStreaming = materialize
	ev.DisableSublinkMemo = materialize
	out, err := ev.Eval(plan)
	if err != nil {
		t.Fatalf("eval (mat=%v): %v\nplan:\n%s", materialize, err, algebra.Indent(plan))
	}
	return out
}

// TestStreamingMatchesMaterializing: on every equivalence query and every
// strategy, the streaming pipeline must produce the bag the materializing
// reference produces.
func TestStreamingMatchesMaterializing(t *testing.T) {
	cat := figure3DB()
	for _, query := range equivalenceQueries() {
		for _, strategy := range []string{"", "Gen", "Left", "Move", "Unn", "UnnX"} {
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
					continue
				}
				if err != nil {
					t.Fatalf("rewrite %q: %v", query, err)
				}
				plan = res.Plan
			}
			plan = opt.Optimize(plan)
			want := evalMode(t, cat, plan, true)
			if got := evalMode(t, cat, plan, false); !got.Equal(want) {
				t.Errorf("streaming diverges on %q/%s:\n got %s\nwant %s",
					query, strategy, got, want)
			}
		}
	}
}

// TestStreamingMatchesMaterializingSynth covers the larger correlated
// workload, where the per-binding memo actually engages.
func TestStreamingMatchesMaterializingSynth(t *testing.T) {
	w := synth.Workload{InputSize: 120, SublinkSize: 60, Domain: 8, Seed: 5}
	cat := w.Catalog()
	for _, query := range []string{w.Q1(0), w.Q2(0), w.Q3(0), w.Q4(0)} {
		tr, err := sql.Compile(cat, query)
		if err != nil {
			t.Fatal(err)
		}
		plan := opt.Optimize(tr.Plan)
		want := evalMode(t, cat, plan, true)
		if got := evalMode(t, cat, plan, false); !got.Equal(want) {
			t.Errorf("streaming diverges on %q", query)
		}
	}
}

// TestExistsProbeEarlyTermination: an EXISTS-dominated correlated query
// must materialize at least an order of magnitude fewer rows under the
// streaming executor — the probes stop at their first witness instead of
// building per-binding result bags.
func TestExistsProbeEarlyTermination(t *testing.T) {
	w := synth.Workload{InputSize: 200, SublinkSize: 200, Domain: 16, Seed: 2}
	cat := w.Catalog()
	tr, err := sql.Compile(cat, w.Q4(0))
	if err != nil {
		t.Fatal(err)
	}
	plan := opt.Optimize(tr.Plan)

	mat := New(cat)
	mat.DisableStreaming = true
	mat.DisableSublinkMemo = true
	matOut, err := mat.Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	str := New(cat)
	strOut, err := str.Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !strOut.Equal(matOut) {
		t.Fatalf("streaming and materializing bags differ")
	}
	mp, sp := mat.LastStats().PeakRows, str.LastStats().PeakRows
	if sp == 0 || mp < 10*sp {
		t.Errorf("peak rows: materializing %d, streaming %d — want >= 10x reduction", mp, sp)
	}
}

// TestLimitStopsPipeline: a satisfied LIMIT must cease upstream work. The
// row budget is the witness: the streaming run only materializes the limit
// output, while the materializing run would need the full cross product.
func TestLimitStopsPipeline(t *testing.T) {
	w := synth.Workload{InputSize: 300, SublinkSize: 300, Seed: 1}
	cat := w.Catalog()
	tr, err := sql.Compile(cat, `SELECT * FROM r1, r2 LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	ev := New(cat)
	ev.MaxRows = 100 // far below the 90000-row cross product
	out, err := ev.Eval(tr.Plan)
	if err != nil {
		t.Fatalf("streaming limit should stop before the budget: %v", err)
	}
	if out.Card() != 5 {
		t.Errorf("limit card = %d", out.Card())
	}
	mat := New(cat)
	mat.DisableStreaming = true
	mat.MaxRows = 100
	if _, err := mat.Eval(tr.Plan); !errors.Is(err, ErrBudget) {
		t.Fatalf("materializing executor should exhaust the budget, got %v", err)
	}
}

// TestTopNHeapMatchesSort: LIMIT/OFFSET over ORDER BY must emit exactly
// the row sequence of the materializing full sort, including the
// deterministic tie-break, and a Limit over the Order, directly or through
// a derived table's bag projections, bounds the streaming sort's state by
// offset+n: the heap fill plus the result, where the unbounded ORDER BY b
// holds 300 (its buffer and the result).
func TestTopNHeapMatchesSort(t *testing.T) {
	w := synth.Workload{InputSize: 150, SublinkSize: 10, Domain: 5, Seed: 9}
	cat := w.Catalog()
	for _, q := range []string{
		`SELECT a, b FROM r1 ORDER BY b LIMIT 7`,
		`SELECT a, b FROM r1 ORDER BY b DESC, a LIMIT 4 OFFSET 3`,
		`SELECT a, b FROM r1 ORDER BY a OFFSET 140`,
		`SELECT a, b FROM r1 ORDER BY b LIMIT 0`,
		`SELECT a, b FROM r1 ORDER BY b LIMIT 500 OFFSET 1`,
		`SELECT a, b FROM r1 ORDER BY b`,
		`SELECT a FROM (SELECT a, b FROM r1 ORDER BY b) t LIMIT 7`,
	} {
		tr, err := sql.Compile(cat, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want := evalMode(t, cat, tr.Plan, true)
		ev := New(cat)
		got, err := ev.Eval(tr.Plan)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if fmt.Sprint(got.Tuples()) != fmt.Sprint(want.Tuples()) {
			t.Errorf("%s: heap and sort disagree\n got %v\nwant %v", q, got.Tuples(), want.Tuples())
		}
		if l, ok := tr.Plan.(*algebra.Limit); ok && l.N >= 0 {
			if peak, bound := ev.LastStats().PeakRows, 2*int64(l.Offset+l.N); peak > bound {
				t.Errorf("%s: PeakRows %d, want ≤ 2·(offset+n) = %d", q, peak, bound)
			}
		}
	}
}

// TestLimitOffsetAlgebra exercises the Offset field at the operator level,
// including OFFSET without LIMIT (N < 0).
func TestLimitOffsetAlgebra(t *testing.T) {
	c := figure3DB()
	ord := &algebra.Order{Child: scan(t, c, "r"),
		Keys: []algebra.SortKey{{E: algebra.Attr("a")}}}
	for _, tc := range []struct {
		n, offset int
		want      []rel.Tuple
	}{
		{1, 1, []rel.Tuple{ints(2, 1)}},
		{-1, 2, []rel.Tuple{ints(3, 2)}},
		{-1, 0, []rel.Tuple{ints(1, 1), ints(2, 1), ints(3, 2)}},
		{2, 5, nil},
	} {
		op := &algebra.Limit{Child: ord, N: tc.n, Offset: tc.offset}
		for _, materialize := range []bool{false, true} {
			ev := New(c)
			ev.DisableStreaming = materialize
			out, err := ev.Eval(op)
			if err != nil {
				t.Fatalf("limit %d offset %d: %v", tc.n, tc.offset, err)
			}
			want := rel.FromTuples(out.Schema, tc.want...)
			if !out.Equal(want) {
				t.Errorf("limit %d offset %d (mat=%v) = %s, want %s", tc.n, tc.offset, materialize, out, want)
			}
		}
	}
}

// TestDerivedTableOrderPropagatesToLimit is the executor half of the
// derived-table ORDER BY regression: the Limit must honour an Order sitting
// below the subquery's re-qualifying projection wrapper. The pre-fix
// executor returned the canonical-order rows (1 and 2) instead.
func TestDerivedTableOrderPropagatesToLimit(t *testing.T) {
	cat := figure3DB()
	tr, err := sql.Compile(cat, `SELECT a FROM (SELECT a FROM r ORDER BY a DESC) t LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	for _, materialize := range []bool{false, true} {
		ev := New(cat)
		ev.DisableStreaming = materialize
		out, err := ev.Eval(tr.Plan)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(out.Tuples()); got != "[(3) (2)]" {
			t.Errorf("mat=%v: derived-table ORDER BY dropped: got %s, want [(3) (2)]", materialize, got)
		}
	}
}

// TestScalarProbeStopsAtSecondRow: the streaming scalar probe must fail on
// a multi-row subquery without materializing it all, and agree with the
// materializing executor on the single-row case.
func TestScalarProbeStopsAtSecondRow(t *testing.T) {
	c := figure3DB()
	multi := algebra.NewProject(scan(t, c, "s"), algebra.KeepCol("c"))
	op := &algebra.Select{
		Child: scan(t, c, "r"),
		Cond: algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("a"),
			R: algebra.Sublink{Kind: algebra.ScalarSublink, Query: multi}},
	}
	if _, err := New(c).Eval(op); err == nil {
		t.Fatal("scalar sublink over 3 tuples should error under streaming")
	}
	single := algebra.NewProject(
		&algebra.Select{Child: scan(t, c, "s"),
			Cond: algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("c"), R: algebra.IntConst(2)}},
		algebra.KeepCol("c"))
	ok := &algebra.Select{
		Child: scan(t, c, "r"),
		Cond: algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("a"),
			R: algebra.Sublink{Kind: algebra.ScalarSublink, Query: single}},
	}
	out := mustEval(t, c, ok)
	if out.Card() != 1 || out.Count(ints(2, 1)) != 1 {
		t.Errorf("scalar probe result = %s", out)
	}
}

// TestStreamingCorrelatedMemoCounts mirrors the materializing memo test:
// the verdict caches must keep the per-binding evaluation counts.
func TestStreamingCorrelatedMemoCounts(t *testing.T) {
	c := figure3DB()
	cdb := &countingDB{DB: c}
	sub := &algebra.Select{
		Child: scan(t, c, "s"),
		Cond:  algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("c"), R: algebra.Attr("b")},
	}
	op := &algebra.Select{Child: scan(t, c, "r"),
		Cond: algebra.Sublink{Kind: algebra.ExistsSublink, Query: algebra.NewProject(sub, algebra.KeepCol("c"))}}
	// R carries bindings b = 1, 1, 2: the verdict cache answers the second
	// b=1 probe without touching s again.
	if _, err := New(cdb).Eval(op); err != nil {
		t.Fatal(err)
	}
	if cdb.counts["s"] != 2 {
		t.Errorf("correlated EXISTS probed s %d times, want 2 (verdict-cached per binding)", cdb.counts["s"])
	}
}

// TestCorrelatedProbeScansOnce: a correlated EXISTS over N distinct bindings
// reads its inner base relation at most twice — the literal filter on the
// first binding, the index build on the second — and every later binding
// probes the index. The materializing reference rescans it per binding.
func TestCorrelatedProbeScansOnce(t *testing.T) {
	w := synth.Workload{InputSize: 200, SublinkSize: 200, Domain: 16, Seed: 2}
	cat := w.Catalog()
	plan := compileOptimized(t, cat, `SELECT * FROM r1 WHERE EXISTS (SELECT r2.a FROM r2 WHERE r2.b = r1.b)`)
	r1, err := cat.Relation("r1")
	if err != nil {
		t.Fatal(err)
	}
	bindings := map[types.Value]bool{}
	_ = r1.Each(func(t rel.Tuple, n int) error { bindings[t[1]] = true; return nil })
	n := int64(len(bindings))

	cdb := &countingDB{DB: cat}
	ev := New(cdb)
	got, err := ev.Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	if want := evalMode(t, cat, plan, true); !got.Equal(want) {
		t.Fatalf("streaming and reference bags differ")
	}
	if cdb.counts["r2"] > 2 {
		t.Errorf("%d bindings scanned r2 %d times, want at most 2", n, cdb.counts["r2"])
	}
	if st := ev.LastStats(); st.IndexBuilds != 1 || st.IndexProbes != n-1 {
		t.Errorf("stats %+v over %d bindings, want 1 build and %d probes", st, n, n-1)
	}
}
