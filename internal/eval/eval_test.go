package eval

import (
	"context"
	"errors"
	"testing"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/rel"
	"perm/internal/schema"
	"perm/internal/types"
)

func ints(vals ...int64) rel.Tuple {
	t := make(rel.Tuple, len(vals))
	for i, v := range vals {
		t[i] = types.NewInt(v)
	}
	return t
}

// figure3DB is the R and S of Figure 3 in the paper:
// R(a,b) = {(1,1),(2,1),(3,2)}, S(c,d) = {(1,3),(2,4),(4,5)}.
func figure3DB() *catalog.Catalog {
	c := catalog.New()
	r := rel.FromTuples(schema.New("", "a", "b"), ints(1, 1), ints(2, 1), ints(3, 2))
	s := rel.FromTuples(schema.New("", "c", "d"), ints(1, 3), ints(2, 4), ints(4, 5))
	c.Register("r", r)
	c.Register("s", s)
	return c
}

func scan(t *testing.T, c *catalog.Catalog, name string) *algebra.Scan {
	t.Helper()
	sch, err := c.Schema(name)
	if err != nil {
		t.Fatalf("schema(%s): %v", name, err)
	}
	return algebra.NewScan(name, "", sch)
}

func mustEval(t *testing.T, c *catalog.Catalog, op algebra.Op) *rel.Relation {
	t.Helper()
	out, err := New(c).Eval(op)
	if err != nil {
		t.Fatalf("eval %s: %v", op, err)
	}
	return out
}

func TestScanRequalifiesSchema(t *testing.T) {
	c := figure3DB()
	sch, _ := c.Schema("r")
	op := algebra.NewScan("r", "x", sch)
	out := mustEval(t, c, op)
	if out.Schema.Attrs[0].Qual != "x" {
		t.Errorf("alias qualifier not applied: %s", out.Schema)
	}
	if out.Card() != 3 {
		t.Errorf("card = %d", out.Card())
	}
}

func TestSelectSimple(t *testing.T) {
	c := figure3DB()
	op := &algebra.Select{
		Child: scan(t, c, "r"),
		Cond:  algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("a"), R: algebra.IntConst(3)},
	}
	out := mustEval(t, c, op)
	want := rel.FromTuples(out.Schema, ints(3, 2))
	if !out.Equal(want) {
		t.Errorf("σ[a=3](R) = %s", out)
	}
}

func TestSelectThreeValuedNullDropped(t *testing.T) {
	c := catalog.New()
	r := rel.FromTuples(schema.New("", "a"), rel.Tuple{types.Null()}, ints(1))
	c.Register("r", r)
	op := &algebra.Select{
		Child: scan(t, c, "r"),
		Cond:  algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("a"), R: algebra.IntConst(1)},
	}
	out := mustEval(t, c, op)
	if out.Card() != 1 {
		t.Errorf("NULL = 1 must not satisfy the selection; got %s", out)
	}
}

func TestProjectBagKeepsMultiplicity(t *testing.T) {
	c := figure3DB()
	// Π_b(R) = {1,1,2} as a bag.
	op := algebra.NewProject(scan(t, c, "r"), algebra.KeepCol("b"))
	out := mustEval(t, c, op)
	if out.Card() != 3 || out.Count(ints(1)) != 2 {
		t.Errorf("ΠB_b(R) = %s", out)
	}
}

func TestProjectDistinct(t *testing.T) {
	c := figure3DB()
	op := &algebra.Project{Child: scan(t, c, "r"), Cols: []algebra.ProjExpr{algebra.KeepCol("b")}, Distinct: true}
	out := mustEval(t, c, op)
	if out.Card() != 2 || out.Count(ints(1)) != 1 {
		t.Errorf("ΠS_b(R) = %s", out)
	}
}

func TestProjectExpressionsAndRename(t *testing.T) {
	c := figure3DB()
	op := algebra.NewProject(scan(t, c, "r"),
		algebra.Col(algebra.Arith{Op: types.OpAdd, L: algebra.Attr("a"), R: algebra.Attr("b")}, "s"),
		algebra.Col(algebra.Attr("a"), "pa"),
	)
	out := mustEval(t, c, op)
	if out.Schema.Attrs[0].Name != "s" || out.Schema.Attrs[1].Name != "pa" {
		t.Fatalf("schema = %s", out.Schema)
	}
	if out.Count(ints(2, 1)) != 1 || out.Count(ints(5, 3)) != 1 {
		t.Errorf("projection values wrong: %s", out)
	}
}

func TestCrossMultiplicities(t *testing.T) {
	c := catalog.New()
	c.Register("l", rel.FromTuples(schema.New("", "a"), ints(1), ints(1)))
	c.Register("r", rel.FromTuples(schema.New("", "b"), ints(7), ints(7), ints(7)))
	op := &algebra.Cross{L: scan(t, c, "l"), R: scan(t, c, "r")}
	out := mustEval(t, c, op)
	if out.Count(ints(1, 7)) != 6 {
		t.Errorf("2×3 multiplicity = %d, want 6", out.Count(ints(1, 7)))
	}
}

func TestJoinAndLeftJoin(t *testing.T) {
	c := figure3DB()
	cond := algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("a"), R: algebra.Attr("c")}
	join := &algebra.Join{L: scan(t, c, "r"), R: scan(t, c, "s"), Cond: cond}
	out := mustEval(t, c, join)
	if out.Card() != 2 {
		t.Errorf("R ⋈ S card = %d: %s", out.Card(), out)
	}
	lj := &algebra.LeftJoin{L: scan(t, c, "r"), R: scan(t, c, "s"), Cond: cond}
	out = mustEval(t, c, lj)
	if out.Card() != 3 {
		t.Fatalf("R ⟕ S card = %d", out.Card())
	}
	// The unmatched left tuple (3,2) is padded with NULLs.
	padded := rel.Tuple{types.NewInt(3), types.NewInt(2), types.Null(), types.Null()}
	if out.Count(padded) != 1 {
		t.Errorf("missing null-padded tuple in %s", out)
	}
}

func TestAggregateGrouped(t *testing.T) {
	c := figure3DB()
	op := &algebra.Aggregate{
		Child: scan(t, c, "r"),
		Group: []algebra.GroupExpr{{E: algebra.Attr("b"), As: "b"}},
		Aggs:  []algebra.AggExpr{{Fn: algebra.AggSum, Arg: algebra.Attr("a"), As: "s"}},
	}
	out := mustEval(t, c, op)
	if out.Card() != 2 || out.Count(ints(1, 3)) != 1 || out.Count(ints(2, 3)) != 1 {
		t.Errorf("α = %s", out)
	}
}

func TestAggregateEmptyInputNoGroups(t *testing.T) {
	c := catalog.New()
	c.Register("e", rel.New(schema.New("", "a")))
	op := &algebra.Aggregate{
		Child: scan(t, c, "e"),
		Aggs: []algebra.AggExpr{
			{Fn: algebra.AggCountStar, As: "n"},
			{Fn: algebra.AggSum, Arg: algebra.Attr("a"), As: "s"},
		},
	}
	out := mustEval(t, c, op)
	if out.Card() != 1 {
		t.Fatalf("aggregate over empty input must yield one tuple, got %s", out)
	}
	want := rel.Tuple{types.NewInt(0), types.Null()}
	if out.Count(want) != 1 {
		t.Errorf("count/sum over empty = %s", out)
	}
}

func TestAggregateNullHandling(t *testing.T) {
	c := catalog.New()
	r := rel.FromTuples(schema.New("", "a"),
		ints(2), rel.Tuple{types.Null()}, ints(4))
	c.Register("r", r)
	op := &algebra.Aggregate{
		Child: scan(t, c, "r"),
		Aggs: []algebra.AggExpr{
			{Fn: algebra.AggCountStar, As: "all"},
			{Fn: algebra.AggCount, Arg: algebra.Attr("a"), As: "nonnull"},
			{Fn: algebra.AggAvg, Arg: algebra.Attr("a"), As: "avg"},
			{Fn: algebra.AggMin, Arg: algebra.Attr("a"), As: "mn"},
			{Fn: algebra.AggMax, Arg: algebra.Attr("a"), As: "mx"},
		},
	}
	out := mustEval(t, c, op)
	want := rel.Tuple{types.NewInt(3), types.NewInt(2), types.NewFloat(3), types.NewInt(2), types.NewInt(4)}
	if out.Count(want) != 1 {
		t.Errorf("aggregate null handling = %s", out)
	}
}

func TestSetOps(t *testing.T) {
	c := catalog.New()
	s := schema.New("", "a")
	c.Register("l", rel.FromTuples(s, ints(1), ints(1), ints(2)))
	c.Register("r", rel.FromTuples(s, ints(1), ints(3)))
	cases := []struct {
		kind algebra.SetOpKind
		bag  bool
		want *rel.Relation
	}{
		{algebra.Union, true, rel.FromTuples(s, ints(1), ints(1), ints(1), ints(2), ints(3))},
		{algebra.Union, false, rel.FromTuples(s, ints(1), ints(2), ints(3))},
		{algebra.Intersect, true, rel.FromTuples(s, ints(1))},
		{algebra.Intersect, false, rel.FromTuples(s, ints(1))},
		{algebra.Except, true, rel.FromTuples(s, ints(1), ints(2))},
		{algebra.Except, false, rel.FromTuples(s, ints(2))},
	}
	for _, tc := range cases {
		op := &algebra.SetOp{Kind: tc.kind, Bag: tc.bag, L: scanT(t, c, "l"), R: scanT(t, c, "r")}
		out := mustEval(t, c, op)
		if !out.Equal(tc.want.WithSchema(out.Schema)) {
			t.Errorf("%v bag=%v = %s, want %s", tc.kind, tc.bag, out, tc.want)
		}
	}
}

func scanT(t *testing.T, c *catalog.Catalog, name string) *algebra.Scan {
	return scan(t, c, name)
}

func TestOrderLimit(t *testing.T) {
	c := figure3DB()
	op := &algebra.Limit{
		Child: &algebra.Order{
			Child: scan(t, c, "r"),
			Keys:  []algebra.SortKey{{E: algebra.Attr("a"), Desc: true}},
		},
		N: 2,
	}
	out := mustEval(t, c, op)
	if out.Card() != 2 || out.Count(ints(3, 2)) != 1 || out.Count(ints(2, 1)) != 1 {
		t.Errorf("limit 2 order by a desc = %s", out)
	}
}

// --- sublinks ---

func anyEq(test algebra.Expr, q algebra.Op) algebra.Sublink {
	return algebra.Sublink{Kind: algebra.AnySublink, Op: types.CmpEq, Test: test, Query: q}
}

func TestAnySublinkUncorrelated(t *testing.T) {
	c := figure3DB()
	// q1 of Figure 3: σ_{a = ANY(Πc(S))}(R) = {(1,1),(2,1)}.
	sub := algebra.NewProject(scan(t, c, "s"), algebra.KeepCol("c"))
	op := &algebra.Select{Child: scan(t, c, "r"), Cond: anyEq(algebra.Attr("a"), sub)}
	out := mustEval(t, c, op)
	want := rel.FromTuples(out.Schema, ints(1, 1), ints(2, 1))
	if !out.Equal(want) {
		t.Errorf("q1 = %s", out)
	}
}

func TestAllSublinkUncorrelated(t *testing.T) {
	c := figure3DB()
	// q2 of Figure 3: σ_{c > ALL(Πa(R))}(S) = {(4,5)}.
	sub := algebra.NewProject(scan(t, c, "r"), algebra.KeepCol("a"))
	op := &algebra.Select{
		Child: scan(t, c, "s"),
		Cond:  algebra.Sublink{Kind: algebra.AllSublink, Op: types.CmpGt, Test: algebra.Attr("c"), Query: sub},
	}
	out := mustEval(t, c, op)
	want := rel.FromTuples(out.Schema, ints(4, 5))
	if !out.Equal(want) {
		t.Errorf("q2 = %s", out)
	}
}

func TestExistsSublinkCorrelated(t *testing.T) {
	c := figure3DB()
	// σ_{EXISTS(σ_{c=a}(S))}(R): keeps R tuples whose a appears in S.c.
	sub := &algebra.Select{
		Child: scan(t, c, "s"),
		Cond:  algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("c"), R: algebra.Attr("a")},
	}
	op := &algebra.Select{
		Child: scan(t, c, "r"),
		Cond:  algebra.Sublink{Kind: algebra.ExistsSublink, Query: sub},
	}
	out := mustEval(t, c, op)
	want := rel.FromTuples(out.Schema, ints(1, 1), ints(2, 1))
	if !out.Equal(want) {
		t.Errorf("correlated EXISTS = %s", out)
	}
}

func TestScalarSublink(t *testing.T) {
	c := figure3DB()
	// σ_{a = (Π_max)}: scalar sublink computing max(c) of S = 4; no R tuple
	// matches, then with min(c)=1 tuple (1,1) matches.
	maxQ := &algebra.Aggregate{
		Child: scan(t, c, "s"),
		Aggs:  []algebra.AggExpr{{Fn: algebra.AggMin, Arg: algebra.Attr("c"), As: "m"}},
	}
	op := &algebra.Select{
		Child: scan(t, c, "r"),
		Cond: algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("a"),
			R: algebra.Sublink{Kind: algebra.ScalarSublink, Query: maxQ}},
	}
	out := mustEval(t, c, op)
	want := rel.FromTuples(out.Schema, ints(1, 1))
	if !out.Equal(want) {
		t.Errorf("scalar sublink = %s", out)
	}
}

func TestScalarSublinkEmptyIsNull(t *testing.T) {
	c := figure3DB()
	empty := &algebra.Select{Child: scan(t, c, "s"), Cond: algebra.BoolConst(false)}
	sub := algebra.NewProject(empty, algebra.KeepCol("c"))
	op := algebra.NewProject(scan(t, c, "r"),
		algebra.Col(algebra.Sublink{Kind: algebra.ScalarSublink, Query: sub}, "v"))
	out := mustEval(t, c, op)
	if out.Count(rel.Tuple{types.Null()}) != 3 {
		t.Errorf("empty scalar sublink should be NULL: %s", out)
	}
}

func TestScalarSublinkMultiRowErrors(t *testing.T) {
	c := figure3DB()
	sub := algebra.NewProject(scan(t, c, "s"), algebra.KeepCol("c"))
	op := &algebra.Select{
		Child: scan(t, c, "r"),
		Cond: algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("a"),
			R: algebra.Sublink{Kind: algebra.ScalarSublink, Query: sub}},
	}
	if _, err := New(c).Eval(op); err == nil {
		t.Fatal("scalar sublink over 3 tuples should error")
	}
}

func TestAnySublinkEmptyIsFalseAllIsTrue(t *testing.T) {
	c := figure3DB()
	empty := &algebra.Select{Child: scan(t, c, "s"), Cond: algebra.BoolConst(false)}
	sub := algebra.NewProject(empty, algebra.KeepCol("c"))
	anyOp := &algebra.Select{Child: scan(t, c, "r"), Cond: anyEq(algebra.Attr("a"), sub)}
	if out := mustEval(t, c, anyOp); !out.Empty() {
		t.Errorf("ANY over empty should keep nothing: %s", out)
	}
	allOp := &algebra.Select{
		Child: scan(t, c, "r"),
		Cond:  algebra.Sublink{Kind: algebra.AllSublink, Op: types.CmpEq, Test: algebra.Attr("a"), Query: sub},
	}
	if out := mustEval(t, c, allOp); out.Card() != 3 {
		t.Errorf("ALL over empty should keep everything: %s", out)
	}
}

func TestAnySublinkUnknownSemantics(t *testing.T) {
	// a = ANY over {NULL, 2}: for a=2 → True; for a=9 → Unknown (NULL
	// comparison) so the tuple is dropped but not an error.
	c := catalog.New()
	c.Register("r", rel.FromTuples(schema.New("", "a"), ints(2), ints(9)))
	c.Register("s", rel.FromTuples(schema.New("", "c"), rel.Tuple{types.Null()}, ints(2)))
	sub := algebra.NewProject(scan(t, c, "s"), algebra.KeepCol("c"))
	op := &algebra.Select{Child: scan(t, c, "r"), Cond: anyEq(algebra.Attr("a"), sub)}
	out := mustEval(t, c, op)
	if out.Card() != 1 || out.Count(ints(2)) != 1 {
		t.Errorf("3VL ANY = %s", out)
	}
}

func TestNestedCorrelatedSublinks(t *testing.T) {
	// The nesting example of §2.2:
	//   σ_{a = ANY Tsub}(R), Tsub = σ_{c=b ∧ c = ANY(σ_{d=c}(T))}(S)
	// with T(d). The inner sublink references c from the containing sublink.
	c := figure3DB()
	c.Register("t", rel.FromTuples(schema.New("", "d"), ints(1), ints(2)))
	inner := &algebra.Select{
		Child: scan(t, c, "t"),
		Cond:  algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("d"), R: algebra.Attr("c")},
	}
	innerLink := algebra.Sublink{Kind: algebra.AnySublink, Op: types.CmpEq, Test: algebra.Attr("c"),
		Query: algebra.NewProject(inner, algebra.KeepCol("d"))}
	tsub := algebra.NewProject(&algebra.Select{
		Child: scan(t, c, "s"),
		Cond: algebra.And{
			L: algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("c"), R: algebra.Attr("b")},
			R: innerLink,
		},
	}, algebra.KeepCol("c"))
	op := &algebra.Select{Child: scan(t, c, "r"), Cond: anyEq(algebra.Attr("a"), tsub)}
	out := mustEval(t, c, op)
	// For (1,1): Tsub = σ_{c=1 ∧ c=ANY(T where d=c)}(S) = {(1,3)} → a=1=c ✓.
	// For (2,1): c=1 but a=2 ✗. For (3,2): c=2, 2∈T ✓, a=3≠2 ✗.
	want := rel.FromTuples(out.Schema, ints(1, 1))
	if !out.Equal(want) {
		t.Errorf("nested correlated sublink = %s", out)
	}
}

func TestSublinkInProjection(t *testing.T) {
	c := figure3DB()
	// Π_{a, EXISTS(σ_{c=3}(S))}(R) — Figure 1's projection sublink example.
	sub := &algebra.Select{
		Child: scan(t, c, "s"),
		Cond:  algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("c"), R: algebra.IntConst(3)},
	}
	op := algebra.NewProject(scan(t, c, "r"),
		algebra.KeepCol("a"),
		algebra.Col(algebra.Sublink{Kind: algebra.ExistsSublink, Query: sub}, "e"),
	)
	out := mustEval(t, c, op)
	want := rel.FromTuples(out.Schema,
		rel.Tuple{types.NewInt(1), types.NewBool(false)},
		rel.Tuple{types.NewInt(2), types.NewBool(false)},
		rel.Tuple{types.NewInt(3), types.NewBool(false)},
	)
	if !out.Equal(want) {
		t.Errorf("projection sublink = %s", out)
	}
}

func TestSublinkInJoinCondition(t *testing.T) {
	c := figure3DB()
	// R ⋈_{a < ALL(T)} S with T = Π_c(σ_{c>3}(S)) = {4}: join pairs where a < 4.
	tq := algebra.NewProject(&algebra.Select{
		Child: algebra.NewScan("s", "s2", mustSchema(t, c, "s")),
		Cond:  algebra.Cmp{Op: types.CmpGt, L: algebra.QAttr("s2", "c"), R: algebra.IntConst(3)},
	}, algebra.Col(algebra.QAttr("s2", "c"), "c"))
	op := &algebra.Join{
		L: scan(t, c, "r"), R: scan(t, c, "s"),
		Cond: algebra.Sublink{Kind: algebra.AllSublink, Op: types.CmpLt, Test: algebra.Attr("a"), Query: tq},
	}
	out := mustEval(t, c, op)
	if out.Card() != 9 {
		t.Errorf("join sublink card = %d, want 9 (all a<4)", out.Card())
	}
}

func mustSchema(t *testing.T, c *catalog.Catalog, name string) schema.Schema {
	t.Helper()
	s, err := c.Schema(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFreeVarsAnalysis(t *testing.T) {
	c := figure3DB()
	correlated := &algebra.Select{
		Child: scan(t, c, "s"),
		Cond:  algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("c"), R: algebra.Attr("b")},
	}
	if !algebra.IsCorrelated(correlated) {
		t.Error("σ_{c=b}(S) must be correlated (free b)")
	}
	uncorrelated := &algebra.Select{
		Child: scan(t, c, "s"),
		Cond:  algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("c"), R: algebra.Attr("d")},
	}
	if algebra.IsCorrelated(uncorrelated) {
		t.Error("σ_{c=d}(S) must be uncorrelated")
	}
	// A sublink binding its own correlation is uncorrelated from outside.
	outer := &algebra.Select{
		Child: scan(t, c, "r"),
		Cond:  algebra.Sublink{Kind: algebra.ExistsSublink, Query: correlated},
	}
	if algebra.IsCorrelated(outer) {
		t.Error("outer query binds b; plan must have no free vars")
	}
}

func TestUnknownAttributeError(t *testing.T) {
	c := figure3DB()
	op := &algebra.Select{Child: scan(t, c, "r"), Cond: algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("zz"), R: algebra.IntConst(1)}}
	if _, err := New(c).Eval(op); err == nil {
		t.Fatal("unknown attribute should error")
	}
}

func TestContextCancellation(t *testing.T) {
	c := figure3DB()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Build a plan big enough to hit a tick: cross product of r with itself
	// several times.
	var op algebra.Op = scan(t, c, "r")
	for i := 0; i < 6; i++ {
		op = &algebra.Cross{L: op, R: algebra.NewScan("r", string(rune('a'+i)), mustSchema(t, c, "r"))}
	}
	_, err := New(c).WithContext(ctx).Eval(op)
	if err == nil || !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestUncorrelatedSublinkMemoized(t *testing.T) {
	// A counting DB shim verifies the sublink base relation is fetched only
	// once despite 3 outer tuples.
	c := figure3DB()
	cdb := &countingDB{DB: c}
	sub := algebra.NewProject(scan(t, c, "s"), algebra.KeepCol("c"))
	op := &algebra.Select{Child: scan(t, c, "r"), Cond: anyEq(algebra.Attr("a"), sub)}
	if _, err := New(cdb).Eval(op); err != nil {
		t.Fatal(err)
	}
	if cdb.counts["s"] != 1 {
		t.Errorf("uncorrelated sublink evaluated %d times, want 1 (memoized)", cdb.counts["s"])
	}
}

func TestCorrelatedSublinkMemoizedPerBinding(t *testing.T) {
	// R's outer tuples carry b = 1, 1, 2 — three bindings, two distinct
	// parameter values. The per-binding memo evaluates the correlated
	// sublink once per distinct value; DisableSublinkMemo restores the
	// PostgreSQL SubPlan behaviour of once per outer tuple on the
	// materializing reference only — the streaming executor ignores it.
	build := func() (*countingDB, algebra.Op) {
		c := figure3DB()
		cdb := &countingDB{DB: c}
		sub := algebra.NewProject(&algebra.Select{
			Child: scan(t, c, "s"),
			Cond:  algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("c"), R: algebra.Attr("b")},
		}, algebra.KeepCol("c"))
		return cdb, &algebra.Select{Child: scan(t, c, "r"), Cond: anyEq(algebra.Attr("a"), sub)}
	}

	for _, c := range []struct {
		name                string
		materialize, noMemo bool
		want                int
	}{
		{"streaming", false, false, 2},
		{"streaming, DisableSublinkMemo ignored", false, true, 2},
		{"reference", true, false, 2},
		{"reference, DisableSublinkMemo", true, true, 3},
	} {
		cdb, op := build()
		ev := New(cdb)
		ev.DisableStreaming = c.materialize
		ev.DisableSublinkMemo = c.noMemo
		if _, err := ev.Eval(op); err != nil {
			t.Fatal(err)
		}
		if cdb.counts["s"] != c.want {
			t.Errorf("%s: correlated sublink evaluated %d times, want %d", c.name, cdb.counts["s"], c.want)
		}
	}
}

type countingDB struct {
	DB
	counts map[string]int
}

func (c *countingDB) Relation(name string) (*rel.Relation, error) {
	if c.counts == nil {
		c.counts = map[string]int{}
	}
	c.counts[name]++
	return c.DB.Relation(name)
}
