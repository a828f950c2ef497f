package rewrite

import (
	"errors"
	"strings"
	"testing"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/types"
)

// unnxShapes enumerates the sublink shapes the extended unnesting strategy
// claims to cover; each is compared against the Gen strategy on randomized
// databases.
func unnxShapes() []struct {
	name string
	mk   func(t *testing.T, c *catalog.Catalog) algebra.Op
} {
	subC := func(t *testing.T, c *catalog.Catalog) algebra.Op {
		return algebra.NewProject(scan(t, c, "s"), algebra.KeepCol("c"))
	}
	return []struct {
		name string
		mk   func(t *testing.T, c *catalog.Catalog) algebra.Op
	}{
		{"X2-ltAny", func(t *testing.T, c *catalog.Catalog) algebra.Op {
			return &algebra.Select{Child: scan(t, c, "r"),
				Cond: algebra.Sublink{Kind: algebra.AnySublink, Op: types.CmpLt, Test: algebra.Attr("a"), Query: subC(t, c)}}
		}},
		{"X3-notLeAll", func(t *testing.T, c *catalog.Catalog) algebra.Op {
			return &algebra.Select{Child: scan(t, c, "r"),
				Cond: algebra.Not{E: algebra.Sublink{Kind: algebra.AllSublink, Op: types.CmpLe, Test: algebra.Attr("a"), Query: subC(t, c)}}}
		}},
		{"X4-geAll", func(t *testing.T, c *catalog.Catalog) algebra.Op {
			return &algebra.Select{Child: scan(t, c, "r"),
				Cond: algebra.Sublink{Kind: algebra.AllSublink, Op: types.CmpGe, Test: algebra.Attr("a"), Query: subC(t, c)}}
		}},
		{"X4-notExists", func(t *testing.T, c *catalog.Catalog) algebra.Op {
			sub := &algebra.Select{Child: scan(t, c, "s"),
				Cond: algebra.Cmp{Op: types.CmpGt, L: algebra.Attr("c"), R: algebra.IntConst(3)}}
			return &algebra.Select{Child: scan(t, c, "r"),
				Cond: algebra.Not{E: algebra.Sublink{Kind: algebra.ExistsSublink, Query: sub}}}
		}},
		{"X4-notEqAny", func(t *testing.T, c *catalog.Catalog) algebra.Op {
			return &algebra.Select{Child: scan(t, c, "r"),
				Cond: algebra.Not{E: algebra.Sublink{Kind: algebra.AnySublink, Op: types.CmpEq, Test: algebra.Attr("a"), Query: subC(t, c)}}}
		}},
		{"X4-scalarCmp", func(t *testing.T, c *catalog.Catalog) algebra.Op {
			minQ := &algebra.Aggregate{Child: scan(t, c, "s"),
				Aggs: []algebra.AggExpr{{Fn: algebra.AggMin, Arg: algebra.Attr("c"), As: "m"}}}
			return &algebra.Select{Child: scan(t, c, "r"),
				Cond: algebra.Cmp{Op: types.CmpGt, L: algebra.Attr("a"),
					R: algebra.Sublink{Kind: algebra.ScalarSublink, Query: minQ}}}
		}},
		{"mixed-conjunction", func(t *testing.T, c *catalog.Catalog) algebra.Op {
			return &algebra.Select{Child: scan(t, c, "r"),
				Cond: algebra.And{
					L: algebra.Cmp{Op: types.CmpGe, L: algebra.Attr("b"), R: algebra.IntConst(1)},
					R: algebra.Sublink{Kind: algebra.AnySublink, Op: types.CmpEq, Test: algebra.Attr("a"), Query: subC(t, c)},
				}}
		}},
	}
}

// TestUnnXAgreesWithGen is the correctness backbone of the extension: on
// every covered shape and several random databases, UnnX and Gen must
// compute identical provenance bags.
func TestUnnXAgreesWithGen(t *testing.T) {
	for _, shape := range unnxShapes() {
		for seed := int64(1); seed <= 5; seed++ {
			c := randomDB(seed)
			q := shape.mk(t, c)
			ref, err := Rewrite(q, Gen)
			if err != nil {
				t.Fatalf("%s/seed%d Gen: %v", shape.name, seed, err)
			}
			refOut := run(t, c, ref.Plan)
			res, err := Rewrite(q, UnnX)
			if err != nil {
				t.Fatalf("%s/seed%d UnnX: %v", shape.name, seed, err)
			}
			got := run(t, c, res.Plan)
			if !got.Equal(refOut.WithSchema(got.Schema)) {
				t.Errorf("%s/seed%d: UnnX disagrees with Gen\nGen:  %s\nUnnX: %s\nplan:\n%s",
					shape.name, seed, refOut, got, algebra.Indent(res.Plan))
			}
		}
	}
}

// correlatedExists builds σ_{EXISTS(Π_c(σ_{c = outer.b [∧ extra]}(s)))}(r)
// — the canonical equality-correlated EXISTS pattern rule X5 decorrelates.
func correlatedExists(t *testing.T, c *catalog.Catalog, extra algebra.Expr) algebra.Op {
	t.Helper()
	cond := algebra.Expr(algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("c"), R: algebra.Attr("b")})
	if extra != nil {
		cond = algebra.And{L: cond, R: extra}
	}
	sub := algebra.NewProject(
		&algebra.Select{Child: scan(t, c, "s"), Cond: cond},
		algebra.KeepCol("c"),
	)
	return &algebra.Select{
		Child: scan(t, c, "r"),
		Cond:  algebra.Sublink{Kind: algebra.ExistsSublink, Query: sub},
	}
}

// TestUnnXDecorrelatesExists: rule X5 must rewrite the equality-correlated
// EXISTS pattern and agree with Gen on randomized databases.
func TestUnnXDecorrelatesExists(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		c := randomDB(seed)
		for _, extra := range []algebra.Expr{
			nil,
			algebra.Cmp{Op: types.CmpGt, L: algebra.Attr("d"), R: algebra.IntConst(1)},
		} {
			q := correlatedExists(t, c, extra)
			ref, err := Rewrite(q, Gen)
			if err != nil {
				t.Fatalf("seed %d Gen: %v", seed, err)
			}
			res, err := Rewrite(q, UnnX)
			if err != nil {
				t.Fatalf("seed %d UnnX should decorrelate correlated EXISTS: %v", seed, err)
			}
			refOut := run(t, c, ref.Plan)
			got := run(t, c, res.Plan)
			if !got.Equal(refOut.WithSchema(got.Schema)) {
				t.Errorf("seed %d: X5 disagrees with Gen\nGen:  %s\nUnnX: %s\nplan:\n%s",
					seed, refOut, got, algebra.Indent(res.Plan))
			}
		}
	}
}

// TestUnnXDecorrelationRefusalsArePrecise: genuinely inapplicable
// correlated sublinks must name the exact obstacle (Advise surfaces these
// reasons verbatim).
func TestUnnXDecorrelationRefusalsArePrecise(t *testing.T) {
	c := figure3DB()
	// Inequality correlation: no equality conjunct to lift.
	ineq := &algebra.Select{
		Child: scan(t, c, "r"),
		Cond: algebra.Sublink{Kind: algebra.ExistsSublink,
			Query: &algebra.Select{Child: scan(t, c, "s"),
				Cond: algebra.Cmp{Op: types.CmpGt, L: algebra.Attr("c"), R: algebra.Attr("b")}}},
	}
	_, err := Rewrite(ineq, UnnX)
	if !errors.Is(err, ErrNotApplicable) || !strings.Contains(err.Error(), "no top-level equality conjunct") {
		t.Errorf("inequality correlation: %v", err)
	}
	// Correlated ANY: X5 covers EXISTS only.
	anyCorr := &algebra.Select{
		Child: scan(t, c, "r"),
		Cond: algebra.Sublink{Kind: algebra.AnySublink, Op: types.CmpEq, Test: algebra.Attr("a"),
			Query: &algebra.Select{Child: scan(t, c, "s"),
				Cond: algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("c"), R: algebra.Attr("b")}}},
	}
	_, err = Rewrite(anyCorr, UnnX)
	if !errors.Is(err, ErrNotApplicable) || !strings.Contains(err.Error(), "decorrelates only EXISTS") {
		t.Errorf("correlated ANY: %v", err)
	}
	// Correlation hidden under a disjunction inside the sublink: lifting
	// must leave it alone and report the residual free variables.
	buried := &algebra.Select{
		Child: scan(t, c, "r"),
		Cond: algebra.Sublink{Kind: algebra.ExistsSublink,
			Query: &algebra.Select{Child: scan(t, c, "s"),
				Cond: algebra.Or{
					L: algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("c"), R: algebra.Attr("b")},
					R: algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("d"), R: algebra.IntConst(3)},
				}}},
	}
	_, err = Rewrite(buried, UnnX)
	if !errors.Is(err, ErrNotApplicable) || !strings.Contains(err.Error(), "equality conjunct") {
		t.Errorf("buried correlation: %v", err)
	}
}

func TestUnnXNotApplicableCases(t *testing.T) {
	c := figure3DB()
	// Correlated sublink.
	correlated := &algebra.Select{
		Child: scan(t, c, "r"),
		Cond: algebra.Sublink{Kind: algebra.AnySublink, Op: types.CmpEq, Test: algebra.Attr("a"),
			Query: &algebra.Select{Child: scan(t, c, "s"),
				Cond: algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("c"), R: algebra.Attr("b")}}},
	}
	if _, err := Rewrite(correlated, UnnX); !errors.Is(err, ErrNotApplicable) {
		t.Errorf("correlated: %v", err)
	}
	// Quantified sublink buried in a disjunction.
	buried := &algebra.Select{
		Child: scan(t, c, "r"),
		Cond: algebra.Or{
			L: algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("a"), R: algebra.IntConst(1)},
			R: algebra.Sublink{Kind: algebra.AnySublink, Op: types.CmpEq, Test: algebra.Attr("a"),
				Query: algebra.NewProject(scan(t, c, "s"), algebra.KeepCol("c"))},
		},
	}
	if _, err := Rewrite(buried, UnnX); !errors.Is(err, ErrNotApplicable) {
		t.Errorf("buried quantifier: %v", err)
	}
	// Projection sublinks.
	proj := algebra.NewProject(scan(t, c, "r"),
		algebra.Col(algebra.Sublink{Kind: algebra.ExistsSublink, Query: scan(t, c, "s")}, "e"))
	if _, err := Rewrite(proj, UnnX); !errors.Is(err, ErrNotApplicable) {
		t.Errorf("projection: %v", err)
	}
	// EXISTS whose correlation also sits outside the equality conjuncts:
	// c = a lifts, d > b leaves b free.
	residual := &algebra.Select{
		Child: scan(t, c, "r"),
		Cond: algebra.Sublink{Kind: algebra.ExistsSublink,
			Query: &algebra.Select{Child: scan(t, c, "s"), Cond: algebra.And{
				L: algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("c"), R: algebra.Attr("a")},
				R: algebra.Cmp{Op: types.CmpGt, L: algebra.Attr("d"), R: algebra.Attr("b")}}}},
	}
	if _, err := Rewrite(residual, UnnX); !errors.Is(err, ErrNotApplicable) || !strings.Contains(err.Error(), "still free after lifting: [b]") {
		t.Errorf("correlation outside the equality conjuncts: %v", err)
	}
}

// TestUnnXCoversUnn: everything Unn handles, UnnX handles identically.
func TestUnnXCoversUnn(t *testing.T) {
	c := figure3DB()
	q := figure3Q1(t, c)
	unnRes, err := Rewrite(q, Unn)
	if err != nil {
		t.Fatal(err)
	}
	xRes, err := Rewrite(q, UnnX)
	if err != nil {
		t.Fatal(err)
	}
	a := run(t, c, unnRes.Plan)
	b := run(t, c, xRes.Plan)
	if !a.Equal(b.WithSchema(a.Schema)) {
		t.Errorf("UnnX differs from Unn on q1:\n%s\nvs\n%s", a, b)
	}
}

func TestUnnXApplicablePredicate(t *testing.T) {
	c := figure3DB()
	q2Cond := algebra.Sublink{Kind: algebra.AllSublink, Op: types.CmpLt, Test: algebra.Attr("a"),
		Query: algebra.NewProject(scan(t, c, "s"), algebra.KeepCol("c"))}
	if !unnxApplicable(q2Cond) {
		t.Error("ALL sublink should be UnnX-applicable")
	}
	if unnApplicable(q2Cond) {
		t.Error("ALL sublink must not be Unn-applicable (paper fidelity)")
	}
}
