package provenance

import (
	"errors"
	"fmt"
	"testing"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/eval"
	"perm/internal/rel"
	"perm/internal/rewrite"
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

func figure3DB() *catalog.Catalog {
	c := catalog.New()
	c.Register("r", rel.FromTuples(schema.New("", "a", "b"), ints(1, 1), ints(2, 1), ints(3, 2)))
	c.Register("s", rel.FromTuples(schema.New("", "c", "d"), ints(1, 3), ints(2, 4), ints(4, 5)))
	return c
}

func scan(t *testing.T, c *catalog.Catalog, name string) *algebra.Scan {
	t.Helper()
	sch, err := c.Schema(name)
	if err != nil {
		t.Fatal(err)
	}
	return algebra.NewScan(name, "", sch)
}

// findProv returns the provenance entry whose result tuple equals want.
func findProv(t *testing.T, ps []TupleProvenance, want rel.Tuple) TupleProvenance {
	t.Helper()
	for _, p := range ps {
		if p.Result.Key() == want.Key() {
			return p
		}
	}
	t.Fatalf("no provenance entry for %s (have %d entries)", want, len(ps))
	return TupleProvenance{}
}

func subset(t *testing.T, sch schema.Schema, tuples ...rel.Tuple) *rel.Relation {
	t.Helper()
	return rel.FromTuples(sch, tuples...)
}

// TestFigure3OracleDefinition1 reproduces the Figure 3 provenance table
// exactly as printed (the paper computes it under Definition 1).
func TestFigure3OracleDefinition1(t *testing.T) {
	c := figure3DB()
	o := NewOracle(c, Definition1)
	sSchema := schema.New("", "c").WithQual("")

	// q1 = σ_{a = ANY(Πc(S))}(R).
	q1 := &algebra.Select{
		Child: scan(t, c, "r"),
		Cond: algebra.Sublink{Kind: algebra.AnySublink, Op: types.CmpEq, Test: algebra.Attr("a"),
			Query: algebra.NewProject(scan(t, c, "s"), algebra.KeepCol("c"))},
	}
	ps, err := o.SelectionProvenance(q1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Fatalf("q1 result tuples = %d", len(ps))
	}
	p := findProv(t, ps, ints(1, 1))
	if !p.Sources["sub0"].Equal(subset(t, sSchema, ints(1))) {
		t.Errorf("q1 (1,1) sublink provenance = %s, want {(1)}", p.Sources["sub0"])
	}
	p = findProv(t, ps, ints(2, 1))
	if !p.Sources["sub0"].Equal(subset(t, sSchema, ints(2))) {
		t.Errorf("q1 (2,1) sublink provenance = %s, want {(2)}", p.Sources["sub0"])
	}

	// q2 = σ_{c > ALL(Πa(R))}(S): (4,5) with all of R.
	q2 := &algebra.Select{
		Child: scan(t, c, "s"),
		Cond: algebra.Sublink{Kind: algebra.AllSublink, Op: types.CmpGt, Test: algebra.Attr("c"),
			Query: algebra.NewProject(scan(t, c, "r"), algebra.KeepCol("a"))},
	}
	ps, err = o.SelectionProvenance(q2)
	if err != nil {
		t.Fatal(err)
	}
	p = findProv(t, ps, ints(4, 5))
	rSchema := schema.New("", "a")
	if !p.Sources["sub0"].Equal(subset(t, rSchema, ints(1), ints(2), ints(3))) {
		t.Errorf("q2 (4,5) sublink provenance = %s, want all of Πa(R)", p.Sources["sub0"])
	}

	// q3 = σ_{(a=3) ∨ ¬(a < ALL(σ_{c≠1}(Πc(S))))}(R). Figure 3 prints
	// (2,1) ← S(2,4) and (3,2) ← S{(2,4),(4,5)} (ind role under Def 1).
	q3 := q3Query(t, c)
	ps, err = o.SelectionProvenance(q3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Fatalf("q3 result tuples = %d", len(ps))
	}
	cOnly := schema.New("", "c")
	p = findProv(t, ps, ints(2, 1))
	if !p.Sources["sub0"].Equal(subset(t, cOnly, ints(2))) {
		t.Errorf("q3 (2,1) = %s, want {(2)}", p.Sources["sub0"])
	}
	p = findProv(t, ps, ints(3, 2))
	if !p.Sources["sub0"].Equal(subset(t, cOnly, ints(2), ints(4))) {
		t.Errorf("q3 (3,2) under Def 1 = %s, want {(2),(4)} (ind role)", p.Sources["sub0"])
	}
}

// TestFigure3Q3Definition2 shows the Definition 2 refinement of §2.5: the
// ind role disappears and (3,2)'s sublink provenance shrinks to Tsub^false.
func TestFigure3Q3Definition2(t *testing.T) {
	c := figure3DB()
	o := NewOracle(c, Definition2)
	ps, err := o.SelectionProvenance(q3Query(t, c))
	if err != nil {
		t.Fatal(err)
	}
	p := findProv(t, ps, ints(3, 2))
	if !p.Sources["sub0"].Equal(subset(t, schema.New("", "c"), ints(2))) {
		t.Errorf("q3 (3,2) under Def 2 = %s, want {(2)}", p.Sources["sub0"])
	}
}

func q3Query(t *testing.T, c *catalog.Catalog) *algebra.Select {
	sub := algebra.NewProject(
		&algebra.Select{
			Child: scan(t, c, "s"),
			Cond:  algebra.Cmp{Op: types.CmpNe, L: algebra.Attr("c"), R: algebra.IntConst(1)},
		},
		algebra.KeepCol("c"),
	)
	return &algebra.Select{
		Child: scan(t, c, "r"),
		Cond: algebra.Or{
			L: algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("a"), R: algebra.IntConst(3)},
			R: algebra.Not{E: algebra.Sublink{Kind: algebra.AllSublink, Op: types.CmpLt, Test: algebra.Attr("a"), Query: sub}},
		},
	}
}

// section25DB and section25Query build the multi-sublink ambiguity example
// of §2.5: U={(5)}, R={1..100}, S={(1),(5)}, C = (a = ANY R) ∨ (a > ALL S).
func section25DB() *catalog.Catalog {
	c := catalog.New()
	rt := make([]rel.Tuple, 100)
	for i := range rt {
		rt[i] = ints(int64(i + 1))
	}
	c.Register("r", rel.FromTuples(schema.New("", "b"), rt...))
	c.Register("s", rel.FromTuples(schema.New("", "c"), ints(1), ints(5)))
	c.Register("u", rel.FromTuples(schema.New("", "a"), ints(5)))
	return c
}

func section25Query(t *testing.T, c *catalog.Catalog) *algebra.Select {
	return &algebra.Select{
		Child: scan(t, c, "u"),
		Cond: algebra.Or{
			L: algebra.Sublink{Kind: algebra.AnySublink, Op: types.CmpEq, Test: algebra.Attr("a"), Query: scan(t, c, "r")},
			R: algebra.Sublink{Kind: algebra.AllSublink, Op: types.CmpGt, Test: algebra.Attr("a"), Query: scan(t, c, "s")},
		},
	}
}

// TestMultiSublinkAmbiguity demonstrates the §2.5 problem: under
// Definition 1 both of the paper's incomparable "solutions" satisfy
// conditions 1, 2 and maximality (the definition is not well-defined),
// while under Definition 2 exactly the canonical solution passes.
func TestMultiSublinkAmbiguity(t *testing.T) {
	c := section25DB()
	q := section25Query(t, c)
	rSch := schema.New("", "b")
	sSch := schema.New("", "c")

	mk := func(rStar, sStar *rel.Relation) TupleProvenance {
		return TupleProvenance{
			Result:  ints(5),
			Witness: ints(5),
			Sources: map[string]*rel.Relation{
				"u":    rel.FromTuples(schema.New("", "a"), ints(5)),
				"sub0": rStar,
				"sub1": sStar,
			},
		}
	}
	// Paper's solution 1: R* = {5}, S* = {1,5}.
	sol1 := mk(subset(t, rSch, ints(5)), subset(t, sSch, ints(1), ints(5)))
	// Paper's solution 2: R* = {1..100}, S* = {1}.
	all := rel.New(rSch)
	for i := 1; i <= 100; i++ {
		all.Add(ints(int64(i)), 1)
	}
	sol2 := mk(all, subset(t, sSch, ints(1)))

	def1 := NewChecker(c, Definition1)
	if err := def1.CheckSelection(q, sol1); err != nil {
		t.Errorf("Def 1 should accept solution 1: %v", err)
	}
	if err := def1.CheckSelection(q, sol2); err != nil {
		t.Errorf("Def 1 should accept solution 2: %v", err)
	}

	// Definition 2's unique provenance: R* = {5} (reqtrue → R^true),
	// S* = {5} (sublink false → S^false = {t' | ¬(5 > t')} = {5}).
	def2 := NewChecker(c, Definition2)
	canonical := mk(subset(t, rSch, ints(5)), subset(t, sSch, ints(5)))
	if err := def2.CheckSelection(q, canonical); err != nil {
		t.Errorf("Def 2 should accept the canonical solution: %v", err)
	}
	if err := def2.CheckSelection(q, sol1); err == nil {
		t.Error("Def 2 should reject solution 1 (S* produces a different sublink value)")
	}
	if err := def2.CheckSelection(q, sol2); err == nil {
		t.Error("Def 2 should reject solution 2")
	}

	// The oracle must compute exactly the canonical Definition 2 solution.
	ps, err := NewOracle(c, Definition2).SelectionProvenance(q)
	if err != nil {
		t.Fatal(err)
	}
	p := findProv(t, ps, ints(5))
	if !p.Sources["sub0"].Equal(canonical.Sources["sub0"]) || !p.Sources["sub1"].Equal(canonical.Sources["sub1"]) {
		t.Errorf("oracle Def 2 = R*:%s S*:%s", p.Sources["sub0"], p.Sources["sub1"])
	}
}

// TestProjectionOracle covers Theorem 2 (sublinks in projections): the
// provenance per input tuple follows the selection rules, and under
// Definition 1 an ind sublink (one whose value does not change the
// projected expression) contributes everything.
func TestProjectionOracle(t *testing.T) {
	c := figure3DB()
	sub := algebra.NewProject(scan(t, c, "s"), algebra.KeepCol("c"))
	link := algebra.Sublink{Kind: algebra.AnySublink, Op: types.CmpEq, Test: algebra.Attr("a"), Query: sub}

	// Π_{a, a=ANY(S)}(R): the sublink's value is the projected expression,
	// so it is never ind.
	q := algebra.NewProject(scan(t, c, "r"),
		algebra.KeepCol("a"), algebra.Col(link, "m"))
	o := NewOracle(c, Definition2)
	ps, err := o.ProjectionProvenance(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 3 {
		t.Fatalf("projection provenance entries = %d", len(ps))
	}
	cOnly := schema.New("", "c")
	for _, p := range ps {
		a := p.Witness[0].Int()
		switch a {
		case 1, 2:
			if !p.Sources["sub0"].Equal(subset(t, cOnly, ints(a))) {
				t.Errorf("a=%d: Tsub* = %s, want {(%d)}", a, p.Sources["sub0"], a)
			}
		case 3:
			// Sublink false → reqfalse → all of Tsub.
			if p.Sources["sub0"].Card() != 3 {
				t.Errorf("a=3: Tsub* = %s, want all of S", p.Sources["sub0"])
			}
		}
	}

	// Π_{true ∨ Csub}(R) (the paper's footnote-4 example shape): the
	// projected value is true regardless of the sublink, so under
	// Definition 1 the role is ind and everything contributes; under
	// Definition 2 the actual value pins Tsub^true.
	qInd := algebra.NewProject(scan(t, c, "r"),
		algebra.Col(algebra.Or{L: algebra.BoolConst(true), R: link}, "v"))
	psInd, err := NewOracle(c, Definition1).ProjectionProvenance(qInd)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range psInd {
		if p.Sources["sub0"].Card() != 3 {
			t.Errorf("Def1 ind projection sublink: Tsub* = %s, want all of S", p.Sources["sub0"])
		}
	}
	psDef2, err := NewOracle(c, Definition2).ProjectionProvenance(qInd)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range psDef2 {
		a := p.Witness[0].Int()
		if a == 1 || a == 2 {
			if !p.Sources["sub0"].Equal(subset(t, schema.New("", "c"), ints(a))) {
				t.Errorf("Def2 pins the actual value: a=%d got %s", a, p.Sources["sub0"])
			}
		}
	}
}

// TestOracleCorrelatedProjection covers §2.6: a correlated sublink in a
// projection is parameterized per input tuple; the oracle reports the
// per-witness provenance.
func TestOracleCorrelatedProjection(t *testing.T) {
	c := figure3DB()
	sub := algebra.NewProject(&algebra.Select{
		Child: scan(t, c, "s"),
		Cond:  algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("c"), R: algebra.Attr("b")},
	}, algebra.KeepCol("c"))
	q := algebra.NewProject(scan(t, c, "r"),
		algebra.Col(algebra.Sublink{Kind: algebra.ExistsSublink, Query: sub}, "e"))
	ps, err := NewOracle(c, Definition2).ProjectionProvenance(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		b := p.Witness[1].Int()
		got := p.Sources["sub0"]
		// Tsub(b) = σ_{c=b}(S) projected on c: {b} if b ∈ {1,2}, ∅ otherwise.
		if b <= 2 {
			if !got.Equal(subset(t, schema.New("", "c"), ints(b))) {
				t.Errorf("b=%d: Tsub* = %s", b, got)
			}
		} else if !got.Empty() {
			t.Errorf("b=%d: Tsub* should be empty, got %s", b, got)
		}
	}
}

// TestOracleSatisfiesChecker validates the oracle's closed forms against
// the brute-force definition checker across a family of query shapes and
// randomized small databases, under both definitions.
func TestOracleSatisfiesChecker(t *testing.T) {
	shapes := []struct {
		name string
		mk   func(t *testing.T, c *catalog.Catalog) *algebra.Select
	}{
		{"eqAny", func(t *testing.T, c *catalog.Catalog) *algebra.Select {
			return &algebra.Select{
				Child: scan(t, c, "r"),
				Cond: algebra.Sublink{Kind: algebra.AnySublink, Op: types.CmpEq, Test: algebra.Attr("a"),
					Query: algebra.NewProject(scan(t, c, "s"), algebra.KeepCol("c"))},
			}
		}},
		{"ltAllOr", func(t *testing.T, c *catalog.Catalog) *algebra.Select {
			return &algebra.Select{
				Child: scan(t, c, "r"),
				Cond: algebra.Or{
					L: algebra.Cmp{Op: types.CmpGe, L: algebra.Attr("b"), R: algebra.IntConst(2)},
					R: algebra.Sublink{Kind: algebra.AllSublink, Op: types.CmpLt, Test: algebra.Attr("a"),
						Query: algebra.NewProject(scan(t, c, "s"), algebra.KeepCol("c"))},
				},
			}
		}},
		{"existsCorrelated", func(t *testing.T, c *catalog.Catalog) *algebra.Select {
			return &algebra.Select{
				Child: scan(t, c, "r"),
				Cond: algebra.Sublink{Kind: algebra.ExistsSublink,
					Query: &algebra.Select{
						Child: scan(t, c, "s"),
						Cond:  algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("c"), R: algebra.Attr("b")},
					}},
			}
		}},
		{"twoSublinks", func(t *testing.T, c *catalog.Catalog) *algebra.Select {
			return &algebra.Select{
				Child: scan(t, c, "r"),
				Cond: algebra.Or{
					L: algebra.Sublink{Kind: algebra.AnySublink, Op: types.CmpEq, Test: algebra.Attr("a"),
						Query: algebra.NewProject(scan(t, c, "s"), algebra.KeepCol("c"))},
					R: algebra.Sublink{Kind: algebra.AllSublink, Op: types.CmpGt, Test: algebra.Attr("b"),
						Query: algebra.NewProject(scan(t, c, "s"), algebra.KeepCol("d"))},
				},
			}
		}},
	}
	for _, def := range []Definition{Definition1, Definition2} {
		for _, shape := range shapes {
			for seed := int64(1); seed <= 6; seed++ {
				name := fmt.Sprintf("%v/%s/seed%d", def, shape.name, seed)
				t.Run(name, func(t *testing.T) {
					c := randomDB(seed)
					q := shape.mk(t, c)
					o := NewOracle(c, def)
					ps, err := o.SelectionProvenance(q)
					if err != nil {
						t.Fatal(err)
					}
					ck := NewChecker(c, def)
					for _, p := range ps {
						if err := ck.CheckSelection(q, p); err != nil {
							t.Errorf("checker rejects oracle provenance of %s: %v", p.Result, err)
						}
					}
				})
			}
		}
	}
}

// TestRewriteMatchesOracle cross-checks the Gen and Left strategies against
// the oracle under Definition 2 for sublink queries whose results are base
// tuples (bare scans and selections over scans), where the sublink-result
// and base-relation granularities coincide.
func TestRewriteMatchesOracle(t *testing.T) {
	shapes := []struct {
		name string
		mk   func(t *testing.T, c *catalog.Catalog) *algebra.Select
	}{
		{"anyScan", func(t *testing.T, c *catalog.Catalog) *algebra.Select {
			return &algebra.Select{
				Child: scan(t, c, "r1"),
				Cond: algebra.Sublink{Kind: algebra.AnySublink, Op: types.CmpEq, Test: algebra.Attr("a"),
					Query: scan(t, c, "s1")},
			}
		}},
		{"allSelect", func(t *testing.T, c *catalog.Catalog) *algebra.Select {
			return &algebra.Select{
				Child: scan(t, c, "r1"),
				Cond: algebra.Sublink{Kind: algebra.AllSublink, Op: types.CmpLe, Test: algebra.Attr("a"),
					Query: &algebra.Select{
						Child: scan(t, c, "s1"),
						Cond:  algebra.Cmp{Op: types.CmpGt, L: algebra.Attr("c"), R: algebra.IntConst(0)},
					}},
			}
		}},
		// Correlated shapes: Gen's membership probe and empty case then
		// run per binding of r1.a.
		{"anyCorrelated", func(t *testing.T, c *catalog.Catalog) *algebra.Select {
			return &algebra.Select{
				Child: scan(t, c, "r1"),
				Cond: algebra.Sublink{Kind: algebra.AnySublink, Op: types.CmpGt, Test: algebra.Attr("a"),
					Query: &algebra.Select{
						Child: scan(t, c, "s1"),
						Cond:  algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("c"), R: algebra.QAttr("r1", "a")},
					}},
			}
		}},
		{"existsCorrelated", func(t *testing.T, c *catalog.Catalog) *algebra.Select {
			return &algebra.Select{
				Child: scan(t, c, "r1"),
				Cond: algebra.Sublink{Kind: algebra.ExistsSublink,
					Query: &algebra.Select{
						Child: scan(t, c, "s1"),
						Cond:  algebra.Cmp{Op: types.CmpLe, L: algebra.Attr("c"), R: algebra.QAttr("r1", "a")},
					}},
			}
		}},
	}
	for _, shape := range shapes {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", shape.name, seed), func(t *testing.T) {
				c := randomSingleColDB(seed)
				q := shape.mk(t, c)
				oracle, err := NewOracle(c, Definition2).SelectionProvenance(q)
				if err != nil {
					t.Fatal(err)
				}
				for _, strat := range []rewrite.Strategy{rewrite.Gen, rewrite.Left} {
					res, err := rewrite.Rewrite(q, strat)
					if errors.Is(err, rewrite.ErrNotApplicable) {
						continue // Left rewrites no correlated sublink
					}
					if err != nil {
						t.Fatal(err)
					}
					// Both executors: the streaming one answers Gen's G1
					// selection by generation, the materializing reference
					// by enumerating T × CrossBase.
					for _, materialize := range []bool{false, true} {
						ev := eval.New(c)
						ev.DisableStreaming = materialize
						out, err := ev.Eval(res.Plan)
						if err != nil {
							t.Fatal(err)
						}
						compareRewriteToOracle(t, strat, q, res, out, oracle)
						if strat == rewrite.Gen && !materialize && ev.LastStats().Generated == 0 {
							t.Errorf("Gen: the streaming executor did not generate the CrossBase witnesses")
						}
					}
				}
			})
		}
	}
}

// compareRewriteToOracle groups the single-relation representation by result
// tuple and checks each provenance source's distinct tuple set against the
// oracle.
func compareRewriteToOracle(t *testing.T, strat rewrite.Strategy, q *algebra.Select, res *rewrite.Result, out *rel.Relation, oracle []TupleProvenance) {
	t.Helper()
	width := res.Original.Len()
	// source index → (result key → set of prov tuples)
	groups := make([]map[string]*rel.Relation, len(res.Prov))
	for i := range groups {
		groups[i] = map[string]*rel.Relation{}
	}
	_ = out.Each(func(tp rel.Tuple, n int) error {
		key := tp[:width].Key()
		off := width
		for i, src := range res.Prov {
			w := len(src.Attrs)
			sub := tp[off : off+w]
			off += w
			allNull := true
			for _, v := range sub {
				if !v.IsNull() {
					allNull = false
				}
			}
			if !allNull {
				g := groups[i][key]
				if g == nil {
					g = rel.New(schema.Schema{Attrs: src.Attrs})
					groups[i][key] = g
				}
				if g.Count(sub.Clone()) == 0 {
					g.Add(sub.Clone(), 1)
				}
			}
		}
		return nil
	})
	for _, op := range oracle {
		key := op.Result.Key()
		// Source 0 is the selection input; source i+1 is sublink i.
		for i := range res.Prov {
			var want *rel.Relation
			if i == 0 {
				want = op.Sources[res.Prov[0].Rel]
			} else {
				want = op.Sources[fmt.Sprintf("sub%d", i-1)]
			}
			got := groups[i][key]
			if got == nil {
				got = rel.New(schema.Schema{Attrs: res.Prov[i].Attrs})
			}
			if want == nil {
				t.Fatalf("oracle missing source %d for %s", i, op.Result)
			}
			if !got.EqualSet(want.WithSchema(got.Schema)) {
				t.Errorf("%v: source %d of %s = %s, oracle %s", strat, i, op.Result, got, want)
			}
		}
	}
}

// randomDB builds r(a,b), s(c,d) with small random integers.
func randomDB(seed int64) *catalog.Catalog {
	c := catalog.New()
	next := mkRand(seed)
	r := rel.New(schema.New("", "a", "b"))
	for i := 0; i < 5; i++ {
		r.Add(ints(next(), next()), 1)
	}
	s := rel.New(schema.New("", "c", "d"))
	for i := 0; i < 4; i++ {
		s.Add(ints(next(), next()), 1)
	}
	c.Register("r", r)
	c.Register("s", s)
	return c
}

// randomSingleColDB builds r1(a), s1(c) for the granularity-aligned
// rewrite-vs-oracle comparison.
func randomSingleColDB(seed int64) *catalog.Catalog {
	c := catalog.New()
	next := mkRand(seed)
	r := rel.New(schema.New("", "a"))
	for i := 0; i < 6; i++ {
		r.Add(ints(next()), 1)
	}
	s := rel.New(schema.New("", "c"))
	for i := 0; i < 4; i++ {
		s.Add(ints(next()), 1)
	}
	c.Register("r1", r)
	c.Register("s1", s)
	return c
}

func mkRand(seed int64) func() int64 {
	return func() int64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		v := (seed >> 33) % 4
		if v < 0 {
			v = -v
		}
		return v
	}
}
