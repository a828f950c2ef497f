package eval

import (
	"testing"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/rel"
	"perm/internal/schema"
	"perm/internal/types"
)

// genDB is r(a, b) and s(c, d), with a duplicate row, an all-NULL row and
// NULL correlation values in s, and u(e, f), v(g, h) and w(x, y, z) for a
// CrossBase block of two leaves.
func genDB() *catalog.Catalog {
	null := types.Null()
	c := catalog.New()
	c.Register("r", rel.FromTuples(schema.New("", "a", "b"),
		ints(1, 1), ints(2, 1), rel.Tuple{types.NewInt(3), null}, ints(4, 2), ints(5, 3)))
	s := rel.FromTuples(schema.New("", "c", "d"),
		ints(10, 1), ints(10, 2), ints(20, 1), rel.Tuple{null, types.NewInt(2)}, rel.Tuple{null, null}, ints(30, 4))
	s.Add(ints(10, 1), 1)
	c.Register("s", s)
	c.Register("u", rel.FromTuples(schema.New("", "e", "f"),
		ints(1, 10), ints(1, 11), ints(2, 12), rel.Tuple{null, types.NewInt(13)}))
	c.Register("v", rel.FromTuples(schema.New("", "g", "h"),
		ints(1, 20), ints(1, 21), ints(3, 22), rel.Tuple{null, types.NewInt(23)}))
	c.Register("w", rel.FromTuples(schema.New("", "x", "y", "z"),
		ints(1, 1, 0), ints(1, 1, 1), ints(2, 1, 2), ints(1, 3, 3), ints(2, 3, 4)))
	return c
}

// twoLeaves builds a G1-shaped selection whose one sublink owns a block of
// two CrossBase leaves, u and v, keyed on e and g:
//
//	σ[EXISTS(σ_{e =n x ∧ g =n y}(Q)) ∨ (¬EXISTS(Q) ∧ e IS NULL ∧ g IS NULL)](r × u × v),
//	Q = σ_{y ≥ b}(w).
//
// Key 1 selects two rows of each leaf, so a key's rows are a product, and
// the keys (2, 1) and (1, 3) differ only in which leaf's bucket is second:
// numbering a key without the leaves' strides would merge them.
func twoLeaves(t *testing.T, c *catalog.Catalog) algebra.Op {
	q := func() algebra.Op {
		return &algebra.Select{Child: scan(t, c, "w"), Cond: algebra.Cmp{Op: types.CmpGe, L: algebra.Attr("y"), R: algebra.Attr("b")}}
	}
	return &algebra.Select{
		Child: &algebra.Cross{L: &algebra.Cross{L: scan(t, c, "r"), R: scan(t, c, "u")}, R: scan(t, c, "v")},
		Cond: algebra.Or{
			L: algebra.Sublink{Kind: algebra.ExistsSublink, Query: &algebra.Select{Child: q(), Cond: algebra.Conj(nullEq("e", "x"), nullEq("g", "y"))}},
			R: algebra.Conj(algebra.Not{E: algebra.Sublink{Kind: algebra.ExistsSublink, Query: q()}},
				algebra.IsNull{E: algebra.Attr("e")}, algebra.IsNull{E: algebra.Attr("g")}),
		},
	}
}

// g1Over builds a G1-shaped selection by hand: r × CB, CB = Π_{c→pc,
// d→pd}(s ∪ (NULL, NULL)), under the membership condition
//
//	EXISTS(σ_{conds}(Π_{c→x, d→y}(σ_{d ≥ b}(s)))) ∨ (¬EXISTS(σ_{d ≥ b}(s)) ∧ keys IS NULL).
//
// conds are the membership conjuncts in order; keys the CrossBase columns
// they compare.
func g1Over(t *testing.T, c *catalog.Catalog, conds []algebra.Expr, keys ...string) algebra.Op {
	s := scan(t, c, "s")
	cb := algebra.NewProject(
		&algebra.SetOp{Kind: algebra.Union, Bag: true, L: s,
			R: &algebra.Values{Sch: s.Schema(), Rows: []algebra.Row{algebra.NullRow(2)}}},
		algebra.Col(algebra.Attr("c"), "pc"), algebra.Col(algebra.Attr("d"), "pd"))
	corr := func() algebra.Op {
		return &algebra.Select{Child: scan(t, c, "s"), Cond: algebra.Cmp{Op: types.CmpGe, L: algebra.Attr("d"), R: algebra.Attr("b")}}
	}
	q := algebra.NewProject(corr(), algebra.Col(algebra.Attr("c"), "x"), algebra.Col(algebra.Attr("d"), "y"))
	empty := []algebra.Expr{algebra.Not{E: algebra.Sublink{Kind: algebra.ExistsSublink, Query: corr()}}}
	for _, k := range keys {
		empty = append(empty, algebra.IsNull{E: algebra.Attr(k)})
	}
	return &algebra.Select{
		Child: &algebra.Cross{L: scan(t, c, "r"), R: cb},
		Cond: algebra.Or{
			L: algebra.Sublink{Kind: algebra.ExistsSublink, Query: &algebra.Select{Child: q, Cond: algebra.Conj(conds...)}},
			R: algebra.Conj(empty...),
		},
	}
}

func nullEq(l, r string) algebra.Expr { return algebra.NullEq{L: algebra.Attr(l), R: algebra.Attr(r)} }

// TestGenerationMatchesLiteral: generation is an identity for any selection
// of G1's shape, whoever wrote it. Keyed on pc alone, several rows of Q
// share a key and a key selects several CrossBase rows: each CrossBase row
// must come out once, as the literal EXISTS admits it once. Shapes
// generation does not answer exactly keep the literal selection.
func TestGenerationMatchesLiteral(t *testing.T) {
	c := genDB()
	positive := algebra.Cmp{Op: types.CmpGt, L: algebra.Attr("x"), R: algebra.IntConst(0)}
	for _, tc := range []struct {
		name     string
		op       algebra.Op
		generate bool
	}{
		{"full key", g1Over(t, c, []algebra.Expr{positive, nullEq("pc", "x"), nullEq("pd", "y")}, "pc", "pd"), true},
		{"shared keys", g1Over(t, c, []algebra.Expr{positive, nullEq("pc", "x")}, "pc"), true},
		{"two leaves", twoLeaves(t, c), true},
		{"no J", g1Over(t, c, []algebra.Expr{nullEq("pc", "x"), nullEq("pd", "y")}, "pc", "pd"), true},
		// J after a key is evaluated only where the key matched.
		{"J after a key", g1Over(t, c, []algebra.Expr{nullEq("pc", "x"), positive, nullEq("pd", "y")}, "pc", "pd"), false},
		// The IS NULL slots must be the key slots.
		{"IS NULL mismatch", g1Over(t, c, []algebra.Expr{positive, nullEq("pc", "x"), nullEq("pd", "y")}, "pc"), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, stats := evalIndexed(t, c, tc.op)
			if want.Empty() {
				t.Fatal("empty reference result: the case checks nothing")
			}
			if got := stats.Generated > 0; got != tc.generate {
				t.Errorf("generated %d rows, want generation %v", stats.Generated, tc.generate)
			}
		})
	}
}
