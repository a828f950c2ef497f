package eval

import (
	"slices"
	"testing"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/rel"
	"perm/internal/schema"
	"perm/internal/types"
)

// TestKeyedJoinResidual runs keyed joins whose residual rejects candidates
// on both executors against bags written out by hand. r(a, b) probes s(c,
// d), whose slot (2, 1) has multiplicity 2 and whose d holds a NULL. On
// b = d AND c > a, r's (5, 1) keeps one of its two candidates, (2, 2) keeps
// none and (3, NULL) has none; a left join pads the last two, and only
// those, with NULLs.
func TestKeyedJoinResidual(t *testing.T) {
	null := types.Null()
	c := catalog.New()
	c.Register("r", rel.FromTuples(schema.New("", "a", "b"),
		ints(1, 1), ints(5, 1), ints(2, 2), rel.Tuple{types.NewInt(3), null}, ints(4, 3)))
	s := rel.New(schema.New("", "c", "d"))
	s.Add(ints(2, 1), 2)
	s.Add(ints(6, 1), 1)
	s.Add(ints(1, 2), 1)
	s.Add(rel.Tuple{types.NewInt(7), null}, 1)
	s.Add(ints(9, 3), 1)
	c.Register("s", s)

	attr := algebra.Attr
	gt := algebra.Cmp{Op: types.CmpGt, L: attr("c"), R: attr("a")}
	eq := algebra.Cmp{Op: types.CmpEq, L: attr("b"), R: attr("d")}
	eqn := algebra.NullEq{L: attr("b"), R: attr("d")}
	const N = -1 // NULL in the rows below
	row := func(vals ...int64) rel.Tuple {
		t := ints(vals...)
		for i, v := range vals {
			if v == N {
				t[i] = null
			}
		}
		return t
	}
	type counted struct {
		t rel.Tuple
		n int
	}
	kept := []counted{{row(1, 1, 2, 1), 2}, {row(1, 1, 6, 1), 1}, {row(5, 1, 6, 1), 1}, {row(4, 3, 9, 3), 1}}
	padded := []counted{{row(2, 2, N, N), 1}, {row(3, N, N, N), 1}}
	for _, tc := range []struct {
		name string
		left bool
		cond algebra.Expr
		want []counted
	}{
		{"inner, residual", false, algebra.Conj(eq, gt), kept},
		{"left, residual", true, algebra.Conj(eq, gt), slices.Concat(kept, padded)},
		{"left, plain = with a NULL probe", true, eq, []counted{
			{row(1, 1, 2, 1), 2}, {row(1, 1, 6, 1), 1}, {row(5, 1, 2, 1), 2}, {row(5, 1, 6, 1), 1},
			{row(2, 2, 1, 2), 1}, {row(3, N, N, N), 1}, {row(4, 3, 9, 3), 1}}},
		{"inner, =n and residual", false, algebra.Conj(eqn, gt), slices.Concat(kept, []counted{{row(3, N, 7, N), 1}})},
		{"left, =n and residual", true, algebra.Conj(eqn, gt), slices.Concat(kept, []counted{{row(2, 2, N, N), 1}, {row(3, N, 7, N), 1}})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var op algebra.Op = &algebra.Join{L: scan(t, c, "r"), R: scan(t, c, "s"), Cond: tc.cond}
			if tc.left {
				op = &algebra.LeftJoin{L: scan(t, c, "r"), R: scan(t, c, "s"), Cond: tc.cond}
			}
			bound, err := algebra.Bind(op)
			if err != nil {
				t.Fatal(err)
			}
			if keys := splitEquiJoin(algebra.OperatorExprs(bound)[0], 2); len(keys.probe) != 1 {
				t.Fatalf("condition %s splits into %d keys, want 1", tc.cond, len(keys.probe))
			}
			want := rel.New(op.Schema())
			for _, w := range tc.want {
				want.Add(w.t, w.n)
			}
			for _, materialize := range []bool{false, true} {
				if got := evalMode(t, c, op, materialize); !got.Equal(want) {
					t.Errorf("materialize=%v: got %s, want %s", materialize, got, want)
				}
			}
		})
	}
}
