package eval

import (
	"errors"
	"slices"
	"testing"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/rel"
	"perm/internal/schema"
	"perm/internal/types"
)

// keyedJoinDB is r(a, b) and s(c, d) of the keyed join tests: s's slot
// (2, 1) has multiplicity 2, and both b and d hold a NULL.
func keyedJoinDB() *catalog.Catalog {
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
	return c
}

// TestKeyedJoinResidual runs keyed joins whose residual rejects candidates
// on both executors against bags written out by hand. r(a, b) probes s(c,
// d), whose slot (2, 1) has multiplicity 2 and whose d holds a NULL. On
// b = d AND c > a, r's (5, 1) keeps one of its two candidates, (2, 2) keeps
// none and (3, NULL) has none; a left join pads the last two, and only
// those, with NULLs.
func TestKeyedJoinResidual(t *testing.T) {
	null := types.Null()
	c := keyedJoinDB()
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
			if keys := splitEquiJoin(algebra.OperatorExprs(bound)[0], 2); len(keys.pairs) != 1 {
				t.Fatalf("condition %s splits into %d keys, want 1", tc.cond, len(keys.pairs))
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

// TestJoinFold runs joins whose inputs are the rewrite's pass-through
// projections over stored rows, which the streaming join reads as the
// stored tuples through column maps, on both executors. Each side's
// projection reorders and duplicates its columns differently, so a join
// that read a column through the wrong map would differ from the
// reference. The residual reads duplicated columns, and a projection above
// the join, which the join builds, drops and reorders them.
func TestJoinFold(t *testing.T) {
	c := keyedJoinDB()
	attr := algebra.Attr
	// r's columns become (b, a, prov_r_a, prov_r_b), s's (c, d, prov_s_d,
	// prov_s_c).
	wrapR := func(in algebra.Op) algebra.Op {
		return algebra.NewProject(in, algebra.KeepCol("b"), algebra.KeepCol("a"),
			algebra.Col(attr("a"), "prov_r_a"), algebra.Col(attr("b"), "prov_r_b"))
	}
	wrapS := func(in algebra.Op) algebra.Op {
		return algebra.NewProject(in, algebra.KeepCol("c"), algebra.KeepCol("d"),
			algebra.Col(attr("d"), "prov_s_d"), algebra.Col(attr("c"), "prov_s_c"))
	}
	inputs := []struct {
		name string
		r, s func() algebra.Op
	}{
		{"scan", func() algebra.Op { return scan(t, c, "r") }, func() algebra.Op { return scan(t, c, "s") }},
		{"selection", func() algebra.Op {
			return &algebra.Select{Child: scan(t, c, "r"), Cond: algebra.Cmp{Op: types.CmpNe, L: attr("a"), R: algebra.IntConst(4)}}
		}, func() algebra.Op {
			return &algebra.Select{Child: scan(t, c, "s"), Cond: algebra.Cmp{Op: types.CmpNe, L: attr("c"), R: algebra.IntConst(6)}}
		}},
	}
	key := algebra.Cmp{Op: types.CmpEq, L: attr("prov_r_b"), R: attr("d")}
	residual := algebra.Cmp{Op: types.CmpGt, L: attr("prov_s_c"), R: attr("prov_r_a")}
	// 1 / (c − 2) raises on s's (2, 1), a candidate of r's b = 1.
	raises := algebra.Cmp{Op: types.CmpGt, R: algebra.IntConst(0), L: algebra.Arith{Op: types.OpDiv,
		L: algebra.IntConst(1), R: algebra.Arith{Op: types.OpSub, L: attr("prov_s_c"), R: algebra.IntConst(2)}}}
	inner := func(l, r algebra.Op, cond algebra.Expr) algebra.Op { return &algebra.Join{L: l, R: r, Cond: cond} }
	left := func(l, r algebra.Op, cond algebra.Expr) algebra.Op { return &algebra.LeftJoin{L: l, R: r, Cond: cond} }
	joins := []struct {
		name   string
		cond   algebra.Expr
		join   func(l, r algebra.Op, cond algebra.Expr) algebra.Op
		raises bool
	}{
		{"inner", algebra.Conj(key, residual), inner, false},
		{"left", algebra.Conj(key, residual), left, false},
		{"cross", nil, func(l, r algebra.Op, _ algebra.Expr) algebra.Op { return &algebra.Cross{L: l, R: r} }, false},
		{"inner, raising residual", algebra.Conj(key, raises), inner, true},
		{"left, raising residual", algebra.Conj(key, raises), left, true},
	}
	for _, in := range inputs {
		for _, j := range joins {
			for _, above := range []bool{false, true} {
				name := in.name + ", " + j.name
				if above {
					name += ", projection above"
				}
				t.Run(name, func(t *testing.T) {
					op := j.join(wrapR(in.r()), wrapS(in.s()), j.cond)
					if above {
						op = algebra.NewProject(op, algebra.KeepCol("prov_s_c"), algebra.KeepCol("a"),
							algebra.KeepCol("d"), algebra.Col(attr("prov_r_b"), "b2"))
					}
					ref := New(c)
					ref.DisableStreaming = true
					want, wantErr := ref.Eval(op)
					ev := New(c)
					got, err := ev.Eval(op)
					switch {
					case j.raises || wantErr != nil || err != nil:
						if !j.raises || !errors.Is(wantErr, types.ErrDivisionByZero) || err == nil || err.Error() != wantErr.Error() {
							t.Fatalf("streaming error %v, reference error %v", err, wantErr)
						}
					case !got.Equal(want):
						t.Errorf("streaming %s, reference %s", got, want)
					case want.Empty():
						t.Errorf("the reference returns no row")
					}
					bound, err := algebra.Bind(op)
					if err != nil {
						t.Fatal(err)
					}
					plan := Lower(bound)
					for _, p := range plan.joins {
						if p.lmap() == nil {
							t.Errorf("the join streams its left input's projection")
						}
						if p.rmap() == nil {
							t.Errorf("the join builds its right input's projection")
						}
					}
					fused := len(plan.outs) > 0
					if fused != above {
						t.Errorf("projection above built by the join: %v, want %v", fused, above)
					}
				})
			}
		}
	}
}
