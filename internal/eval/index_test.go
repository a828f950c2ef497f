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

// indexDB is r(a, b) and s(c, d) with NULL correlation values on both
// sides: the EXISTS bindings of r are b = 1, NULL and 2, in that order.
func indexDB() *catalog.Catalog {
	null := types.Null()
	c := catalog.New()
	c.Register("r", rel.FromTuples(schema.New("", "a", "b"),
		ints(1, 1), rel.Tuple{types.NewInt(2), null}, ints(3, 2), rel.Tuple{types.NewInt(4), null}, ints(5, 1)))
	c.Register("s", rel.FromTuples(schema.New("", "c", "d"),
		ints(10, 1), rel.Tuple{types.NewInt(20), null}, ints(30, 2)))
	return c
}

// existsOver is σ[EXISTS (Π_c(σ_cond(input)))](r).
func existsOver(t *testing.T, c *catalog.Catalog, input algebra.Op, cond algebra.Expr) algebra.Op {
	sub := algebra.NewProject(&algebra.Select{Child: input, Cond: cond}, algebra.KeepCol("c"))
	return &algebra.Select{Child: scan(t, c, "r"), Cond: algebra.Sublink{Kind: algebra.ExistsSublink, Query: sub}}
}

// evalIndexed runs op on the streaming executor, checks it against the
// materializing reference, and returns the reference's bag and the
// streaming run's stats.
func evalIndexed(t *testing.T, c *catalog.Catalog, op algebra.Op) (*rel.Relation, Stats) {
	t.Helper()
	want := evalMode(t, c, op, true)
	ev := New(c)
	got, err := ev.Eval(op)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("streaming %s, reference %s", got, want)
	}
	return want, ev.LastStats()
}

// TestIndexNullKeys: a = key never matches NULL, on either side; a =n key
// matches NULL to NULL. The index answers the second and third binding.
func TestIndexNullKeys(t *testing.T) {
	c := indexDB()
	for _, tc := range []struct {
		name string
		cond algebra.Expr
		want []int64
	}{
		{"=", algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("d"), R: algebra.Attr("b")}, []int64{1, 3, 5}},
		{"=n", algebra.NullEq{L: algebra.Attr("d"), R: algebra.Attr("b")}, []int64{1, 2, 3, 4, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, st := evalIndexed(t, c, existsOver(t, c, scan(t, c, "s"), tc.cond))
			var kept []int64
			for _, row := range out.SortedTuples() {
				kept = append(kept, row[0].Int())
			}
			if !slices.Equal(kept, tc.want) {
				t.Errorf("kept a in %v, want %v", kept, tc.want)
			}
			if st.IndexBuilds != 1 || st.IndexProbes != 2 {
				t.Errorf("stats %+v, want 1 build and 2 probes (the first binding runs the literal filter)", st)
			}
		})
	}
}

// TestIndexPerInputBinding: a selection whose input reads an enclosing scope
// itself needs one index per binding of that input. Here the input is
// σ[c > a](s) and the key d = b: each a comes with two b, so each input
// binding but the last is indexed on its second call. Keyed on d alone, the
// index built for a = 0 would answer a = 3, b = 1 with rows that input never
// produces.
func TestIndexPerInputBinding(t *testing.T) {
	c := catalog.New()
	c.Register("r", rel.FromTuples(schema.New("", "a", "b"),
		ints(0, 1), ints(0, 2), ints(1, 1), ints(1, 2), ints(3, 1), ints(3, 2), ints(5, 2)))
	c.Register("s", rel.FromTuples(schema.New("", "c", "d"), ints(1, 1), ints(2, 1), ints(3, 1), ints(4, 2)))
	input := &algebra.Select{Child: scan(t, c, "s"), Cond: algebra.Cmp{Op: types.CmpGt, L: algebra.Attr("c"), R: algebra.Attr("a")}}
	op := existsOver(t, c, input, algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("d"), R: algebra.Attr("b")})
	out, st := evalIndexed(t, c, op)
	if want := rel.FromTuples(out.Schema, ints(0, 1), ints(0, 2), ints(1, 1), ints(1, 2), ints(3, 2)); !out.Equal(want) {
		t.Errorf("kept %s, want %s", out, want)
	}
	if st.IndexBuilds != 3 || st.IndexProbes != 3 {
		t.Errorf("stats %+v, want 3 builds and 3 probes: one per input binding a = 0, 1, 3", st)
	}
}

// TestSplitSelectDeclines pins the decline rule: a selection keeps the
// literal filter unless it has a correlation key and nothing in its
// condition or input can raise an error.
func TestSplitSelectDeclines(t *testing.T) {
	c := figure3DB()
	s := scan(t, c, "s")
	key := algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("d"), R: algebra.Attr("b")}
	ref := func(name string) algebra.Expr { return algebra.Attr(name) }
	sub := func(kind algebra.SublinkKind, q algebra.Op) algebra.Expr {
		return algebra.Sublink{Kind: kind, Op: types.CmpGt, Test: ref("c"), Query: q}
	}
	inner := algebra.NewProject(&algebra.Select{Child: scan(t, c, "r"),
		Cond: algebra.Cmp{Op: types.CmpEq, L: ref("a"), R: ref("c")}}, algebra.KeepCol("a"))
	agg := &algebra.Aggregate{Child: scan(t, c, "r"), Aggs: []algebra.AggExpr{{Fn: algebra.AggCountStar, As: "n"}}}
	cmp := func(l algebra.Expr, op types.CmpOp, r algebra.Expr) algebra.Expr {
		return algebra.Cmp{Op: op, L: l, R: r}
	}
	for _, tc := range []struct {
		name    string
		input   algebra.Op
		cond    algebra.Expr
		indexed bool
	}{
		{"key", s, key, true},
		{"=n key", s, algebra.NullEq{L: ref("b"), R: ref("d")}, true},
		{"comparison residual", s, algebra.Conj(key, cmp(ref("c"), types.CmpLt, ref("a"))), true},
		{"boolean residual", s, algebra.Conj(key, algebra.Or{L: algebra.Not{E: algebra.IsNull{E: ref("c")}}, R: algebra.BoolConst(true)}), true},
		{"EXISTS residual", s, algebra.Conj(key, sub(algebra.ExistsSublink, inner)), true},
		{"ANY residual", s, algebra.Conj(key, sub(algebra.AnySublink, inner)), true},
		{"ALL residual", s, algebra.Conj(key, sub(algebra.AllSublink, inner)), true},
		{"no correlation key", s, cmp(ref("d"), types.CmpLt, ref("b")), false},
		{"key within the input", s, cmp(ref("c"), types.CmpEq, ref("d")), false},
		{"arithmetic residual", s, algebra.Conj(key,
			cmp(algebra.Arith{Op: types.OpDiv, L: algebra.IntConst(1), R: algebra.Arith{Op: types.OpSub, L: ref("c"), R: algebra.IntConst(3)}}, types.CmpGt, algebra.IntConst(0))), false},
		{"arithmetic key", s, cmp(algebra.Arith{Op: types.OpAdd, L: ref("d"), R: algebra.IntConst(1)}, types.CmpEq, ref("b")), false},
		{"scalar sublink residual", s, algebra.Conj(key, cmp(algebra.Sublink{Kind: algebra.ScalarSublink, Query: inner}, types.CmpGt, algebra.IntConst(0))), false},
		{"aggregate in a residual sublink", s, algebra.Conj(key, sub(algebra.ExistsSublink, agg)), false},
		{"function residual", s, algebra.Conj(key, cmp(algebra.Func{Name: "abs", Args: []algebra.Expr{ref("c")}}, types.CmpGt, algebra.IntConst(0))), false},
		{"CAST residual", s, algebra.Conj(key, cmp(algebra.Cast{E: ref("c"), To: types.KindString}, types.CmpEq, algebra.StrConst("1"))), false},
		{"bare reference", s, algebra.Conj(key, ref("c")), false},
		{"non-boolean constant", s, algebra.Conj(key, algebra.IntConst(1)), false},
		{"aggregate input", agg, cmp(ref("n"), types.CmpEq, ref("b")), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op := &algebra.Select{Child: scan(t, c, "r"), Cond: algebra.Sublink{Kind: algebra.ExistsSublink,
				Query: &algebra.Select{Child: tc.input, Cond: tc.cond}}}
			bound, err := algebra.Bind(op)
			if err != nil {
				t.Fatal(err)
			}
			sel := bound.(*algebra.Select).Cond.(algebra.Sublink).Query.(*algebra.Select)
			if got := splitSelect(sel) != nil; got != tc.indexed {
				t.Errorf("indexed = %v, want %v for %s", got, tc.indexed, sel.Cond)
			}
		})
	}
}

// TestJoinSharesIndex: a join whose build side is a bare scan keyed on
// columns hashes it into the table a correlated selection on the same
// columns attaches, under the same name. The first run attaches it, a
// correlated selection then probes it without a build, a second run of the
// join builds nothing, and a new version of the relation is built again
// and answers with its new row.
func TestJoinSharesIndex(t *testing.T) {
	attr := algebra.Attr
	catalogOf := func(n int) *catalog.Catalog {
		c := catalog.New()
		r := rel.New(schema.New("", "a", "b"))
		for i := range n {
			r.Add(ints(int64(i), int64(i)), 1)
		}
		c.Register("r", r)
		c.Register("s", rel.FromTuples(schema.New("", "c", "d"), ints(10, 1), ints(20, 2), ints(30, 7)))
		return c
	}
	join := func(c *catalog.Catalog) algebra.Op {
		return algebra.NewProject(&algebra.Join{L: scan(t, c, "s"), R: scan(t, c, "r"),
			Cond: algebra.Cmp{Op: types.CmpEq, L: attr("d"), R: attr("b")}}, algebra.KeepCol("c"), algebra.KeepCol("a"))
	}
	c := catalogOf(20)
	base, err := c.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := evalIndexed(t, c, join(c))
	if want.Card() != 3 {
		t.Fatalf("the join returns %d rows, want 3", want.Card())
	}

	// σ[EXISTS (Π_a(σ[b = d](r)))](s): a correlated selection on r.b.
	sub := algebra.NewProject(&algebra.Select{Child: scan(t, c, "r"),
		Cond: algebra.Cmp{Op: types.CmpEq, L: attr("b"), R: attr("d")}}, algebra.KeepCol("a"))
	sel := &algebra.Select{Child: scan(t, c, "s"), Cond: algebra.Sublink{Kind: algebra.ExistsSublink, Query: sub}}
	bound, err := algebra.Bind(sel)
	if err != nil {
		t.Fatal(err)
	}
	split := splitSelect(bound.(*algebra.Select).Cond.(algebra.Sublink).Query.(*algebra.Project).Child.(*algebra.Select))
	if split == nil || split.shared == "" {
		t.Fatalf("the selection over r is not indexed on a shared key: %+v", split)
	}
	table, ok := base.Attached(split.shared).(*slotIndex)
	if !ok {
		t.Fatalf("nothing attached to r under %q after the join", split.shared)
	}
	if _, st := evalIndexed(t, c, sel); st.IndexBuilds != 0 || st.IndexProbes == 0 {
		t.Errorf("selection stats %+v, want no build and a probe of the join's table", st)
	}
	if base.Attached(split.shared) != table {
		t.Errorf("the selection replaced the join's table")
	}

	if !raceDetector {
		// A run on an attached table allocates the same whatever the size
		// of r: nothing a build row.
		allocs := func(n int) float64 {
			c := catalogOf(n)
			op, err := algebra.Bind(join(c))
			if err != nil {
				t.Fatal(err)
			}
			p := Lower(op)
			ev := New(c)
			return testing.AllocsPerRun(3, func() {
				if _, err := ev.Run(p); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := allocs(500), allocs(1000); large > small {
			t.Errorf("a second run allocates %.0f over 500 rows of r and %.0f over 1000", small, large)
		}
	}

	next := base.Clone(1)
	next.Add(ints(99, 7), 1)
	c.RegisterWithKinds("r", next, nil)
	got, _ := evalIndexed(t, c, join(c))
	if got.Count(ints(30, 99)) != 1 || got.Card() != 4 {
		t.Errorf("the new version's join returns %s, want the rows before and (30, 99)", got)
	}
	if nt, ok := next.Attached(split.shared).(*slotIndex); !ok || nt == table {
		t.Errorf("the new version is not built a table of its own")
	}
}
