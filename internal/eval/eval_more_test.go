package eval

import (
	"errors"
	"strings"
	"testing"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/rel"
	"perm/internal/schema"
	"perm/internal/types"
)

func TestValuesOperator(t *testing.T) {
	c := catalog.New()
	op := &algebra.Values{
		Sch: schema.New("", "x", "y"),
		Rows: []algebra.Row{
			{algebra.IntConst(1), algebra.StrConst("a")},
			{algebra.NullConst(), algebra.StrConst("b")},
		},
	}
	out := mustEval(t, c, op)
	if out.Card() != 2 {
		t.Fatalf("card = %d", out.Card())
	}
	if out.Count(rel.Tuple{types.Null(), types.NewString("b")}) != 1 {
		t.Errorf("null row missing: %s", out)
	}
	// Width mismatch is an error.
	bad := &algebra.Values{Sch: schema.New("", "x"), Rows: []algebra.Row{{algebra.IntConst(1), algebra.IntConst(2)}}}
	if _, err := New(c).Eval(bad); err == nil {
		t.Error("ragged VALUES row should error")
	}
}

func TestLimitWithoutOrder(t *testing.T) {
	c := figure3DB()
	op := &algebra.Limit{Child: scan(t, c, "r"), N: 2}
	out := mustEval(t, c, op)
	if out.Card() != 2 {
		t.Errorf("limit without order card = %d", out.Card())
	}
	zero := &algebra.Limit{Child: scan(t, c, "r"), N: 0}
	if out := mustEval(t, c, zero); !out.Empty() {
		t.Errorf("limit 0 = %s", out)
	}
}

func TestOrderAloneIsBagIdentity(t *testing.T) {
	c := figure3DB()
	op := &algebra.Order{Child: scan(t, c, "r"), Keys: []algebra.SortKey{{E: algebra.Attr("a"), Desc: true}}}
	out := mustEval(t, c, op)
	base := mustEval(t, c, scan(t, c, "r"))
	if !out.Equal(base.WithSchema(out.Schema)) {
		t.Errorf("order changed bag content")
	}
}

func TestHashJoinWithResidual(t *testing.T) {
	c := figure3DB()
	// a = c (hashable) AND b < d (residual).
	cond := algebra.And{
		L: algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("a"), R: algebra.Attr("c")},
		R: algebra.Cmp{Op: types.CmpLt, L: algebra.Attr("b"), R: algebra.Attr("d")},
	}
	op := &algebra.Join{L: scan(t, c, "r"), R: scan(t, c, "s"), Cond: cond}
	out := mustEval(t, c, op)
	want := rel.FromTuples(out.Schema, ints(1, 1, 1, 3), ints(2, 1, 2, 4))
	if !out.Equal(want) {
		t.Errorf("hash join with residual = %s", out)
	}
}

func TestHashJoinNullKeysDoNotMatch(t *testing.T) {
	c := catalog.New()
	c.Register("l", rel.FromTuples(schema.New("", "a"), rel.Tuple{types.Null()}, ints(1)))
	c.Register("m", rel.FromTuples(schema.New("", "b"), rel.Tuple{types.Null()}, ints(1)))
	eq := &algebra.Join{L: scan(t, c, "l"), R: scan(t, c, "m"),
		Cond: algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("a"), R: algebra.Attr("b")}}
	out := mustEval(t, c, eq)
	if out.Card() != 1 {
		t.Errorf("= join matched NULLs: %s", out)
	}
	// =n joins DO match NULLs.
	neq := &algebra.Join{L: scan(t, c, "l"), R: scan(t, c, "m"),
		Cond: algebra.NullEq{L: algebra.Attr("a"), R: algebra.Attr("b")}}
	out = mustEval(t, c, neq)
	if out.Card() != 2 {
		t.Errorf("=n join should match NULL with NULL: %s", out)
	}
}

func TestHashLeftJoinPadsUnmatched(t *testing.T) {
	c := figure3DB()
	cond := algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("a"), R: algebra.Attr("c")}
	op := &algebra.LeftJoin{L: scan(t, c, "r"), R: scan(t, c, "s"), Cond: cond}
	out := mustEval(t, c, op)
	padded := rel.Tuple{types.NewInt(3), types.NewInt(2), types.Null(), types.Null()}
	if out.Card() != 3 || out.Count(padded) != 1 {
		t.Errorf("hash left join = %s", out)
	}
}

func TestSplitEquiJoinClassification(t *testing.T) {
	lsch := schema.New("l", "a", "b")
	rsch := schema.New("r", "c", "d")
	cond := algebra.Conj(
		algebra.Cmp{Op: types.CmpEq, L: algebra.QAttr("l", "a"), R: algebra.QAttr("r", "c")}, // key
		algebra.NullEq{L: algebra.QAttr("r", "d"), R: algebra.QAttr("l", "b")},               // key (swapped)
		algebra.Cmp{Op: types.CmpLt, L: algebra.QAttr("l", "a"), R: algebra.QAttr("r", "d")}, // residual
		algebra.Cmp{Op: types.CmpEq, L: algebra.QAttr("l", "a"), R: algebra.QAttr("l", "b")}, // one-sided: residual
	)
	keys := splitEquiJoin(cond, lsch, rsch)
	if len(keys.lKeys) != 2 {
		t.Fatalf("extracted %d keys, want 2", len(keys.lKeys))
	}
	if !keys.nullEq[1] || keys.nullEq[0] {
		t.Errorf("null-awareness flags = %v", keys.nullEq)
	}
	if keys.residual == nil {
		t.Fatal("missing residual")
	}
	// Correlated expressions must not become keys.
	correlated := algebra.Cmp{Op: types.CmpEq, L: algebra.QAttr("l", "a"), R: algebra.Attr("outer_x")}
	keys = splitEquiJoin(correlated, lsch, rsch)
	if len(keys.lKeys) != 0 {
		t.Error("correlated reference extracted as key")
	}
}

func TestSetOpWidthMismatch(t *testing.T) {
	c := figure3DB()
	op := &algebra.SetOp{Kind: algebra.Union, Bag: true,
		L: scan(t, c, "r"),
		R: algebra.NewProject(scan(t, c, "s"), algebra.KeepCol("c"))}
	if _, err := New(c).Eval(op); err == nil {
		t.Fatal("width mismatch should error")
	}
}

func TestSortTuplesNullsLast(t *testing.T) {
	s := schema.New("", "a")
	r := rel.FromTuples(s, rel.Tuple{types.Null()}, ints(2), ints(1))
	rows, err := SortTuples(r, []algebra.SortKey{{E: algebra.Attr("a")}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0][0].IsNull() == false && rows[2][0].IsNull() {
		// ascending: 1, 2, NULL (NULLs last)
	}
	if rows[0][0].IsNull() || rows[1][0].Int() != 2 || !rows[2][0].IsNull() {
		t.Errorf("ascending with NULL = %v", rows)
	}
	desc, err := SortTuples(r, []algebra.SortKey{{E: algebra.Attr("a"), Desc: true}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !desc[0][0].IsNull() && desc[0][0].Int() != 2 {
		t.Errorf("descending = %v", desc)
	}
}

// A Param leaf reads its slot of the run's parameter vector — in the
// pipeline, in worker forks, and in presentation sorting; an unbound slot is
// an error, not a NULL.
func TestParamReadsRunVector(t *testing.T) {
	c := figure3DB()
	plan := &algebra.Select{Child: scan(t, c, "r"),
		Cond: algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("a"), R: algebra.Param{Idx: 1}}}
	for _, par := range []int{1, 4} {
		for want := int64(1); want <= 3; want++ {
			ev := New(c)
			ev.Parallelism = par
			ev.Params = []types.Value{types.NewString("unused"), types.NewInt(want)}
			out, err := ev.Eval(plan)
			if err != nil {
				t.Fatal(err)
			}
			if out.Card() != 1 || out.SortedTuples()[0][0].Int() != want {
				t.Errorf("parallelism %d, $2 = %d: got %v", par, want, out.SortedTuples())
			}
		}
	}
	if _, err := New(c).Eval(plan); err == nil || !strings.Contains(err.Error(), "not bound") {
		t.Errorf("unbound parameter: err = %v, want a not-bound error", err)
	}

	r := rel.FromTuples(schema.New("", "a"), ints(1), ints(5), ints(3))
	keys := []algebra.SortKey{{E: algebra.Arith{Op: types.OpMul, L: algebra.Attr("a"), R: algebra.Param{Idx: 0}}}}
	rows, err := SortTuples(r, keys, []types.Value{types.NewInt(-1)})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int() != 5 || rows[2][0].Int() != 1 {
		t.Errorf("sort by a * $1 with $1 = -1: %v", rows)
	}
}

func TestAllSublinkUnknownSemantics(t *testing.T) {
	// 2 < ALL {NULL, 3}: 2<3 true, 2<NULL unknown → Unknown → dropped.
	c := catalog.New()
	c.Register("r", rel.FromTuples(schema.New("", "a"), ints(2)))
	c.Register("s", rel.FromTuples(schema.New("", "c"), rel.Tuple{types.Null()}, ints(3)))
	sub := algebra.NewProject(scan(t, c, "s"), algebra.KeepCol("c"))
	op := &algebra.Select{Child: scan(t, c, "r"),
		Cond: algebra.Sublink{Kind: algebra.AllSublink, Op: types.CmpLt, Test: algebra.Attr("a"), Query: sub}}
	out := mustEval(t, c, op)
	if !out.Empty() {
		t.Errorf("ALL with NULL element should be Unknown: %s", out)
	}
	// 5 < ALL {NULL, 3} is False (3 violates) regardless of the NULL.
	c.Register("r2", rel.FromTuples(schema.New("", "a"), ints(5)))
	op2 := &algebra.Select{Child: scan(t, c, "r2"),
		Cond: algebra.Not{E: algebra.Sublink{Kind: algebra.AllSublink, Op: types.CmpLt, Test: algebra.Attr("a"), Query: sub}}}
	out2 := mustEval(t, c, op2)
	if out2.Card() != 1 {
		t.Errorf("NOT(false ALL) should keep the tuple: %s", out2)
	}
}

func TestHashedAnySemantics(t *testing.T) {
	// Uncorrelated = ANY goes through the hashed path; verify its NULL
	// semantics match the generic quantifier.
	c := catalog.New()
	c.Register("r", rel.FromTuples(schema.New("", "a"), ints(1), ints(9), rel.Tuple{types.Null()}))
	c.Register("s", rel.FromTuples(schema.New("", "c"), rel.Tuple{types.Null()}, ints(1)))
	sub := algebra.NewProject(scan(t, c, "s"), algebra.KeepCol("c"))
	op := &algebra.Select{Child: scan(t, c, "r"),
		Cond: algebra.Sublink{Kind: algebra.AnySublink, Op: types.CmpEq, Test: algebra.Attr("a"), Query: sub}}
	out := mustEval(t, c, op)
	// a=1 matches; a=9 vs {NULL,1} → Unknown (dropped, not false); a=NULL → Unknown.
	if out.Card() != 1 || out.Count(ints(1)) != 1 {
		t.Errorf("hashed ANY = %s", out)
	}
	// Empty subquery: always false, even for NULL test values.
	c.Register("empty", rel.New(schema.New("", "c")))
	subE := algebra.NewProject(scan(t, c, "empty"), algebra.KeepCol("c"))
	opE := &algebra.Select{Child: scan(t, c, "r"),
		Cond: algebra.Not{E: algebra.Sublink{Kind: algebra.AnySublink, Op: types.CmpEq, Test: algebra.Attr("a"), Query: subE}}}
	outE := mustEval(t, c, opE)
	if outE.Card() != 3 {
		t.Errorf("NOT(x = ANY empty) should keep all: %s", outE)
	}
}

func TestMaxRowsBudget(t *testing.T) {
	c := figure3DB()
	// 3×3×3×3 cross product = 81 rows materialized along the way.
	var op algebra.Op = scan(t, c, "r")
	for i := 0; i < 3; i++ {
		op = &algebra.Cross{L: op, R: algebra.NewScan("r", string(rune('x'+i)), mustSchema(t, c, "r"))}
	}
	ev := New(c)
	ev.MaxRows = 10
	_, err := ev.Eval(op)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	// A generous budget succeeds, and the counter resets between calls.
	ev.MaxRows = 10000
	if _, err := ev.Eval(op); err != nil {
		t.Fatalf("generous budget: %v", err)
	}
	if _, err := ev.Eval(op); err != nil {
		t.Fatalf("budget should reset per Eval: %v", err)
	}
}

// TestHashedAnyMatchesQuantify checks the hashed = ANY set against the
// generic quantifier over a grid of test values and sub-bags: NULLs, an
// integral float that hashes like its integer, a string no element compares
// with, and duplicates. Both executors hash uncorrelated = ANY, so this grid
// is the hashed path's only ablation.
func TestHashedAnyMatchesQuantify(t *testing.T) {
	bag := func(vs ...types.Value) *rel.Relation {
		out := rel.New(schema.New("", "c"))
		for _, v := range vs {
			out.Add(rel.Tuple{v}, 1)
		}
		return out
	}
	null, one := types.Null(), types.NewInt(1)
	bags := []struct {
		name string
		sub  *rel.Relation
	}{
		{"{}", bag()},
		{"{NULL}", bag(null)},
		{"{1}", bag(one)},
		{"{1, NULL}", bag(one, null)},
		{"{2.0}", bag(types.NewFloat(2))},
		{"{1, 1, 1.0, NULL, NULL}", bag(one, one, types.NewFloat(1), null, null)},
	}
	tests := []types.Value{null, one, types.NewFloat(1), types.NewInt(2), types.NewString("x")}
	s := algebra.Sublink{Kind: algebra.AnySublink, Op: types.CmpEq}
	ev := New(nil) // no run state: hashedAny builds its set on every call
	for _, b := range bags {
		for _, a := range tests {
			want, err := ev.quantify(s, a, b.sub)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ev.hashedAny(s, a, b.sub)
			if err != nil {
				t.Fatal(err)
			}
			if !types.NullEq(got, want) {
				t.Errorf("%s = ANY %s: hashed %s, quantify %s", a, b.name, got, want)
			}
		}
	}
}

func TestProjectionWithQualifiedOutput(t *testing.T) {
	c := figure3DB()
	op := &algebra.Project{Child: scan(t, c, "r"), Cols: []algebra.ProjExpr{
		{E: algebra.Attr("a"), As: "a", Qual: "x"},
	}}
	out := mustEval(t, c, op)
	if out.Schema.Attrs[0].Qual != "x" {
		t.Errorf("qualified projection output lost: %s", out.Schema)
	}
	// Referencing it as x.a works one level up.
	sel := &algebra.Select{Child: op, Cond: algebra.Cmp{Op: types.CmpEq, L: algebra.QAttr("x", "a"), R: algebra.IntConst(1)}}
	if out := mustEval(t, c, sel); out.Card() != 1 {
		t.Errorf("qualified reference failed: %s", out)
	}
}
