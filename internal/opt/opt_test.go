package opt

import (
	"fmt"
	"testing"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/eval"
	"perm/internal/rel"
	"perm/internal/rewrite"
	"perm/internal/schema"
	"perm/internal/sql"
	"perm/internal/types"
)

func ints(vals ...int64) rel.Tuple {
	t := make(rel.Tuple, len(vals))
	for i, v := range vals {
		t[i] = types.NewInt(v)
	}
	return t
}

func testDB() *catalog.Catalog {
	c := catalog.New()
	c.Register("r", rel.FromTuples(schema.New("", "a", "b"), ints(1, 1), ints(2, 1), ints(3, 2)))
	c.Register("s", rel.FromTuples(schema.New("", "c", "d"), ints(1, 3), ints(2, 4), ints(4, 5)))
	c.Register("u", rel.FromTuples(schema.New("", "e"), ints(3), ints(4)))
	return c
}

// countOps counts operator node kinds in a plan (descending into sublinks).
func countOps(op algebra.Op) map[string]int {
	counts := map[string]int{}
	algebra.Walk(op, func(o algebra.Op) bool {
		counts[fmt.Sprintf("%T", o)]++
		return true
	})
	return counts
}

func TestJoinExtraction(t *testing.T) {
	c := testDB()
	tr, err := sql.Compile(c, "SELECT a, d, e FROM r, s, u WHERE a = c AND d > e AND b = 1")
	if err != nil {
		t.Fatal(err)
	}
	before, err := eval.New(c).Eval(tr.Plan)
	if err != nil {
		t.Fatal(err)
	}
	optimized := Optimize(tr.Plan)
	after, err := eval.New(c).Eval(optimized)
	if err != nil {
		t.Fatalf("optimized plan failed: %v\n%s", err, algebra.Indent(optimized))
	}
	if !after.Equal(before.WithSchema(after.Schema)) {
		t.Fatalf("optimizer changed semantics:\nbefore %s\nafter  %s", before, after)
	}
	counts := countOps(optimized)
	if counts["*algebra.Join"] == 0 {
		t.Errorf("expected a join after extraction:\n%s", algebra.Indent(optimized))
	}
}

func TestPushdownKeepsCorrelatedPredicatesInPlace(t *testing.T) {
	c := testDB()
	// The sublink predicate must stay at the top; the join predicate moves.
	q := "SELECT a FROM r, s WHERE a = c AND b = ANY (SELECT e FROM u WHERE e > d)"
	tr, err := sql.Compile(c, q)
	if err != nil {
		t.Fatal(err)
	}
	before, err := eval.New(c).Eval(tr.Plan)
	if err != nil {
		t.Fatal(err)
	}
	optimized := Optimize(tr.Plan)
	after, err := eval.New(c).Eval(optimized)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Equal(before.WithSchema(after.Schema)) {
		t.Fatalf("optimizer changed semantics of sublink query:\nbefore %s\nafter  %s", before, after)
	}
}

// TestOptimizePreservesSemantics fuzzes the optimizer against the naive
// plans over a set of query shapes, comparing bag-equality of results.
func TestOptimizePreservesSemantics(t *testing.T) {
	c := testDB()
	queries := []string{
		"SELECT * FROM r",
		"SELECT a, c FROM r, s WHERE a = c",
		"SELECT a, c, e FROM r, s, u WHERE a = c AND c = e",
		"SELECT a, c, e FROM r, s, u WHERE a = c AND b < e",
		"SELECT a FROM r, s WHERE a < c",
		"SELECT b, sum(a) AS t FROM r, s WHERE a = c GROUP BY b",
		"SELECT a FROM r WHERE a IN (SELECT c FROM s WHERE d > 3)",
		"SELECT a FROM r WHERE EXISTS (SELECT * FROM s, u WHERE c = e AND c = a)",
		"SELECT a FROM r LEFT JOIN s ON a = c WHERE b = 1",
		"SELECT a FROM r UNION SELECT c FROM s",
		"SELECT a FROM r WHERE a = (SELECT min(c) FROM s, u WHERE c = e)",
	}
	for _, q := range queries {
		tr, err := sql.Compile(c, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		before, err := eval.New(c).Eval(tr.Plan)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		optimized := Optimize(tr.Plan)
		after, err := eval.New(c).Eval(optimized)
		if err != nil {
			t.Fatalf("%s (optimized): %v\n%s", q, err, algebra.Indent(optimized))
		}
		if !after.Equal(before.WithSchema(after.Schema)) {
			t.Errorf("%s: optimizer changed result\nbefore %s\nafter  %s", q, before, after)
		}
	}
}

// TestPushdownThroughReorderProjection checks that selections commute with
// the pass-through projections the provenance rewrite emits, so the join
// extraction reaches the underlying cross products.
func TestPushdownThroughReorderProjection(t *testing.T) {
	c := testDB()
	tr, err := sql.Compile(c, "SELECT a FROM r, s WHERE a = c AND d > 3")
	if err != nil {
		t.Fatal(err)
	}
	res, err := rewrite.Rewrite(tr.Plan, rewrite.Gen)
	if err != nil {
		t.Fatal(err)
	}
	optimized := Optimize(res.Plan)
	counts := countOps(optimized)
	if counts["*algebra.Join"] == 0 {
		t.Errorf("join extraction blocked by reorder projection:\n%s", algebra.Indent(optimized))
	}
	if counts["*algebra.Cross"] != 0 {
		t.Errorf("cross product left behind:\n%s", algebra.Indent(optimized))
	}
	// Semantics preserved.
	before, err := eval.New(c).Eval(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	after, err := eval.New(c).Eval(optimized)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Equal(before.WithSchema(after.Schema)) {
		t.Error("pushdown changed semantics")
	}
}

// TestPushdownThroughMoveProjection checks the partial rule: conjuncts over
// pass-through columns sink below a projection that also computes sublink
// columns (the Move strategy's inner projection).
func TestPushdownThroughMoveProjection(t *testing.T) {
	c := testDB()
	tr, err := sql.Compile(c, "SELECT a FROM r, s WHERE a = c AND b = ANY (SELECT e FROM u)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := rewrite.Rewrite(tr.Plan, rewrite.Move)
	if err != nil {
		t.Fatal(err)
	}
	optimized := Optimize(res.Plan)
	if countOps(optimized)["*algebra.Join"] == 0 {
		t.Errorf("a = c did not reach the cross product below the Move projection:\n%s", algebra.Indent(optimized))
	}
	before, err := eval.New(c).Eval(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	after, err := eval.New(c).Eval(optimized)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Equal(before.WithSchema(after.Schema)) {
		t.Error("partial pushdown changed semantics")
	}
}

// TestPushdownLeftJoin checks left-side-only conjuncts sink below a left
// outer join.
func TestPushdownLeftJoin(t *testing.T) {
	c := testDB()
	tr, err := sql.Compile(c, "SELECT a FROM r LEFT JOIN s ON a = c WHERE b = 1 AND a < 3")
	if err != nil {
		t.Fatal(err)
	}
	before, err := eval.New(c).Eval(tr.Plan)
	if err != nil {
		t.Fatal(err)
	}
	optimized := Optimize(tr.Plan)
	after, err := eval.New(c).Eval(optimized)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Equal(before.WithSchema(after.Schema)) {
		t.Error("left join pushdown changed semantics")
	}
	// The top-level operator should no longer be the selection.
	if _, isSel := optimized.(*algebra.Select); isSel {
		t.Errorf("selection not pushed below left join:\n%s", algebra.Indent(optimized))
	}
}

// TestOptimizeRewrittenPlans runs the optimizer over provenance-rewritten
// plans of every strategy and checks result preservation — this is the
// production path (rewrite, then plan, then execute, as in Perm).
func TestOptimizeRewrittenPlans(t *testing.T) {
	c := testDB()
	queries := []string{
		"SELECT a FROM r WHERE a = ANY (SELECT c FROM s)",
		"SELECT a FROM r WHERE b < ALL (SELECT d FROM s WHERE c > 1)",
		"SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE c > 2)",
	}
	for _, q := range queries {
		tr, err := sql.Compile(c, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []rewrite.Strategy{rewrite.Gen, rewrite.Left, rewrite.Move} {
			res, err := rewrite.Rewrite(tr.Plan, strat)
			if err != nil {
				t.Fatal(err)
			}
			before, err := eval.New(c).Eval(res.Plan)
			if err != nil {
				t.Fatal(err)
			}
			optimized := Optimize(res.Plan)
			after, err := eval.New(c).Eval(optimized)
			if err != nil {
				t.Fatalf("%s/%v optimized: %v", q, strat, err)
			}
			if !after.Equal(before.WithSchema(after.Schema)) {
				t.Errorf("%s/%v: optimizer changed provenance result", q, strat)
			}
		}
	}
}

// TestPushedPredicatesJoinInsideLeaf: a predicate pushed onto a cross leaf
// is optimized into it. The leaf here is the rewriter's shape for a FROM
// list, Π(r × s) — Gen rewrites Q16's `partsupp, part` this way — beside a
// CrossBase leaf the predicate does not read; p_partkey = ps_partkey's
// stand-in a = c must become a join inside the leaf, not a filter over its
// product.
func TestPushedPredicatesJoinInsideLeaf(t *testing.T) {
	c := testDB()
	tr, err := sql.Compile(c, "SELECT PROVENANCE a FROM r, s WHERE a = c AND b = ANY (SELECT e FROM u)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := rewrite.Rewrite(tr.Plan, rewrite.Gen)
	if err != nil {
		t.Fatal(err)
	}
	before, err := eval.New(c).Eval(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	optimized := Optimize(res.Plan)
	after, err := eval.New(c).Eval(optimized)
	if err != nil {
		t.Fatalf("optimized plan failed: %v\n%s", err, algebra.Indent(optimized))
	}
	if !after.Equal(before.WithSchema(after.Schema)) {
		t.Fatalf("optimizer changed semantics:\nbefore %s\nafter  %s", before, after)
	}
	// The only cross product left is the one pairing the input with the
	// CrossBase, whose right side reads u.
	var crosses []*algebra.Cross
	algebra.Walk(optimized, func(o algebra.Op) bool {
		if x, ok := o.(*algebra.Cross); ok {
			crosses = append(crosses, x)
		}
		return true
	})
	if len(crosses) != 1 || countOps(crosses[0].L)["*algebra.Join"] != 1 || countOps(crosses[0].L)["*algebra.Cross"] != 0 {
		t.Errorf("want one Cross whose left input joins r and s:\n%s", algebra.Indent(optimized))
	}
}

// stackedProjects counts the projections directly over a projection in a
// plan (descending into sublinks).
func stackedProjects(op algebra.Op) int {
	n := 0
	algebra.Walk(op, func(o algebra.Op) bool {
		if p, ok := o.(*algebra.Project); ok {
			if _, ok := p.Child.(*algebra.Project); ok {
				n++
			}
		}
		return true
	})
	return n
}

// outcome runs a plan and renders its bag, sorted, or its error.
func outcome(c *catalog.Catalog, plan algebra.Op, materialize bool) string {
	ev := eval.New(c)
	ev.DisableStreaming = materialize
	out, err := ev.Eval(plan)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(out.SortedTuples())
}

// TestFuseProjects: Π_A(Π_B(X)) becomes one projection exactly where that
// keeps the bag, how often each expression is evaluated, and the first
// error a row raises; every declined case names the condition that fails.
// Relation z holds a zero divisor, so a computed column wrongly dropped or
// moved changes the outcome, not only the plan.
func TestFuseProjects(t *testing.T) {
	c := testDB()
	c.Register("z", rel.FromTuples(schema.New("", "a", "b"), ints(1, 0), ints(2, 1)))
	scan := func(name, alias string) algebra.Op {
		r, err := c.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		return algebra.NewScan(name, alias, r.Schema)
	}
	a, b, x := algebra.Attr("a"), algebra.Attr("b"), algebra.Attr("x")
	arith := func(op types.ArithOp, l, r algebra.Expr) algebra.Expr { return algebra.Arith{Op: op, L: l, R: r} }
	pass := algebra.KeepCol
	proj := algebra.NewProject
	// inv is 1/b AS x: it fails on z's first row.
	inv := algebra.Col(arith(types.OpDiv, algebra.IntConst(1), b), "x")
	double := algebra.Col(arith(types.OpMul, a, algebra.IntConst(2)), "x")
	anyOf := func(test algebra.Expr, q algebra.Op) algebra.Expr {
		return algebra.Sublink{Kind: algebra.AnySublink, Op: types.CmpEq, Test: test, Query: q}
	}
	for _, tc := range []struct {
		name string
		plan algebra.Op
		fuse bool
	}{
		{"computed passed once in order, then A's own over pass-through",
			proj(proj(scan("z", ""), pass("a"), pass("b"), inv),
				algebra.Col(a, "k"), pass("x"), algebra.Col(arith(types.OpAdd, a, b), "s")), true},
		{"three levels",
			proj(proj(proj(scan("r", ""), pass("a"), double), pass("x"), pass("a")), pass("x")), true},
		{"DISTINCT over a bag projection",
			&algebra.Project{Child: proj(scan("r", ""), pass("b"), pass("a")), Cols: []algebra.ProjExpr{pass("b")}, Distinct: true}, true},
		{"correlated name X does not have",
			&algebra.Select{Child: scan("s", ""), Cond: anyOf(algebra.Attr("d"),
				proj(proj(scan("r", ""), algebra.Col(a, "x")), algebra.Col(arith(types.OpMul, x, algebra.Attr("c")), "k")))}, true},

		{"outer sublink",
			proj(proj(scan("r", ""), pass("a"), pass("b")),
				pass("a"), algebra.Col(anyOf(b, proj(scan("u", ""), pass("e"))), "m")), false},
		{"inner DISTINCT",
			proj(&algebra.Project{Child: scan("r", ""), Cols: []algebra.ProjExpr{pass("a"), pass("b")}, Distinct: true}, pass("a")), false},
		{"computed column dropped",
			proj(proj(scan("z", ""), pass("a"), inv), pass("a")), false},
		{"computed column used twice",
			proj(proj(scan("z", ""), pass("a"), inv), pass("x"), algebra.Col(x, "y")), false},
		{"computed column inside an expression of A",
			proj(proj(scan("z", ""), pass("a"), inv), pass("x"), algebra.Col(arith(types.OpAdd, x, a), "y")), false},
		{"computed columns out of B's order",
			proj(proj(scan("r", ""), double, algebra.Col(arith(types.OpAdd, a, b), "w")), pass("w"), pass("x")), false},
		{"A's own computed column before a computed column of B",
			proj(proj(scan("z", ""), pass("a"), inv),
				algebra.Col(arith(types.OpAdd, a, algebra.StrConst("q")), "y"), pass("x")), false},
		{"correlated name X would capture",
			&algebra.Select{Child: scan("r", ""), Cond: anyOf(a,
				proj(proj(scan("r", "r2"), algebra.Col(a, "x")), algebra.Col(b, "k")))}, false},
		{"ambiguous name",
			proj(proj(scan("r", ""), algebra.ProjExpr{E: a, As: "x", Qual: "p"}, algebra.ProjExpr{E: b, As: "x", Qual: "q"}),
				pass("x")), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			optimized := Optimize(tc.plan)
			if fused := stackedProjects(optimized) == 0; fused != tc.fuse {
				t.Errorf("fused = %v, want %v:\n%s", fused, tc.fuse, algebra.Indent(optimized))
			}
			for _, materialize := range []bool{false, true} {
				if want, got := outcome(c, tc.plan, materialize), outcome(c, optimized, materialize); got != want {
					t.Errorf("materialize=%v: optimized plan gives %s, want %s", materialize, got, want)
				}
			}
		})
	}
}
