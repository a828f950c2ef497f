// Package opt is a small logical optimizer standing in for the PostgreSQL
// planner the Perm system relied on (§4.1: "the output of the provenance
// rewrite module is passed to the planner and is subject to the standard
// query optimization of PostgreSQL"). It performs three transformations:
// the first two are those without which neither the TPC-H queries nor their
// provenance rewrites are executable on a materializing engine, the third
// saves the row copies of the projections a rewrite stacks:
//
//   - selection decomposition and pushdown: σ over a cross-product chain is
//     split into conjuncts, single-relation predicates move onto their
//     relation;
//   - join extraction: equality predicates connecting two inputs of the
//     chain turn the cross products into (hash-)joins, ordered greedily so
//     every join is connected when possible;
//   - projection fusion: a projection over a bag projection becomes one
//     projection (see fuseProjects), as PostgreSQL flattens the subquery
//     layers of a rewritten query; each layer would otherwise copy every
//     witness column of every row.
//
// Predicates containing sublinks are never moved — they stay in a residual
// selection at the original level, where the evaluator's correlation scopes
// and the provenance rewrite placement remain valid.
package opt

import (
	"slices"

	"perm/internal/algebra"
	"perm/internal/schema"
	"perm/internal/types"
)

// Optimize rewrites the plan bottom-up, including the sublink queries
// embedded in operator expressions. The result is semantically equivalent
// (bag-equal output) to the input plan.
func Optimize(op algebra.Op) algebra.Op {
	switch o := op.(type) {
	case *algebra.Scan, *algebra.Values:
		return op
	case *algebra.Select:
		child := Optimize(o.Child)
		return optimizeSelect(o.Cond, child)
	case *algebra.Project:
		cols := make([]algebra.ProjExpr, len(o.Cols))
		for i, c := range o.Cols {
			cols[i] = algebra.ProjExpr{E: optimizeExpr(c.E), As: c.As, Qual: c.Qual}
		}
		return fuseProjects(&algebra.Project{Child: Optimize(o.Child), Cols: cols, Distinct: o.Distinct})
	case *algebra.Cross:
		return &algebra.Cross{L: Optimize(o.L), R: Optimize(o.R)}
	case *algebra.Join:
		return &algebra.Join{L: Optimize(o.L), R: Optimize(o.R), Cond: optimizeExpr(o.Cond)}
	case *algebra.LeftJoin:
		return &algebra.LeftJoin{L: Optimize(o.L), R: Optimize(o.R), Cond: optimizeExpr(o.Cond)}
	case *algebra.Aggregate:
		gs := make([]algebra.GroupExpr, len(o.Group))
		for i, g := range o.Group {
			gs[i] = algebra.GroupExpr{E: optimizeExpr(g.E), As: g.As, Qual: g.Qual}
		}
		as := make([]algebra.AggExpr, len(o.Aggs))
		for i, a := range o.Aggs {
			na := a
			if a.Arg != nil {
				na.Arg = optimizeExpr(a.Arg)
			}
			as[i] = na
		}
		return &algebra.Aggregate{Child: Optimize(o.Child), Group: gs, Aggs: as}
	case *algebra.SetOp:
		return &algebra.SetOp{Kind: o.Kind, Bag: o.Bag, L: Optimize(o.L), R: Optimize(o.R)}
	case *algebra.Order:
		return &algebra.Order{Child: Optimize(o.Child), Keys: o.Keys}
	case *algebra.Limit:
		return &algebra.Limit{Child: Optimize(o.Child), N: o.N, Offset: o.Offset}
	default:
		return op
	}
}

// optimizeExpr optimizes the queries inside sublinks.
func optimizeExpr(e algebra.Expr) algebra.Expr {
	return algebra.MapExpr(e, func(x algebra.Expr) algebra.Expr {
		if sl, ok := x.(algebra.Sublink); ok {
			sl.Query = Optimize(sl.Query)
			return sl
		}
		return x
	})
}

// fuseProjects rewrites Π_A(Π_B(X)) to Π_{A∘B}(X), repeating down the
// stack: each column of A with its references to B replaced by B's
// expressions for them. It fuses only when the result's bag, the number of
// times each expression is evaluated, and the first error a row raises are
// those of the stack:
//
//   - A has no sublink, whose query would see X's row instead of B's;
//   - B is a bag projection (a DISTINCT below would change multiplicities);
//   - every reference of A resolves uniquely in B's schema, or, correlated,
//     resolves nowhere in B's and X's schemas alike (no capture);
//   - every computed column of B (see computed) is passed on exactly once,
//     bare, in B's order, so it is evaluated once per row and in the same
//     order;
//   - A's computed columns read no computed column of B and follow every
//     one A passes on, so a row's errors keep their order.
func fuseProjects(p *algebra.Project) *algebra.Project {
	for {
		in, ok := p.Child.(*algebra.Project)
		if !ok || in.Distinct {
			return p
		}
		cols, ok := composeCols(p.Cols, in)
		if !ok {
			return p
		}
		p = &algebra.Project{Child: in.Child, Cols: cols, Distinct: p.Distinct}
	}
}

// composeCols returns the columns A∘B of fuseProjects, or false when one of
// its conditions fails.
func composeCols(outer []algebra.ProjExpr, in *algebra.Project) ([]algebra.ProjExpr, bool) {
	mid, below := in.Schema(), in.Child.Schema()
	var want, passed []int // B's computed columns; those A passes on, in A's order
	for j, c := range in.Cols {
		if computed(c.E) {
			want = append(want, j)
		}
	}
	outerComputed := false
	cols := make([]algebra.ProjExpr, len(outer))
	for i, c := range outer {
		if algebra.HasSublink(c.E) {
			return nil, false
		}
		if ref, bare := c.E.(algebra.AttrRef); bare {
			if j, _ := mid.Lookup(ref.Qual, ref.Name); j >= 0 && computed(in.Cols[j].E) {
				if outerComputed {
					return nil, false
				}
				passed = append(passed, j)
				cols[i] = algebra.ProjExpr{E: in.Cols[j].E, As: c.As, Qual: c.Qual}
				continue
			}
		}
		outerComputed = outerComputed || computed(c.E)
		ok := true
		e := algebra.MapExpr(c.E, func(x algebra.Expr) algebra.Expr {
			ref, isRef := x.(algebra.AttrRef)
			if !isRef {
				return x
			}
			j, amb := mid.Lookup(ref.Qual, ref.Name)
			switch {
			case amb:
				ok = false
			case j < 0:
				if k, kamb := below.Lookup(ref.Qual, ref.Name); k >= 0 || kamb {
					ok = false // X would capture the correlated name
				}
			case computed(in.Cols[j].E):
				ok = false // read inside an expression of A
			default:
				return in.Cols[j].E
			}
			return x
		})
		if !ok {
			return nil, false
		}
		cols[i] = algebra.ProjExpr{E: e, As: c.As, Qual: c.Qual}
	}
	return cols, slices.Equal(passed, want)
}

// computed reports whether a projection column computes its value: an
// attribute reference or a constant evaluates to itself wherever it is
// copied, and raises no error.
func computed(e algebra.Expr) bool {
	switch e.(type) {
	case algebra.AttrRef, algebra.Const:
		return false
	}
	return true
}

// optimizeSelect rebuilds σ_cond(child) with pushdown and join extraction.
func optimizeSelect(cond algebra.Expr, child algebra.Op) algebra.Op {
	// Push through pure pass-through projections (the provenance rewrite
	// wraps cross products in attribute-reordering projections; PostgreSQL
	// pushes quals through them, and so must we or the rewritten TPC-H
	// plans join above raw cross products).
	if p, ok := child.(*algebra.Project); ok && pureReorder(p) && condPushable(cond, p.Child.Schema()) {
		return &algebra.Project{Child: optimizeSelect(cond, p.Child), Cols: p.Cols, Distinct: p.Distinct}
	}
	// Partially pass-through projections (e.g. the Move strategy's inner
	// projection computing sublink columns): push the sublink-free
	// conjuncts whose references all map to pass-through columns.
	if p, ok := child.(*algebra.Project); ok && !p.Distinct {
		var down, up []algebra.Expr
		for _, cj := range conjuncts(cond) {
			if !algebra.HasSublink(cj) && conjPushableThroughProject(cj, p) {
				down = append(down, cj)
			} else {
				up = append(up, cj)
			}
		}
		if len(down) > 0 {
			inner := optimizeSelect(algebra.Conj(down...), p.Child)
			pushed := &algebra.Project{Child: inner, Cols: p.Cols}
			if len(up) == 0 {
				return pushed
			}
			return &algebra.Select{Child: pushed, Cond: algebra.Conj(up...)}
		}
	}
	// Push left-side-only, sublink-free conjuncts below a left outer join:
	// left rows dropped by the predicate produce no output either way.
	if lj, ok := child.(*algebra.LeftJoin); ok {
		var down, up []algebra.Expr
		for _, cj := range conjuncts(cond) {
			if !algebra.HasSublink(cj) && resolvesIn(cj, lj.L.Schema()) {
				down = append(down, cj)
			} else {
				up = append(up, cj)
			}
		}
		if len(down) > 0 {
			pushed := &algebra.LeftJoin{L: optimizeSelect(algebra.Conj(down...), lj.L), R: lj.R, Cond: lj.Cond}
			if len(up) == 0 {
				return pushed
			}
			return &algebra.Select{Child: pushed, Cond: algebra.Conj(up...)}
		}
	}
	leaves := crossLeaves(child)
	conjs := conjuncts(optimizeExpr(cond))
	if len(leaves) == 1 {
		// Nothing to reorder; still merge nested selections.
		return &algebra.Select{Child: child, Cond: algebra.Conj(conjs...)}
	}

	var residual []algebra.Expr
	pushed := make([][]algebra.Expr, len(leaves)) // per-leaf predicates
	var joinPreds []algebra.Expr                  // two-sided equalities
	schemas := make([]schema.Schema, len(leaves))
	for i, l := range leaves {
		schemas[i] = l.Schema()
	}
	for _, cj := range conjs {
		if algebra.HasSublink(cj) {
			residual = append(residual, cj)
			continue
		}
		covered := coveredLeaves(cj, schemas)
		switch {
		case covered == nil:
			residual = append(residual, cj) // correlated or unresolvable
		case len(covered) == 1:
			pushed[covered[0]] = append(pushed[covered[0]], cj)
		case len(covered) == 2 && isEquiPred(cj):
			joinPreds = append(joinPreds, cj)
		default:
			residual = append(residual, cj)
		}
	}

	// Apply single-leaf predicates, optimized into the leaf: a leaf that is
	// itself a cross product under a projection (the rewriter's shape for
	// every FROM list) turns its product into joins.
	for i := range leaves {
		if len(pushed[i]) > 0 {
			leaves[i] = optimizeSelect(algebra.Conj(pushed[i]...), leaves[i])
		}
	}

	// Greedy connected join order: start from leaf 0, repeatedly attach a
	// leaf connected by at least one join predicate; cross products only
	// when nothing connects.
	used := make([]bool, len(leaves))
	plan := leaves[0]
	used[0] = true
	remainingPreds := append([]algebra.Expr{}, joinPreds...)
	for count := 1; count < len(leaves); count++ {
		next, preds := pickConnected(plan, leaves, used, remainingPreds)
		if next < 0 {
			// No connected leaf: cross with the first unused one.
			for i := range leaves {
				if !used[i] {
					next = i
					break
				}
			}
		}
		if len(preds) > 0 {
			plan = &algebra.Join{L: plan, R: leaves[next], Cond: algebra.Conj(preds...)}
		} else {
			plan = &algebra.Cross{L: plan, R: leaves[next]}
		}
		used[next] = true
		remainingPreds = removePreds(remainingPreds, preds)
	}
	// Any join predicate never placed (e.g. spanning three leaves was
	// filtered earlier, so this covers predicates between leaves joined via
	// other paths) goes to the residual.
	residual = append(residual, remainingPreds...)
	if len(residual) == 0 {
		return plan
	}
	return &algebra.Select{Child: plan, Cond: algebra.Conj(residual...)}
}

// pureReorder reports whether a projection only passes attributes through
// under their original names and qualifiers (the shape the provenance
// rewrite emits to restore its schema invariant). Selections commute with
// such projections.
func pureReorder(p *algebra.Project) bool {
	if p.Distinct {
		return false
	}
	for _, c := range p.Cols {
		ref, ok := c.E.(algebra.AttrRef)
		if !ok || ref.Name != c.As || ref.Qual != c.Qual {
			return false
		}
	}
	return true
}

// condPushable reports whether every attribute reference the condition can
// resolve — including correlated references escaping its sublink queries —
// resolves unambiguously against the deeper schema. References that resolve
// nowhere below bind to enclosing scopes and are unaffected by the push.
func condPushable(cond algebra.Expr, below schema.Schema) bool {
	ok := true
	check := func(ref algebra.AttrRef) {
		if _, amb := below.Lookup(ref.Qual, ref.Name); amb {
			ok = false
		}
	}
	algebra.WalkExpr(cond, func(x algebra.Expr) bool {
		switch v := x.(type) {
		case algebra.AttrRef:
			check(v)
		case algebra.Sublink:
			for _, fv := range algebra.FreeVars(v.Query) {
				check(fv)
			}
			if v.Test != nil {
				algebra.WalkExpr(v.Test, func(y algebra.Expr) bool {
					if r, isRef := y.(algebra.AttrRef); isRef {
						check(r)
					}
					return ok
				})
			}
			return false
		}
		return ok
	})
	return ok
}

// conjPushableThroughProject reports whether every attribute reference of a
// (sublink-free) conjunct maps to a pass-through column of the projection
// and resolves to the same attribute below — i.e. the conjunct commutes
// with the projection. References the projection's schema does not provide
// bind to enclosing scopes; they must not be captured by the deeper schema.
func conjPushableThroughProject(cj algebra.Expr, p *algebra.Project) bool {
	outSch := p.Schema()
	below := p.Child.Schema()
	ok := true
	algebra.WalkExpr(cj, func(x algebra.Expr) bool {
		ref, isRef := x.(algebra.AttrRef)
		if !isRef {
			return ok
		}
		idx, amb := outSch.Lookup(ref.Qual, ref.Name)
		if amb {
			ok = false
			return false
		}
		if idx < 0 {
			// Correlated outward: pushing must not capture the name below.
			if bi, bamb := below.Lookup(ref.Qual, ref.Name); bi >= 0 || bamb {
				ok = false
			}
			return ok
		}
		src, isPass := p.Cols[idx].E.(algebra.AttrRef)
		if !isPass {
			ok = false
			return false
		}
		// The reference must resolve below to exactly the column the
		// projection passed through.
		want, wamb := below.Lookup(src.Qual, src.Name)
		got, gamb := below.Lookup(ref.Qual, ref.Name)
		if wamb || gamb || want < 0 || want != got {
			ok = false
		}
		return ok
	})
	return ok
}

// crossLeaves flattens a chain of Cross operators into its leaves, each
// optimized. Any non-Cross operator is a leaf.
func crossLeaves(op algebra.Op) []algebra.Op {
	if c, ok := op.(*algebra.Cross); ok {
		return append(crossLeaves(c.L), crossLeaves(c.R)...)
	}
	return []algebra.Op{op}
}

func conjuncts(e algebra.Expr) []algebra.Expr {
	if a, ok := e.(algebra.And); ok {
		return append(conjuncts(a.L), conjuncts(a.R)...)
	}
	return []algebra.Expr{e}
}

// coveredLeaves returns the indexes of the leaves a predicate's attribute
// references resolve in, or nil if any reference resolves in none of them
// (correlated) or ambiguously within one.
func coveredLeaves(e algebra.Expr, schemas []schema.Schema) []int {
	ok := true
	seen := map[int]bool{}
	algebra.WalkExpr(e, func(x algebra.Expr) bool {
		ref, isRef := x.(algebra.AttrRef)
		if !isRef {
			return ok
		}
		found := -1
		for i, s := range schemas {
			if idx, amb := s.Lookup(ref.Qual, ref.Name); amb {
				ok = false
				return false
			} else if idx >= 0 {
				if found >= 0 {
					ok = false // resolves in two leaves: ambiguous
					return false
				}
				found = i
			}
		}
		if found < 0 {
			ok = false
			return false
		}
		seen[found] = true
		return true
	})
	if !ok {
		return nil
	}
	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	return out
}

// isEquiPred reports whether the predicate is an equality (or =n) between
// two expressions — the shape the hash join can use.
func isEquiPred(e algebra.Expr) bool {
	switch c := e.(type) {
	case algebra.Cmp:
		return c.Op == types.CmpEq
	case algebra.NullEq:
		return true
	default:
		return false
	}
}

// pickConnected finds an unused leaf connected to the current plan by at
// least one join predicate and returns its index with all predicates that
// become valid once it joins.
func pickConnected(plan algebra.Op, leaves []algebra.Op, used []bool, preds []algebra.Expr) (int, []algebra.Expr) {
	for i := range leaves {
		if used[i] {
			continue
		}
		var here []algebra.Expr
		joined := plan.Schema().Concat(leaves[i].Schema())
		for _, p := range preds {
			if resolvesIn(p, joined) && !resolvesIn(p, plan.Schema()) && !resolvesIn(p, leaves[i].Schema()) {
				here = append(here, p)
			}
		}
		if len(here) > 0 {
			return i, here
		}
	}
	return -1, nil
}

// resolvesIn reports whether every attribute reference of e resolves
// (uniquely) in sch.
func resolvesIn(e algebra.Expr, sch schema.Schema) bool {
	ok := true
	algebra.WalkExpr(e, func(x algebra.Expr) bool {
		if ref, isRef := x.(algebra.AttrRef); isRef {
			if idx, amb := sch.Lookup(ref.Qual, ref.Name); idx < 0 || amb {
				ok = false
			}
		}
		return ok
	})
	return ok
}

func removePreds(all, picked []algebra.Expr) []algebra.Expr {
	var out []algebra.Expr
	for _, p := range all {
		keep := true
		for _, q := range picked {
			if algebra.ExprEqual(p, q) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, p)
		}
	}
	return out
}
