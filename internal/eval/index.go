package eval

import (
	"cmp"
	"slices"
	"strconv"

	"perm/internal/algebra"
	"perm/internal/rel"
	"perm/internal/types"
)

// A selection evaluated under enclosing scopes whose condition correlates
// its input with them — conjuncts x = y or x =n y, x reading only the input
// and y only enclosing scopes — is what every binding of a correlated probe
// re-runs: q3's σ[b = r1.b](r2), and the σ[P =n P′] of Gen's per-pair
// EXISTS. The streaming executor answers it from a hash index on x; the
// package documentation states when, and why that keeps exactly the rows
// and errors of the literal filter.

// indexSplit is the index plan of one selection: its condition split into
// probe keys over enclosing scopes, build keys over the input and a
// residual, and the slots of enclosing scopes the input reads. shared is
// the key its index is attached to the base relation under when the input
// is a bare scan hashed on columns (sharedKey), "" otherwise.
type indexSplit struct {
	equiKeys
	free   []algebra.Ref
	shared string
}

// splitSelect returns the index plan of a selection, or nil when its
// condition has no correlation key or the selection must keep the literal
// filter.
func splitSelect(o *algebra.Select) *indexSplit {
	if !errorFree(o.Cond) || !errorFreeQuery(o.Child) {
		return nil
	}
	keys := splitEqui(o.Cond, func(x algebra.Expr) int {
		switch {
		case readsOnly(x, func(r algebra.Ref) bool { return r.Depth > 0 }):
			return probeSide
		case readsOnly(x, func(r algebra.Ref) bool { return r.Depth == 0 }):
			return buildSide
		}
		return noSide
	})
	if len(keys.pairs) == 0 {
		return nil
	}
	split := &indexSplit{equiKeys: keys, free: freeSlots(o.Child)}
	if _, ok := o.Child.(*algebra.Scan); ok {
		split.shared = sharedKey(&split.equiKeys)
	}
	return split
}

// sharedKey names the index of a scan's relation hashed on the build keys:
// the columns and the = or =n of each key, the two things besides the slots
// that decide which slot falls in which bucket. It sorts the keys by column
// first, so one column set names one index whatever order the query wrote
// its conjuncts in. It is "" when a build key is not a column, since a
// computed key may differ per statement, and when a column is keyed twice
// (u.b = x AND u.b = y), which would name one more index over the buckets
// of u.b.
func sharedKey(keys *equiKeys) string {
	col := func(k equiKey) int32 { return k.build.(algebra.Ref).Idx }
	for _, k := range keys.pairs {
		if r, ok := k.build.(algebra.Ref); !ok || r.Depth != 0 {
			return ""
		}
	}
	byCol := func(a, b equiKey) int { return cmp.Compare(col(a), col(b)) }
	sorted := keys.pairs
	if !slices.IsSortedFunc(sorted, byCol) {
		sorted = slices.Clone(sorted)
		slices.SortFunc(sorted, byCol)
	}
	key := []byte("eval.index")
	for n, k := range sorted {
		if n > 0 && col(k) == col(sorted[n-1]) {
			return ""
		}
		key = strconv.AppendInt(append(key, ' '), int64(col(k)), 10)
		if k.nullEq {
			key = append(key, 'n')
		}
	}
	keys.pairs = sorted
	return string(key)
}

// errorFree reports whether evaluating the condition x can raise no error:
// comparisons, =n and IS NULL over references, constants and parameters,
// combined with AND, OR and NOT, and EXISTS, ANY and ALL sublinks over
// error-free queries. A bare reference or parameter is a condition only as a
// comparison operand: one that is not boolean is an error. Arithmetic,
// functions, CAST, CASE and scalar sublinks can raise, and are declined.
func errorFree(x algebra.Expr) bool {
	switch c := x.(type) {
	case algebra.Cmp:
		return errorFreeOperand(c.L) && errorFreeOperand(c.R)
	case algebra.NullEq:
		return errorFreeOperand(c.L) && errorFreeOperand(c.R)
	case algebra.IsNull:
		return errorFreeOperand(c.E)
	case algebra.And:
		return errorFree(c.L) && errorFree(c.R)
	case algebra.Or:
		return errorFree(c.L) && errorFree(c.R)
	case algebra.Not:
		return errorFree(c.E)
	case algebra.Const:
		return c.Val.Kind() == types.KindBool || c.Val.IsNull()
	case algebra.Sublink:
		switch c.Kind {
		case algebra.ExistsSublink:
			return errorFreeQuery(c.Query)
		case algebra.AnySublink, algebra.AllSublink:
			return errorFreeOperand(c.Test) && c.Query.Schema().Len() == 1 && errorFreeQuery(c.Query)
		}
	}
	return false
}

// errorFreeOperand reports whether a comparison operand can raise no error.
func errorFreeOperand(x algebra.Expr) bool {
	switch x.(type) {
	case algebra.Ref, algebra.Const, algebra.Param:
		return true
	}
	return errorFree(x)
}

// errorFreeQuery reports whether a query can raise no error: scans,
// selections, projections, products and joins over error-free expressions.
// Aggregates and VALUES are declined.
func errorFreeQuery(op algebra.Op) bool {
	switch o := op.(type) {
	case *algebra.Scan:
		return true
	case *algebra.Select:
		return errorFree(o.Cond) && errorFreeQuery(o.Child)
	case *algebra.Project:
		for _, c := range o.Cols {
			if !errorFreeOperand(c.E) {
				return false
			}
		}
		return errorFreeQuery(o.Child)
	case *algebra.Cross:
		return errorFreeQuery(o.L) && errorFreeQuery(o.R)
	case *algebra.Join:
		return errorFree(o.Cond) && errorFreeQuery(o.L) && errorFreeQuery(o.R)
	}
	return false
}

// freeSlots returns the slots of enclosing scopes op's subtree reads,
// relative to op's own scope — as a sublink's Free is relative to the
// sublink — in (depth, slot) order.
func freeSlots(op algebra.Op) []algebra.Ref {
	var free []algebra.Ref
	var visit func(op algebra.Op)
	visit = func(op algebra.Op) {
		exprs := algebra.OperatorExprs(op)
		if v, ok := op.(*algebra.Values); ok {
			// VALUES rows have no input: their references all read
			// enclosing scopes.
			for _, row := range v.Rows {
				exprs = append(exprs, row...)
			}
		}
		for _, x := range exprs {
			free = append(free, exprFree(x)...)
		}
		for _, c := range op.Children() {
			visit(c)
		}
	}
	visit(op)
	return sortRefs(free)
}

// exprFree returns the slots of enclosing scopes an expression reads,
// relative to the expression's own scope, unsorted.
func exprFree(x algebra.Expr) []algebra.Ref {
	var free []algebra.Ref
	algebra.WalkExpr(x, func(x algebra.Expr) bool {
		switch v := x.(type) {
		case algebra.Ref:
			if v.Depth > 0 {
				free = append(free, v)
			}
		case algebra.Sublink:
			for _, r := range v.Free {
				if r.Depth > 1 {
					free = append(free, algebra.Ref{Depth: r.Depth - 1, Idx: r.Idx})
				}
			}
		}
		return true
	})
	return free
}

// sortRefs sorts slots in (depth, slot) order and drops duplicates.
func sortRefs(free []algebra.Ref) []algebra.Ref {
	slices.SortFunc(free, func(a, b algebra.Ref) int {
		return cmp.Or(cmp.Compare(a.Depth, b.Depth), cmp.Compare(a.Idx, b.Idx))
	})
	return slices.Compact(free)
}

// selectPlan is how the streaming executor answers one selection: by
// generation (gen.go) or from a hash index. A selection without one runs
// the literal filter.
type selectPlan struct {
	gen   *genPlan
	index *indexSplit
}

// selectPlan lowers a selection; nil for the literal filter.
func (l *lowering) selectPlan(o *algebra.Select) *selectPlan {
	p := &selectPlan{}
	if _, ok := o.Child.(*algebra.Cross); ok {
		p.gen = l.planGen(o)
	}
	if p.gen == nil {
		p.index = splitSelect(o)
	}
	if p.gen == nil && p.index == nil {
		return nil
	}
	return p
}

// selectOf returns the plan of selection node id of the running plan,
// nil for the literal filter.
func (e *Evaluator) selectOf(id int32) *selectPlan {
	if n := e.node(id); n.phys >= 0 {
		return e.shared.plan.selects[n.phys]
	}
	return nil
}

// indexedSelect answers selection node id, evaluated under enclosing
// scopes, from its hash index, and reports false when the literal filter
// must run instead: this is no call under enclosing scopes, or the first
// call for the binding of its input's free slots.
func (e *Evaluator) indexedSelect(o *algebra.Select, id int32, split *indexSplit, outer []rel.Tuple, emit emitFn) (bool, error) {
	if len(outer) == 0 {
		return false, nil
	}
	var buf [64]byte
	binding := appendParamKey(buf[:0], split.free, outer)
	ix, seen := e.shared.indexes.get(id, binding)
	if !seen {
		// The first call for a binding runs the literal filter and marks
		// the binding, so a selection evaluated once never builds.
		e.shared.indexes.put(id, binding, nil)
		return false, nil
	}
	if ix == nil {
		var err error
		if ix, err = e.selectIndex(o, id, split, outer); err != nil {
			return true, err
		}
		e.shared.indexes.put(id, binding, ix)
	}
	e.shared.indexProbes++
	b, err := e.find(ix, &split.equiKeys, nil, outer)
	if err != nil {
		return true, err
	}
	for _, i := range ix.bucket(b) {
		if err := e.tick(); err != nil {
			return true, err
		}
		t, n := ix.in.Slot(int(i))
		if split.residual != nil {
			keep, err := e.evalCond(split.residual, t, outer)
			if err != nil {
				return true, err
			}
			if keep != types.True {
				continue
			}
		}
		if err := emit(t, n); err != nil {
			return true, err
		}
	}
	return true, nil
}

// selectIndex returns the index of a selection's input under the binding
// of outer. An index over a bare scan's relation is the table baseIndex
// attaches to that relation version, shared by every later run that reads
// it. Stats.IndexBuilds counts the indexes this run built: a hit on an
// attached one counts only in IndexProbes. Any other input is built for
// this run alone and charged like a hash-join build, by eval: one row per
// row group of an input that had to be materialized.
func (e *Evaluator) selectIndex(o *algebra.Select, id int32, split *indexSplit, outer []rel.Tuple) (*slotIndex, error) {
	cid := e.kid(id, 0)
	if split.shared != "" {
		base, err := e.scan(o.Child.(*algebra.Scan), cid)
		if err != nil {
			return nil, err
		}
		ix, built, err := e.baseIndex(base, split.shared, &split.equiKeys)
		if built {
			e.shared.indexBuilds++
		}
		return ix, err
	}
	in, err := e.eval(o.Child, cid, outer)
	if err != nil {
		return nil, err
	}
	ix, err := e.buildIndex(&split.equiKeys, in, outer)
	if err != nil {
		return nil, err
	}
	e.shared.indexBuilds++
	return ix, nil
}

// baseIndex returns the table of a base relation (the catalog's pointer,
// not a scan's view) hashed on keys.build, column references named by key
// (sharedKey), and reports whether this call built it. The table is
// attached to that relation version and shared by every run that reads
// it, in any statement or session, whether a correlated selection or a
// join's build side asks for it: the same columns name the same table. Two
// runs that build it at once publish the first and discard the second. A
// build that fails or is cancelled returns before it publishes, and one
// over a relation that holds rel's cap of attached values serves this run
// alone.
func (e *Evaluator) baseIndex(base *rel.Relation, key string, keys *equiKeys) (*slotIndex, bool, error) {
	if ix, ok := base.Attached(key).(*slotIndex); ok {
		return ix, false, nil
	}
	ix, err := e.buildIndex(keys, base, nil)
	if err != nil {
		return nil, false, err
	}
	return base.Attach(key, ix).(*slotIndex), true, nil
}
