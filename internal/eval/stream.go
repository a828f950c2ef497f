package eval

import (
	"container/heap"
	"errors"
	"fmt"

	"perm/internal/algebra"
	"perm/internal/rel"
	"perm/internal/types"
)

// emitFn is the consumer callback of the push pipeline: an operator calls
// it once per produced row group (a tuple with multiplicity n > 0).
// Returning errStop tells the producer that the consumer is satisfied;
// returning any other error aborts the whole evaluation.
type emitFn func(t rel.Tuple, n int) error

// errStop is the pipeline stop signal. It travels the same path as real
// errors — up through every producer of the pipeline, ending the scans at
// the bottom — and is absorbed by the operator that raised it (a satisfied
// LIMIT, an EXISTS probe that found its row). It must never escape Eval.
var errStop = errors.New("eval: pipeline stop")

// stream pushes the plan's output rows into emit. Pipeline breakers — sort,
// aggregation, hash-join and nested-loop build sides, set-operation inputs,
// DISTINCT's dedup state — materialize exactly the state their semantics
// force; everything else forwards rows one by one.
func (e *Evaluator) stream(op algebra.Op, id int32, outer []rel.Tuple, emit emitFn) error {
	if err := e.tick(); err != nil {
		return err
	}
	switch o := op.(type) {
	case *algebra.Scan:
		base, err := e.scan(o, id)
		if err != nil {
			return err
		}
		return base.Each(func(t rel.Tuple, n int) error {
			if err := e.tick(); err != nil {
				return err
			}
			return emit(t, n)
		})
	case *algebra.Values:
		for _, row := range o.Rows {
			if len(row) != o.Sch.Len() {
				return fmt.Errorf("eval: VALUES row width %d, schema width %d", len(row), o.Sch.Len())
			}
			t := make(rel.Tuple, len(row))
			for i, x := range row {
				v, err := e.evalExpr(x, nil, outer)
				if err != nil {
					return err
				}
				t[i] = v
			}
			if err := emit(t, 1); err != nil {
				return err
			}
		}
		return nil
	case *algebra.Select:
		return e.streamSelect(o, id, outer, emit)
	case *algebra.Project:
		return e.streamProject(o, id, -1, outer, emit)
	case *algebra.Cross, *algebra.Join, *algebra.LeftJoin:
		return e.streamJoin(op, id, nil, outer, emit)
	case *algebra.Aggregate:
		return e.streamAggregate(o, id, outer, emit)
	case *algebra.SetOp:
		return e.streamSetOp(o, id, outer, emit)
	case *algebra.Order:
		return e.streamOrder(o, id, -1, outer, emit)
	case *algebra.Limit:
		return e.streamLimit(o, id, outer, emit)
	default:
		return fmt.Errorf("eval: unsupported operator %T", op)
	}
}

func (e *Evaluator) streamSelect(o *algebra.Select, id int32, outer []rel.Tuple, emit emitFn) error {
	if sp := e.selectOf(id); sp != nil {
		var done bool
		var err error
		if sp.gen != nil {
			done, err = e.generatedSelect(sp.gen, id, outer, emit)
		} else {
			done, err = e.indexedSelect(o, id, sp.index, outer, emit)
		}
		if done {
			return err
		}
	}
	return e.stream(o.Child, e.kid(id, 0), outer, func(t rel.Tuple, n int) error {
		if err := e.tick(); err != nil {
			return err
		}
		keep, err := e.evalCond(o.Cond, t, outer)
		if err != nil {
			return err
		}
		if keep == types.True {
			return emit(t, n)
		}
		return nil
	})
}

// streamProject projects its input's rows, of which a consumer reads at
// most the first bound (see streamBounded). A projection over a join that
// passes its input's columns through is the join's output map: the join
// builds its rows.
func (e *Evaluator) streamProject(o *algebra.Project, id int32, bound int, outer []rel.Tuple, emit emitFn) error {
	if n := e.node(id); n.phys >= 0 {
		return e.streamJoin(o.Child, n.kids[0], e.shared.plan.outs[n.phys], outer, emit)
	}
	if o.Distinct {
		emit = e.dedupEmit(emit)
	}
	return e.streamBounded(o.Child, e.kid(id, 0), bound, outer, func(t rel.Tuple, n int) error {
		if err := e.tick(); err != nil {
			return err
		}
		row := make(rel.Tuple, len(o.Cols))
		for i := range o.Cols {
			x := o.Cols[i].E
			// A column passing its input through — most of a provenance
			// projection's witness columns — is a slot copy.
			if r, ok := x.(algebra.Ref); ok && r.Depth == 0 {
				row[i] = t[r.Idx]
				continue
			}
			v, err := e.evalExpr(x, t, outer)
			if err != nil {
				return err
			}
			row[i] = v
		}
		return emit(row, n)
	})
}

// streamJoin runs join node id in its physical form (joinPlan): l ⋈ r,
// l ⟕ r when leftOuter, and l × r as a join with no condition, with r as
// the build side and l streaming through. The build side is bucketed on the
// condition's equi-keys; with none, its one bucket holds every slot. A left
// row's candidates are its bucket, filtered by the residual, every conjunct
// that is not a key, over a scratch row refilled per candidate, and a
// left-outer row that keeps none is padded with NULLs. Each emitted row is
// built once, from the two tuples, as the join's own row or, for a
// projection above the join that passes its columns through, as the columns
// out names (joinPlan.row); a rejected candidate allocates nothing.
func (e *Evaluator) streamJoin(op algebra.Op, id int32, out []int32, outer []rel.Tuple, emit emitFn) error {
	p := e.joinOf(id)
	l, lid, r, rid := e.joinInputs(op, id, p)
	ix, err := e.joinBuild(p, r, rid, outer)
	if err != nil {
		return err
	}
	var scratch rel.Tuple
	lc, lmap, rmap := p.lcols(), p.lmap(), p.rmap()
	if p.keys.residual != nil {
		scratch = make(rel.Tuple, lc+p.rcols())
	}
	_, leftOuter := op.(*algebra.LeftJoin)
	return e.stream(l, lid, outer, func(lt rel.Tuple, ln int) error {
		if err := e.tick(); err != nil {
			return err
		}
		b, err := e.find(ix, &p.keys, lt, outer)
		if err != nil {
			return err
		}
		candidates := ix.bucket(b)
		if scratch != nil && len(candidates) > 0 {
			fill(scratch[:lc], lt, lmap)
		}
		matched := false
		for _, i := range candidates {
			if err := e.tick(); err != nil {
				return err
			}
			rt, rn := ix.in.Slot(int(i))
			if scratch != nil {
				fill(scratch[lc:], rt, rmap)
				keep, err := e.evalCond(p.keys.residual, scratch, outer)
				if err != nil {
					return err
				}
				if keep != types.True {
					continue
				}
			}
			matched = true
			if err := emit(p.row(out, lt, rt), ln*rn); err != nil {
				return err
			}
		}
		if leftOuter && !matched {
			return emit(p.row(out, lt, nil), ln)
		}
		return nil
	})
}

func (e *Evaluator) streamAggregate(o *algebra.Aggregate, id int32, outer []rel.Tuple, emit emitFn) error {
	type group struct {
		keys rel.Tuple
		aggs []aggState
	}
	groups := map[string]*group{}
	var order []string
	newGroup := func(keys rel.Tuple) *group {
		g := &group{keys: keys, aggs: make([]aggState, len(o.Aggs))}
		for i, a := range o.Aggs {
			g.aggs[i].fn = a.Fn
			if a.Distinct {
				g.aggs[i].distinct = map[string]struct{}{}
			}
		}
		return g
	}
	err := e.stream(o.Child, e.kid(id, 0), outer, func(t rel.Tuple, n int) error {
		if err := e.tick(); err != nil {
			return err
		}
		keys := make(rel.Tuple, len(o.Group))
		for ki, gx := range o.Group {
			v, err := e.evalExpr(gx.E, t, outer)
			if err != nil {
				return err
			}
			keys[ki] = v
		}
		k := keys.Key()
		g, ok := groups[k]
		if !ok {
			// Each group's accumulator is resident breaker state.
			if err := e.charge(1); err != nil {
				return err
			}
			g = newGroup(keys)
			groups[k] = g
			order = append(order, k)
		}
		for ai, ax := range o.Aggs {
			var v types.Value
			if ax.Arg != nil {
				av, err := e.evalExpr(ax.Arg, t, outer)
				if err != nil {
					return err
				}
				v = av
			}
			if err := g.aggs[ai].add(v, n); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// SQL semantics: with no GROUP BY, aggregation over an empty input
	// still yields one tuple (count 0, other aggregates NULL).
	if len(o.Group) == 0 && len(groups) == 0 {
		groups[""] = newGroup(rel.Tuple{})
		order = append(order, "")
	}
	for _, k := range order {
		g := groups[k]
		row := make(rel.Tuple, 0, len(o.Group)+len(o.Aggs))
		row = append(row, g.keys...)
		for i := range g.aggs {
			v, err := g.aggs[i].result()
			if err != nil {
				return err
			}
			row = append(row, v)
		}
		if err := emit(row, 1); err != nil {
			return err
		}
	}
	return nil
}

// dedupEmit wraps a consumer with first-sight deduplication — DISTINCT's
// pipeline state: each distinct row is emitted once with multiplicity 1,
// duplicates are dropped without a bag. The dedup set is resident state,
// charged against the budget per distinct key.
func (e *Evaluator) dedupEmit(emit emitFn) emitFn {
	seen := map[string]struct{}{}
	return func(t rel.Tuple, n int) error {
		k := t.Key()
		if _, dup := seen[k]; dup {
			return nil
		}
		if err := e.charge(1); err != nil {
			return err
		}
		seen[k] = struct{}{}
		return emit(t, 1)
	}
}

func (e *Evaluator) streamSetOp(o *algebra.SetOp, id int32, outer []rel.Tuple, emit emitFn) error {
	if !o.Bag {
		// Set semantics: dedup at the output boundary, first occurrence
		// emitted with multiplicity 1.
		emit = e.dedupEmit(emit)
	}
	lid, rid := e.kid(id, 0), e.kid(id, 1)
	if lw, rw := e.node(lid).width, e.node(rid).width; lw != rw {
		return fmt.Errorf("eval: %s of width %d and width %d", o.Kind, lw, rw)
	}
	if o.Kind == algebra.Union {
		// Union is no breaker: both inputs stream straight through.
		if err := e.stream(o.L, lid, outer, emit); err != nil {
			return err
		}
		return e.stream(o.R, rid, outer, emit)
	}
	// Intersection and difference need full multiplicities of both sides:
	// inherent breakers. The right side's count map is the breaker state.
	l, err := e.eval(o.L, lid, outer)
	if err != nil {
		return err
	}
	r, err := e.eval(o.R, rid, outer)
	if err != nil {
		return err
	}
	return setOpEach(o, l, r, emit)
}

// setOpEach emits the rows of l INTERSECT or EXCEPT r, slot by slot of l,
// against a count map of r built once. Under ALL a slot consumes what it
// matches, so a tuple split across slots of l meets its count in r once in
// total: INTERSECT ALL yields min(L, R) copies and EXCEPT ALL max(L − R, 0),
// PostgreSQL's totals. The set forms test membership only and leave the
// dedup to the caller.
func setOpEach(o *algebra.SetOp, l, r *rel.Relation, emit emitFn) error {
	if o.Kind != algebra.Intersect && o.Kind != algebra.Except {
		return fmt.Errorf("eval: unknown set operation %v", o.Kind)
	}
	right := r.Group()
	return l.Each(func(t rel.Tuple, n int) error {
		keep := 0
		switch {
		case !o.Bag:
			if (right.Count(t) > 0) == (o.Kind == algebra.Intersect) {
				keep = n
			}
		case o.Kind == algebra.Intersect:
			keep = right.Take(t, n)
		default:
			keep = n - right.Take(t, n)
		}
		if keep == 0 {
			return nil
		}
		return emit(t, keep)
	})
}

// streamLimit implements LIMIT/OFFSET as a cut (limitEmit) whose stop
// signal ceases the upstream scans. Over an Order it hands the sort the
// bound offset+n, PostgreSQL's bounded sort.
func (e *Evaluator) streamLimit(o *algebra.Limit, id int32, outer []rel.Tuple, emit emitFn) error {
	bound := -1
	if o.N >= 0 {
		bound = o.Offset + o.N
	}
	err := e.streamBounded(o.Child, e.kid(id, 0), bound, outer, limitEmit(o, emit))
	if errors.Is(err, errStop) {
		return nil
	}
	return err
}

// streamBounded streams op to a consumer that reads at most its first bound
// rows, all of them when bound < 0. A bag projection emits one row per
// input row, so its first bound rows are those of its input's first bound
// rows: the bound passes through it, down to an Order, which keeps a
// top-bound heap instead of sorting its whole input.
func (e *Evaluator) streamBounded(op algebra.Op, id int32, bound int, outer []rel.Tuple, emit emitFn) error {
	if bound >= 0 {
		switch o := op.(type) {
		case *algebra.Order:
			return e.streamOrder(o, id, bound, outer, emit)
		case *algebra.Project:
			if !o.Distinct {
				return e.streamProject(o, id, bound, outer, emit)
			}
		}
	}
	return e.stream(op, id, outer, emit)
}

// streamOrder sorts its input and emits it in order. Unbounded (bound < 0)
// it buffers the whole input. A bound — a Limit above needs only the first
// offset+n rows (streamBounded) — keeps a top-bound heap instead, so the
// sort's state is bounded by the limit, not by the input size. The buffer
// or the heap's fill is resident state; replacements in a full heap do not
// grow it.
func (e *Evaluator) streamOrder(o *algebra.Order, id int32, bound int, outer []rel.Tuple, emit emitFn) error {
	h := &topNHeap{keys: o.Keys}
	err := e.stream(o.Child, e.kid(id, 0), outer, func(t rel.Tuple, n int) error {
		if err := e.tick(); err != nil {
			return err
		}
		kv, err := e.sortKeyVals(o.Keys, t, outer)
		if err != nil {
			return err
		}
		for ; n > 0; n-- {
			row := sortRow{t: t, keys: kv}
			if bound < 0 || h.Len() < bound {
				if err := e.charge(1); err != nil {
					return err
				}
				if bound < 0 {
					h.rows = append(h.rows, row) // sorted once, below
				} else {
					heap.Push(h, row)
				}
				continue
			}
			if bound == 0 {
				return errStop
			}
			// Replace the current maximum if this row sorts before it.
			if compareSortRows(o.Keys, row, h.rows[0]) < 0 {
				h.rows[0] = row
				heap.Fix(h, 0)
			}
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStop) {
		return err
	}
	sortRowsInPlace(o.Keys, h.rows)
	for _, r := range h.rows {
		if err := emit(r.t, 1); err != nil {
			return err
		}
	}
	return nil
}

// topNHeap is a max-heap under the ORDER BY total order: the root is the
// largest retained row, evicted when a smaller one arrives.
type topNHeap struct {
	keys []algebra.SortKey
	rows []sortRow
}

func (h *topNHeap) Len() int           { return len(h.rows) }
func (h *topNHeap) Less(i, j int) bool { return compareSortRows(h.keys, h.rows[j], h.rows[i]) < 0 }
func (h *topNHeap) Swap(i, j int)      { h.rows[i], h.rows[j] = h.rows[j], h.rows[i] }
func (h *topNHeap) Push(x any)         { h.rows = append(h.rows, x.(sortRow)) }
func (h *topNHeap) Pop() any {
	r := h.rows[len(h.rows)-1]
	h.rows = h.rows[:len(h.rows)-1]
	return r
}
