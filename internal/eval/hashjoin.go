package eval

import (
	"slices"

	"perm/internal/algebra"
	"perm/internal/rel"
	"perm/internal/types"
)

// The executor runs equi-joins as hash joins, standing in for the hash join
// operator of the PostgreSQL executor the paper's measurements depend on.
// A join condition is decomposed into equi-key pairs (expressions over one
// side each, compared with = or =n) and a residual condition. Plain = keys
// never match NULLs; =n keys do (the aggregation rewrite R5 and the
// set-operation rewrites join on =n). Every table the executor hashes is a
// slotIndex over a relation's slots, built by buildIndex: the hash joins'
// build sides, the streaming executor's selection indexes (index.go), whose
// conditions split the same way, and Gen's CrossBase leaves (gen.go).

// equiKeys is the decomposition of a condition into hash key pairs and a
// residual: build rows are hashed on the pairs' build expressions, and each
// probe looks up the key their probe expressions evaluate to.
type equiKeys struct {
	pairs    []equiKey
	residual algebra.Expr
}

// equiKey is one key pair: probe and build compare with =, or with =n where
// nullEq is set.
type equiKey struct {
	probe, build algebra.Expr
	nullEq       bool
}

// The sides an expression of a condition can read only: the probe side, the
// build side, or neither (it reads both, or no slot).
const (
	noSide = iota
	probeSide
	buildSide
)

// splitEqui extracts hashable key pairs from cond. side classifies an
// expression; a conjunct e1 = e2 or e1 =n e2 whose sides classify as probe
// and build, in either order, becomes a key pair, and everything else stays
// in the residual. Expressions containing sublinks never become keys.
func splitEqui(cond algebra.Expr, side func(algebra.Expr) int) equiKeys {
	var out equiKeys
	var residual []algebra.Expr
	for _, conj := range conjuncts(cond) {
		var l, r algebra.Expr
		nullAware := false
		switch c := conj.(type) {
		case algebra.Cmp:
			if c.Op == types.CmpEq {
				l, r = c.L, c.R
			}
		case algebra.NullEq:
			l, r = c.L, c.R
			nullAware = true
		}
		if l == nil || algebra.HasSublink(l) || algebra.HasSublink(r) {
			residual = append(residual, conj)
			continue
		}
		switch ls, rs := side(l), side(r); {
		case ls == probeSide && rs == buildSide:
		case ls == buildSide && rs == probeSide:
			l, r = r, l
		default:
			residual = append(residual, conj)
			continue
		}
		out.pairs = append(out.pairs, equiKey{probe: l, build: r, nullEq: nullAware})
	}
	if len(residual) > 0 {
		out.residual = algebra.Conj(residual...)
	}
	return out
}

// splitEquiJoin splits a join condition of a bound plan whose left input is
// lw columns wide: the left input probes, the right one is built. A
// reference to an enclosing scope disqualifies an expression from being a
// key, as it would change per outer binding. The build keys are rebased by
// lw, so they read the right tuple alone.
func splitEquiJoin(cond algebra.Expr, lw int) equiKeys {
	keys := splitEqui(cond, func(x algebra.Expr) int {
		switch {
		case readsOnly(x, func(r algebra.Ref) bool { return r.Depth == 0 && int(r.Idx) < lw }):
			return probeSide
		case readsOnly(x, func(r algebra.Ref) bool { return r.Depth == 0 && int(r.Idx) >= lw }):
			return buildSide
		}
		return noSide
	})
	for i := range keys.pairs {
		keys.pairs[i].build = rebase(keys.pairs[i].build, lw)
	}
	return keys
}

// conjuncts splits a condition into top-level AND factors.
func conjuncts(e algebra.Expr) []algebra.Expr {
	if a, ok := e.(algebra.And); ok {
		return append(conjuncts(a.L), conjuncts(a.R)...)
	}
	return []algebra.Expr{e}
}

// readsOnly reports whether e reads at least one slot and only slots keep
// accepts.
func readsOnly(e algebra.Expr, keep func(algebra.Ref) bool) bool {
	ok := true
	refs := 0
	algebra.WalkExpr(e, func(x algebra.Expr) bool {
		if r, isRef := x.(algebra.Ref); isRef {
			refs++
			ok = ok && keep(r)
		}
		return ok
	})
	return ok && refs > 0
}

// rebase shifts the slots of a right-side key expression down by lw.
func rebase(e algebra.Expr, lw int) algebra.Expr {
	return algebra.MapExpr(e, func(x algebra.Expr) algebra.Expr {
		if r, ok := x.(algebra.Ref); ok {
			r.Idx -= int32(lw)
			return algebra.BoxRef(r)
		}
		return x
	})
}

// joinPlan is the physical form of one join node, decided by Lower: the
// inputs the streaming join (streamJoin) reads, its key split, and the
// split the reference executor hashes on.
type joinPlan struct {
	// keys is splitEquiJoin's split of the condition, its keys mapped onto
	// the tuples the streaming join reads (see joinFold). The residual
	// reads the join's own row, which streamJoin fills in a scratch row per
	// candidate.
	keys equiKeys
	// fold is nil for a join that reads both inputs as they are and whose
	// reference split is keys.
	fold *joinFold
	// shared names the table attached to the right relation (sharedKey)
	// when the join reads a bare Scan keyed on columns there, "" otherwise.
	shared string
	// lw and rw are the widths of the tuples the join reads.
	lw, rw int32
}

// joinFold is what a join keeps beside its keys when it reads an input
// through a column map or hashes other keys than the reference does. The
// streaming join streams its left input and builds its right one. A
// pass-through bag projection over stored rows (a Scan, or selections over
// one) is folded away, so the join reads the stored tuples: column i of its
// left input is column lmap[i] of the tuple it reads, and column i of its
// right input column rmap[i]. A nil map is an input read as it is. mat is
// the split the reference executor hashes on, over the inputs as they are
// and in the condition's order; nil when it is keys.
type joinFold struct {
	lmap, rmap []int32
	mat        *equiKeys
}

// join lowers a Cross, Join or LeftJoin with ID id.
func (l *lowering) join(op algebra.Op, id int32) joinPlan {
	var p joinPlan
	left, right, cond := joinParts(op)
	kids := l.p.nodes[id].kids
	var f joinFold
	var lid, rid int32
	f.lmap, lid = l.fold(left, kids[0])
	f.rmap, rid = l.fold(right, kids[1])
	p.lw, p.rw = l.p.nodes[lid].width, l.p.nodes[rid].width
	if cond != nil {
		split := splitEquiJoin(cond, int(l.p.nodes[kids[0]].width))
		p.keys = equiKeys{pairs: mapKeys(split.pairs, f.lmap, f.rmap), residual: split.residual}
		if _, bare := l.ops[rid].(*algebra.Scan); bare && len(p.keys.pairs) > 0 {
			p.shared = sharedKey(&p.keys)
		}
		if !p.keys.same(&split) {
			f.mat = &split
		}
	}
	if f.lmap != nil || f.rmap != nil || f.mat != nil {
		p.fold = &f
	}
	return p
}

// same reports whether two splits are identical (algebra.ExprIdentical):
// a join keeps the reference's split only where it differs from its own.
func (k *equiKeys) same(o *equiKeys) bool {
	return slices.EqualFunc(k.pairs, o.pairs, func(a, b equiKey) bool {
		return algebra.ExprIdentical(a.probe, b.probe) && algebra.ExprIdentical(a.build, b.build) && a.nullEq == b.nullEq
	}) && algebra.ExprIdentical(k.residual, o.residual)
}

// joinParts returns the inputs and the condition of a Cross (nil), Join or
// LeftJoin.
func joinParts(op algebra.Op) (l, r algebra.Op, cond algebra.Expr) {
	switch o := op.(type) {
	case *algebra.Cross:
		return o.L, o.R, nil
	case *algebra.Join:
		return o.L, o.R, o.Cond
	case *algebra.LeftJoin:
		return o.L, o.R, o.Cond
	}
	panic("eval: not a join")
}

// fold returns the column map of the tuples a join reads for its input in,
// whose ID is id, and the ID of what it reads. A pass-through bag
// projection over stored rows (a Scan, or selections over one, which emit
// the scan's tuples) is folded to its input. Any other input is read as it
// is, with a nil map: an input that builds its rows, folded, would build
// wider ones.
func (l *lowering) fold(in algebra.Op, id int32) ([]int32, int32) {
	if p, ok := in.(*algebra.Project); ok {
		if cols, ok := passThrough(p); ok && stored(p.Child) {
			return cols, l.p.nodes[id].kids[0]
		}
	}
	return nil, id
}

// fused returns the output map of a bag projection with ID id that passes
// the columns of a join through, nil for any other projection: the join
// builds the projection's rows (see col), once.
func (l *lowering) fused(o *algebra.Project, id int32) []int32 {
	switch o.Child.(type) {
	case *algebra.Cross, *algebra.Join, *algebra.LeftJoin:
	default:
		return nil
	}
	through, ok := passThrough(o)
	if !ok {
		return nil
	}
	j := &l.p.joins[l.p.nodes[l.p.nodes[id].kids[0]].phys]
	out := make([]int32, len(through))
	for k, c := range through {
		out[k] = j.col(c)
	}
	return out
}

// passThrough returns the input column each column of a bag projection
// reads, and false when a column is not a plain reference to its input or
// the projection is DISTINCT.
func passThrough(p *algebra.Project) ([]int32, bool) {
	if p.Distinct {
		return nil, false
	}
	cols := make([]int32, len(p.Cols))
	for i, c := range p.Cols {
		r, ok := c.E.(algebra.Ref)
		if !ok || r.Depth != 0 {
			return nil, false
		}
		cols[i] = r.Idx
	}
	return cols, true
}

// stored reports whether op emits the tuples of a base relation: a Scan,
// or selections over one.
func stored(op algebra.Op) bool {
	for {
		switch o := op.(type) {
		case *algebra.Scan:
			return true
		case *algebra.Select:
			op = o.Child
		default:
			return false
		}
	}
}

// mapKeys returns a join's key pairs with their probe expressions mapped
// onto the left tuples the join reads and their build expressions onto the
// right ones; the pairs themselves when both maps are nil.
func mapKeys(pairs []equiKey, lmap, rmap []int32) []equiKey {
	if lmap == nil && rmap == nil {
		return pairs
	}
	out := make([]equiKey, len(pairs))
	for i, k := range pairs {
		out[i] = equiKey{probe: mapRefs(k.probe, lmap), build: mapRefs(k.build, rmap), nullEq: k.nullEq}
	}
	return out
}

// mapRefs maps the slots an expression reads through cols; the expression
// itself for nil cols.
func mapRefs(x algebra.Expr, cols []int32) algebra.Expr {
	if cols == nil {
		return x
	}
	return algebra.MapExpr(x, func(x algebra.Expr) algebra.Expr {
		if r, ok := x.(algebra.Ref); ok && r.Depth == 0 {
			r.Idx = cols[r.Idx]
			return algebra.BoxRef(r)
		}
		return x
	})
}

// lmap and rmap return the column maps of the inputs, nil for an input
// read as it is.
func (p *joinPlan) lmap() []int32 {
	if p.fold == nil {
		return nil
	}
	return p.fold.lmap
}

func (p *joinPlan) rmap() []int32 {
	if p.fold == nil {
		return nil
	}
	return p.fold.rmap
}

// matKeys returns the split the reference executor hashes on.
func (p *joinPlan) matKeys() *equiKeys {
	if p.fold != nil && p.fold.mat != nil {
		return p.fold.mat
	}
	return &p.keys
}

// lcols and rcols are the widths of the join's inputs.
func (p *joinPlan) lcols() int32 { return mappedWidth(p.lmap(), p.lw) }
func (p *joinPlan) rcols() int32 { return mappedWidth(p.rmap(), p.rw) }

func mappedWidth(m []int32, w int32) int32 {
	if m == nil {
		return w
	}
	return int32(len(m))
}

// col returns where column i of the join's own row is read: column c of
// the left tuple below lw, column c−lw of the right tuple from lw on.
func (p *joinPlan) col(i int32) int32 {
	if lc := p.lcols(); i >= lc {
		i -= lc
		if rmap := p.rmap(); rmap != nil {
			i = rmap[i]
		}
		return p.lw + i
	}
	if lmap := p.lmap(); lmap != nil {
		return lmap[i]
	}
	return i
}

// row builds an emitted row from a left tuple and a right tuple: the join's
// own row for a nil out, the columns out names (see col) otherwise. rt is
// nil for a left-outer row that keeps no candidate: its right columns stay
// NULL, the zero Value.
func (p *joinPlan) row(out []int32, lt, rt rel.Tuple) rel.Tuple {
	if out != nil {
		row := make(rel.Tuple, len(out))
		for j, c := range out {
			if c < p.lw {
				row[j] = lt[c]
			} else if rt != nil {
				row[j] = rt[c-p.lw]
			}
		}
		return row
	}
	lc := p.lcols()
	row := make(rel.Tuple, lc+p.rcols())
	fill(row[:lc], lt, p.lmap())
	if rt != nil {
		fill(row[lc:], rt, p.rmap())
	}
	return row
}

// fill copies the columns cols names of t into dst, t's own columns for a
// nil cols.
func fill(dst, t rel.Tuple, cols []int32) {
	if cols == nil {
		copy(dst, t)
		return
	}
	for k, c := range cols {
		dst[k] = t[c]
	}
}

// joinOf returns the plan of join node id of the running plan.
func (e *Evaluator) joinOf(id int32) *joinPlan {
	return &e.shared.plan.joins[e.node(id).phys]
}

// joinInputs returns the operators a join node reads and their IDs: its
// inputs, or the child of an input's projection the plan folded.
func (e *Evaluator) joinInputs(op algebra.Op, id int32, p *joinPlan) (l algebra.Op, lid int32, r algebra.Op, rid int32) {
	l, r, _ = joinParts(op)
	lid, rid = e.kid(id, 0), e.kid(id, 1)
	if p.lmap() != nil {
		l, lid = l.(*algebra.Project).Child, e.kid(lid, 0)
	}
	if p.rmap() != nil {
		r, rid = r.(*algebra.Project).Child, e.kid(rid, 0)
	}
	return l, lid, r, rid
}

// joinBuild returns the table a join builds r, with ID rid, into. Over a
// bare Scan keyed on columns it is the table attached to the scan's
// relation, built on first use and shared with every later run, as a
// correlated selection's index is (baseIndex). Any other r is materialized
// by eval, which charges what it materializes, and built for this run. A
// scan read in place of the projection folded off it is charged one row a
// slot, as that projection's materialized rows were, so the row budget and
// PeakRows do not depend on the fold; a scan the plan builds as it is
// charges nothing, as a view of a base relation does not.
func (e *Evaluator) joinBuild(p *joinPlan, r algebra.Op, rid int32, outer []rel.Tuple) (*slotIndex, error) {
	var in *rel.Relation
	var err error
	if p.shared != "" {
		in, err = e.scan(r.(*algebra.Scan), rid)
	} else {
		in, err = e.eval(r, rid, outer)
	}
	if err != nil {
		return nil, err
	}
	if _, bare := r.(*algebra.Scan); bare && p.rmap() != nil {
		if err := e.charge(in.Slots()); err != nil {
			return nil, err
		}
	}
	if p.shared != "" {
		ix, _, err := e.baseIndex(in, p.shared, &p.keys)
		return ix, err
	}
	return e.buildIndex(&p.keys, in, outer)
}

// hashJoin is the materializing executor's l ⋈ r (or l ⟕ r when leftOuter)
// using the extracted keys: it indexes r, then probes with every tuple of l.
// The caller guarantees len(keys.pairs) > 0.
func (e *Evaluator) hashJoin(id int32, l, r *rel.Relation, keys *equiKeys, leftOuter bool, outer []rel.Tuple) (*rel.Relation, error) {
	rightWidth := r.Schema.Len()

	ix, err := e.buildIndex(keys, r, outer)
	if err != nil {
		return nil, err
	}

	// Probe side.
	out := e.bag(id)
	err = l.Each(func(lt rel.Tuple, ln int) error {
		if err := e.tick(); err != nil {
			return err
		}
		matched := false
		b, err := e.find(ix, keys, lt, outer)
		if err != nil {
			return err
		}
		for _, i := range ix.bucket(b) {
			rt, rn := r.Slot(int(i))
			row := lt.Concat(rt)
			if keys.residual != nil {
				keep, err := e.evalCond(keys.residual, row, outer)
				if err != nil {
					return err
				}
				if keep != types.True {
					continue
				}
			}
			matched = true
			if err := e.add(out, row, ln*rn); err != nil {
				return err
			}
		}
		if leftOuter && !matched {
			return e.add(out, lt.Concat(rel.Nulls(rightWidth)), ln)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// slotIndex is the executor's one hash structure: the slot numbers of one
// relation grouped by the key of their build expressions, in slot order
// within a group, its buckets numbered from 0 in order of first slot. The
// group of bucket b is slots[start[b]:start[b+1]]. Hash joins and Gen's
// CrossBase leaves keep one for a run; a selection index over a base
// relation outlives its statement, at four bytes a slot and one map entry
// a key. It is immutable once built.
type slotIndex struct {
	in      *rel.Relation
	buckets map[string]int32
	start   []int32
	slots   []int32
}

// buildIndex indexes the slots of in on the build keys. A slot whose plain-=
// key is NULL can match nothing and is left out. With no build keys every
// slot has the empty key, so the one bucket holds every slot. Only a new
// key allocates in the loop: the key bytes are built in a stack buffer.
func (e *Evaluator) buildIndex(keys *equiKeys, in *rel.Relation, outer []rel.Tuple) (*slotIndex, error) {
	ix := &slotIndex{in: in, buckets: map[string]int32{}}
	of := make([]int32, in.Slots()) // the bucket of each slot, -1 for none
	var sizes []int32
	for i := range of {
		if err := e.tick(); err != nil {
			return nil, err
		}
		t, _ := in.Slot(i)
		var buf [64]byte
		key, ok, err := appendKey(buf[:0], keys.pairs, true, func(x algebra.Expr) (types.Value, error) {
			return e.evalExpr(x, t, outer)
		})
		if err != nil {
			return nil, err
		}
		if !ok {
			of[i] = -1
			continue
		}
		b, found := ix.buckets[string(key)]
		if !found {
			b = int32(len(sizes))
			ix.buckets[string(key)] = b
			sizes = append(sizes, 0)
		}
		of[i] = b
		sizes[b]++
	}
	ix.start = make([]int32, len(sizes)+1)
	for b, n := range sizes {
		ix.start[b+1] = ix.start[b] + n
	}
	ix.slots = make([]int32, ix.start[len(sizes)])
	next := sizes // reused: the next free position of each bucket
	copy(next, ix.start)
	for i, b := range of {
		if b >= 0 {
			ix.slots[next[b]] = int32(i)
			next[b]++
		}
	}
	return ix, nil
}

// find returns the number of the bucket whose key the probe keys evaluate to
// over t, -1 when nothing can match. The key is built in a stack buffer and
// converted for the lookup only, so a probe allocates nothing for it.
func (e *Evaluator) find(ix *slotIndex, keys *equiKeys, t rel.Tuple, outer []rel.Tuple) (int32, error) {
	var buf [64]byte
	key, ok, err := appendKey(buf[:0], keys.pairs, false, func(x algebra.Expr) (types.Value, error) {
		return e.evalExpr(x, t, outer)
	})
	if err != nil || !ok {
		return -1, err
	}
	return ix.number(key), nil
}

// number returns the number of the bucket whose key is key, -1 for none.
func (ix *slotIndex) number(key []byte) int32 {
	if b, ok := ix.buckets[string(key)]; ok {
		return b
	}
	return -1
}

// bucket returns the slots of bucket b, nil for b < 0.
func (ix *slotIndex) bucket(b int32) []int32 {
	if b < 0 {
		return nil
	}
	return ix.slots[ix.start[b]:ix.start[b+1]]
}

// appendKey appends the key of one row to dst: the encodings of the values
// eval gives the pairs' build expressions, or their probe expressions,
// equal bytes iff the values are equal under = (=n where the pair's nullEq
// is set). ok is false when a plain-= key is NULL; such a row matches
// nothing. It reaches the executor only through eval, so that a caller's
// stack buffer stays on the stack: escape analysis moves a buffer that
// enters the executor's recursion to the heap.
func appendKey(dst []byte, pairs []equiKey, build bool, eval func(algebra.Expr) (types.Value, error)) ([]byte, bool, error) {
	for _, k := range pairs {
		x := k.probe
		if build {
			x = k.build
		}
		v, err := eval(x)
		if err != nil {
			return nil, false, err
		}
		if v.IsNull() && !k.nullEq {
			return nil, false, nil
		}
		dst = v.AppendKey(dst)
	}
	return dst, true, nil
}
