package eval

import (
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

// equiKeys is the decomposition of a condition into hash keys and a
// residual: build rows are hashed on build, and each probe looks up the key
// probe evaluates to. probe[i] and build[i] compare with =, or with =n where
// nullEq[i] is set.
type equiKeys struct {
	probe, build []algebra.Expr
	nullEq       []bool
	residual     algebra.Expr
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
		out.probe = append(out.probe, l)
		out.build = append(out.build, r)
		out.nullEq = append(out.nullEq, nullAware)
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
	for i, b := range keys.build {
		keys.build[i] = rebase(b, lw)
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
			return r
		}
		return x
	})
}

// joinKeys returns the equi-join split of a join node's condition for the
// materializing executor, computed once per node and run.
func (e *Evaluator) joinKeys(join algebra.Op, l algebra.Op, cond algebra.Expr) *equiKeys {
	keys, ok := e.shared.joins.get(join, nil)
	if !ok {
		split := splitEquiJoin(cond, l.Schema().Len())
		keys = &split
		e.shared.joins.put(join, nil, keys)
	}
	return keys
}

// joinPlan is the physical form of one streaming join (streamJoin): the
// inputs it reads, its key split and the rows it emits.
type joinPlan struct {
	// l streams and r is built. A pass-through bag projection over stored
	// rows (a Scan, or selections over one) is folded away, so the join
	// reads the stored tuples: column i of the join's left input is column
	// lmap[i] of an l tuple, and column i of its right input column
	// rmap[i] of an r tuple.
	l, r       algebra.Op
	lmap, rmap []int32
	leftOuter  bool
	// keys is splitEquiJoin's split of the condition, its keys mapped onto
	// the l and r tuples. The residual reads the join's own row, which
	// streamJoin fills in a scratch row per candidate.
	keys equiKeys
	// shared names the table attached to r's relation (sharedKey) when r
	// is a bare Scan keyed on columns, "" otherwise. chargeR is set when r
	// is a Scan a projection was folded off.
	shared  string
	chargeR bool
	// out is the emitted row: the join's own row, or the pass-through bag
	// projection above the join. Column j is column out[j] of the l tuple
	// below lw, and column out[j]−lw of the r tuple from lw on. pad is the
	// r tuple of a left-outer row that keeps no candidate: all NULL.
	out []int32
	lw  int32
	pad rel.Tuple
}

// joinPlan returns the physical form of top, a join or a bag projection
// over one, decided once per node and run; nil for a projection that does
// not pass its input's columns through. A projection that does is the
// join's output map, so its rows are built once, by the join.
func (e *Evaluator) joinPlan(top algebra.Op) *joinPlan {
	if p, ok := e.shared.joinPlans.get(top, nil); ok {
		return p
	}
	join, fused := top, false
	var through []int32 // the columns of the join a projection above reads
	if proj, ok := top.(*algebra.Project); ok {
		if through, fused = passThrough(proj); !fused {
			e.shared.joinPlans.put(top, nil, nil)
			return nil
		}
		join = proj.Child
	}
	p := &joinPlan{}
	var l, r algebra.Op
	var cond algebra.Expr
	switch o := join.(type) {
	case *algebra.Cross:
		l, r = o.L, o.R
	case *algebra.Join:
		l, r, cond = o.L, o.R, o.Cond
	case *algebra.LeftJoin:
		l, r, cond, p.leftOuter = o.L, o.R, o.Cond, true
	}
	p.l, p.lmap = foldStored(l)
	p.r, p.rmap = foldStored(r)
	_, bare := p.r.(*algebra.Scan)
	p.chargeR = bare && p.r != r
	if cond != nil {
		p.keys = splitEquiJoin(cond, len(p.lmap))
		if p.l != l {
			mapRefs(p.keys.probe, p.lmap)
		}
		if p.r != r {
			mapRefs(p.keys.build, p.rmap)
		}
	}
	if bare && len(p.keys.build) > 0 {
		p.shared = sharedKey(&p.keys)
	}
	p.lw = int32(p.l.Schema().Len())
	col := func(i int32) int32 {
		if int(i) < len(p.lmap) {
			return p.lmap[i]
		}
		return p.lw + p.rmap[int(i)-len(p.lmap)]
	}
	if fused {
		p.out = make([]int32, len(through))
		for j, c := range through {
			p.out[j] = col(c)
		}
	} else {
		p.out = make([]int32, len(p.lmap)+len(p.rmap))
		for i := range p.out {
			p.out[i] = col(int32(i))
		}
	}
	if p.leftOuter {
		p.pad = rel.Nulls(p.r.Schema().Len())
	}
	e.shared.joinPlans.put(top, nil, p)
	return p
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

// foldStored returns the input a join reads for in, and the column of its
// tuples each column of in reads. A pass-through bag projection over
// stored rows (a Scan, or selections over one, which emit the scan's
// tuples) is folded to its input. Any other input is read as it is: an
// input that builds its rows, folded, would build wider ones.
func foldStored(in algebra.Op) (algebra.Op, []int32) {
	if p, ok := in.(*algebra.Project); ok {
		if cols, ok := passThrough(p); ok && stored(p.Child) {
			return p.Child, cols
		}
	}
	cols := make([]int32, in.Schema().Len())
	for i := range cols {
		cols[i] = int32(i)
	}
	return in, cols
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

// mapRefs maps the slots of key expressions, which read one input of a
// join, onto the tuples that input is read from.
func mapRefs(keys []algebra.Expr, cols []int32) {
	for i, k := range keys {
		keys[i] = algebra.MapExpr(k, func(x algebra.Expr) algebra.Expr {
			if r, ok := x.(algebra.Ref); ok && r.Depth == 0 {
				r.Idx = cols[r.Idx]
				return r
			}
			return x
		})
	}
}

// row builds the emitted row of an l tuple and an r tuple.
func (p *joinPlan) row(lt, rt rel.Tuple) rel.Tuple {
	row := make(rel.Tuple, len(p.out))
	for j, c := range p.out {
		if c < p.lw {
			row[j] = lt[c]
		} else {
			row[j] = rt[c-p.lw]
		}
	}
	return row
}

// joinBuild returns the table a join's r is built into. Over a bare Scan
// keyed on columns it is the table attached to the scan's relation, built
// on first use and shared with every later run, as a correlated
// selection's index is (baseIndex). Any other r is materialized by eval,
// which charges what it materializes, and built for this run. A scan read
// in place of the projection folded off it is charged one row a slot, as
// that projection's materialized rows were, so the row budget and PeakRows
// do not depend on the fold; a scan the plan builds as it is charges
// nothing, as a view of a base relation does not.
func (e *Evaluator) joinBuild(p *joinPlan, outer []rel.Tuple) (*slotIndex, error) {
	var in *rel.Relation
	var err error
	if p.shared != "" {
		in, err = e.db.Relation(p.r.(*algebra.Scan).Name)
	} else {
		in, err = e.eval(p.r, outer)
	}
	if err != nil {
		return nil, err
	}
	if p.chargeR {
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
// The caller guarantees len(keys.probe) > 0.
func (e *Evaluator) hashJoin(o algebra.Op, l, r *rel.Relation, keys *equiKeys, leftOuter bool, outer []rel.Tuple) (*rel.Relation, error) {
	sch := o.Schema()
	rightWidth := r.Schema.Len()

	ix, err := e.buildIndex(keys, r, outer)
	if err != nil {
		return nil, err
	}

	// Probe side.
	out := rel.New(sch)
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

// buildIndex indexes the slots of in on keys.build. A slot whose plain-=
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
		key, ok, err := appendKey(buf[:0], keys.build, keys.nullEq, func(x algebra.Expr) (types.Value, error) {
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

// find returns the number of the bucket whose key keys.probe evaluates to
// over t, -1 when nothing can match. The key is built in a stack buffer and
// converted for the lookup only, so a probe allocates nothing for it.
func (e *Evaluator) find(ix *slotIndex, keys *equiKeys, t rel.Tuple, outer []rel.Tuple) (int32, error) {
	var buf [64]byte
	key, ok, err := appendKey(buf[:0], keys.probe, keys.nullEq, func(x algebra.Expr) (types.Value, error) {
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
// eval gives the key expressions, equal bytes iff the values are equal under
// = (=n where nullEq is set). ok is false when a plain-= key is NULL; such a
// row matches nothing. It reaches the executor only through eval, so that a
// caller's stack buffer stays on the stack: escape analysis moves a buffer
// that enters the executor's recursion to the heap.
func appendKey(dst []byte, exprs []algebra.Expr, nullEq []bool, eval func(algebra.Expr) (types.Value, error)) ([]byte, bool, error) {
	for i, kx := range exprs {
		v, err := eval(kx)
		if err != nil {
			return nil, false, err
		}
		if v.IsNull() && !nullEq[i] {
			return nil, false, nil
		}
		dst = v.AppendKey(dst)
	}
	return dst, true, nil
}
