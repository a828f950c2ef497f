package eval

import (
	"slices"

	"perm/internal/algebra"
	"perm/internal/rel"
	"perm/internal/schema"
	"perm/internal/types"
)

// Rule G1 of the Gen strategy pairs every input tuple with every possible
// witness and keeps the pairs a membership test certifies:
//
//	σ_{C ∧ Csub1+ ∧ … ∧ Csubn+}(T × CB1 × … × CBn),
//	Csub+ = EXISTS(σ_{J ∧ P =n P′}(Q)) ∨ (¬EXISTS(E) ∧ P IS NULL).
//
// The streaming executor answers such a selection by generation instead of
// enumeration: per row t of T it evaluates Q under t's binding, keeps the
// rows where J holds, and looks their distinct keys P′ (plus the all-NULL
// key when ¬EXISTS(E)) up in a slotIndex over each CrossBase leaf, built
// once per node and run. The package documentation states when, and why the
// result is the literal selection's bag and error.

// genPlan is the generation plan of one selection: its input T, its
// conjuncts in evaluation order, and its sublinks in the order their
// CrossBase blocks follow T in the output row.
type genPlan struct {
	input  algebra.Op
	width  int // output row width
	conds  []genCond
	blocks []*genSublink

	// built is set once build has run; ok is false when it declined the
	// CrossBase tables, and the literal selection runs instead.
	built, ok bool
}

// genCond is one conjunct of the selection: a condition over T, or a
// sublink's membership condition Csub+.
type genCond struct {
	plain algebra.Expr
	sub   *genSublink
}

// genSublink is one Csub+ conjunct with the CrossBase leaves it owns.
type genSublink struct {
	block  int // position among the plan's blocks
	off    int // first slot of the block in the output row
	leaves []*genLeaf
	query  algebra.Sublink // Q, with its free slots, for evalSubplan
	filter []algebra.Expr  // J's conjuncts, in evaluation order
	empty  algebra.Sublink // the EXISTS(E) of the empty case
	free   []algebra.Ref   // the slots Q, J and E read: the binding
	// total is the number of distinct keys of the block: the product of
	// its leaves' bucket counts.
	total int
}

// genLeaf is one CrossBase leaf: a Cross's right input, hashed on the slots
// its sublink's keys compare.
type genLeaf struct {
	op     algebra.Op
	keys   equiKeys // probe: P′ over Q's row; build: the leaf's key slots
	stride int      // the leaf's weight in a block key's number
	index  *slotIndex
	null   int32 // the bucket of the rows whose key slots are all NULL, or -1
}

// genSet is the witnesses of one sublink under one binding: the block rows
// G(t), the listed slots of in. Immutable once memoized.
type genSet struct {
	in    *rel.Relation
	slots []int32
}

// genScratch is the per-call state of generation, reused across rows.
type genScratch struct {
	scope  []rel.Tuple // outer, then the current row of T
	row    rel.Tuple   // the output row being assembled
	sets   []genSet    // the current row's witnesses, per block
	seen   map[int]struct{}
	combos []int32 // the distinct keys found, one bucket number per leaf
}

func (g *genPlan) scratch(outer []rel.Tuple) *genScratch {
	scope := make([]rel.Tuple, len(outer)+1)
	copy(scope, outer)
	return &genScratch{
		scope: scope,
		row:   make(rel.Tuple, g.width),
		sets:  make([]genSet, len(g.blocks)),
		seen:  map[int]struct{}{},
	}
}

// planGen returns the generation plan of a selection over a Cross, or nil
// when the selection does not have the shape generation answers exactly.
func planGen(o *algebra.Select) *genPlan {
	conjs := conjuncts(o.Cond)
	shapes := make([]*csubShape, len(conjs))
	found := false
	for i, c := range conjs {
		shapes[i] = parseCsub(c)
		found = found || shapes[i] != nil
	}
	if !found {
		return nil
	}
	// Peel CrossBase leaves off the right of the Cross chain: a leaf is the
	// right input of a Cross whose slots exactly one Csub+ conjunct keys.
	type leafAt struct {
		op     algebra.Op
		lo, hi int
		owner  int
	}
	var peeled []leafAt
	width := o.Schema().Len()
	node, hi := o.Child, width
	for {
		cr, ok := node.(*algebra.Cross)
		if !ok {
			break
		}
		lo := hi - cr.R.Schema().Len()
		owner := -1
		for i, s := range shapes {
			if s != nil && s.keysIn(lo, hi) {
				if owner >= 0 {
					return nil
				}
				owner = i
			}
		}
		if owner < 0 {
			break
		}
		peeled = append(peeled, leafAt{op: cr.R, lo: lo, hi: hi, owner: owner})
		node, hi = cr.L, lo
	}
	if len(peeled) == 0 {
		return nil
	}
	slices.Reverse(peeled)
	tw := hi
	g := &genPlan{input: node, width: width}
	subs := map[int]*genSublink{}
	for _, l := range peeled {
		if len(freeSlots(l.op)) > 0 {
			return nil
		}
		s := subs[l.owner]
		if s == nil {
			s = &genSublink{block: len(g.blocks), off: l.lo}
			subs[l.owner] = s
			g.blocks = append(g.blocks, s)
		} else if g.blocks[len(g.blocks)-1] != s {
			return nil // a sublink's leaves must be adjacent
		}
		leaf := &genLeaf{op: l.op}
		for _, k := range shapes[l.owner].keys {
			if k.slot >= l.lo && k.slot < l.hi {
				leaf.keys.probe = append(leaf.keys.probe, k.inner)
				leaf.keys.build = append(leaf.keys.build, algebra.Ref{Idx: int32(k.slot - l.lo)})
				leaf.keys.nullEq = append(leaf.keys.nullEq, true)
			}
		}
		s.leaves = append(s.leaves, leaf)
	}
	rowOnly := func(r algebra.Ref) bool { return r.Depth != 1 || int(r.Idx) < tw }
	for i, c := range conjs {
		s := subs[i]
		if s == nil {
			// A condition over T, or a Csub+ of T's own: it must read no
			// CrossBase slot.
			if !readsBelow(c, tw) {
				return nil
			}
			g.conds = append(g.conds, genCond{plain: c})
			continue
		}
		shape := shapes[i]
		for _, k := range shape.keys {
			if k.slot < s.off {
				return nil // a key outside the sublink's own leaves
			}
		}
		free := freeSlots(shape.query)
		for _, j := range shape.filter {
			free = append(free, exprFree(j)...)
		}
		free = append(free, shape.empty.Free...)
		if !allRefs(free, rowOnly) {
			return nil
		}
		s.query = algebra.Sublink{Kind: algebra.ExistsSublink, Query: shape.query, Free: freeSlots(shape.query)}
		s.filter, s.empty, s.free = shape.filter, shape.empty, sortRefs(free)
		g.conds = append(g.conds, genCond{sub: s})
	}
	return g
}

// csubShape is a conjunct parsed as
// EXISTS(σ_{J ∧ P =n P′}(Q)) ∨ (¬EXISTS(E) ∧ P IS NULL), with P the
// CrossBase slots of the selection's row and P′ slots of Q's row.
type csubShape struct {
	keys   []genKey
	query  algebra.Op
	filter []algebra.Expr
	empty  algebra.Sublink
}

// genKey is one key conjunct P =n P′: slot is the CrossBase slot of the
// selection's row, inner the reference to Q's row.
type genKey struct {
	slot  int
	inner algebra.Ref
}

// parseCsub returns the shape of a Csub+ conjunct, or nil. J must precede
// the keys, as the rewriter emits them, so that J is evaluated on every row
// of Q whatever the CrossBase row; the IS NULL slots must be the key slots.
func parseCsub(c algebra.Expr) *csubShape {
	or, ok := c.(algebra.Or)
	if !ok {
		return nil
	}
	mem, ok := or.L.(algebra.Sublink)
	if !ok || mem.Kind != algebra.ExistsSublink {
		return nil
	}
	sel, ok := mem.Query.(*algebra.Select)
	if !ok {
		return nil
	}
	shape := &csubShape{query: sel.Child}
	for _, cj := range conjuncts(sel.Cond) {
		if k, ok := cbKey(cj); ok {
			shape.keys = append(shape.keys, k)
			continue
		}
		if len(shape.keys) > 0 {
			return nil
		}
		shape.filter = append(shape.filter, cj)
	}
	if len(shape.keys) == 0 {
		return nil
	}
	empty := conjuncts(or.R)
	not, ok := empty[0].(algebra.Not)
	if !ok {
		return nil
	}
	if shape.empty, ok = not.E.(algebra.Sublink); !ok || shape.empty.Kind != algebra.ExistsSublink {
		return nil
	}
	nulls := map[int]bool{}
	for _, x := range empty[1:] {
		isNull, ok := x.(algebra.IsNull)
		if !ok {
			return nil
		}
		r, ok := isNull.E.(algebra.Ref)
		if !ok || r.Depth != 0 {
			return nil
		}
		nulls[int(r.Idx)] = true
	}
	for _, k := range shape.keys {
		if !nulls[k.slot] {
			return nil
		}
		delete(nulls, k.slot)
	}
	if len(nulls) > 0 {
		return nil
	}
	return shape
}

// cbKey recognises a key conjunct P =n P′: a slot of the selection's row
// (depth 1 inside the membership query) against a slot of Q's row.
func cbKey(x algebra.Expr) (genKey, bool) {
	eq, ok := x.(algebra.NullEq)
	if !ok {
		return genKey{}, false
	}
	l, lok := eq.L.(algebra.Ref)
	r, rok := eq.R.(algebra.Ref)
	if !lok || !rok {
		return genKey{}, false
	}
	if l.Depth == 0 {
		l, r = r, l
	}
	if l.Depth != 1 || r.Depth != 0 {
		return genKey{}, false
	}
	return genKey{slot: int(l.Idx), inner: r}, true
}

// keysIn reports whether a key of the conjunct reads a slot in [lo, hi).
func (s *csubShape) keysIn(lo, hi int) bool {
	for _, k := range s.keys {
		if k.slot >= lo && k.slot < hi {
			return true
		}
	}
	return false
}

// readsBelow reports whether a condition of the selection reads no slot of
// its row at or above tw.
func readsBelow(x algebra.Expr, tw int) bool {
	ok := true
	algebra.WalkExpr(x, func(x algebra.Expr) bool {
		switch v := x.(type) {
		case algebra.Ref:
			ok = ok && (v.Depth != 0 || int(v.Idx) < tw)
		case algebra.Sublink:
			ok = ok && allRefs(v.Free, func(r algebra.Ref) bool { return r.Depth != 1 || int(r.Idx) < tw })
		}
		return ok
	})
	return ok
}

func allRefs(refs []algebra.Ref, keep func(algebra.Ref) bool) bool {
	for _, r := range refs {
		if !keep(r) {
			return false
		}
	}
	return true
}

// build hashes every CrossBase leaf once per node and run, right to left
// as streamJoin evaluates them and charging each as a build side, and
// numbers the keys of each block. The literal selection runs instead when a
// leaf is empty — no conjunct is then evaluated at all — or a block's key
// count overflows an int.
func (e *Evaluator) build(g *genPlan, outer []rel.Tuple) error {
	if g.built {
		return nil
	}
	g.built = true
	for b := len(g.blocks) - 1; b >= 0; b-- {
		for i := len(g.blocks[b].leaves) - 1; i >= 0; i-- {
			l := g.blocks[b].leaves[i]
			in, err := e.eval(l.op, outer)
			if err != nil {
				return err
			}
			if l.index, err = e.buildIndex(&l.keys, in, outer); err != nil {
				return err
			}
			var buf [64]byte
			null := buf[:0]
			for range l.keys.build {
				null = types.Null().AppendKey(null)
			}
			l.null = l.index.number(null)
		}
	}
	for _, s := range g.blocks {
		s.total = 1
		for _, l := range s.leaves {
			n := len(l.index.buckets)
			if n == 0 || s.total > (1<<62)/n {
				return nil
			}
			l.stride = s.total
			s.total *= n
		}
	}
	g.ok = true
	return nil
}

// generatedSelect answers a selection over a Cross by generation, and
// reports false when the literal selection must run instead.
func (e *Evaluator) generatedSelect(o *algebra.Select, outer []rel.Tuple, emit emitFn) (bool, error) {
	g := e.selectPlan(o).gen
	if g == nil {
		return false, nil
	}
	if err := e.build(g, outer); err != nil {
		return true, err
	}
	if !g.ok {
		return false, nil
	}
	s := g.scratch(outer)
	return true, e.stream(g.input, outer, func(t rel.Tuple, n int) error {
		return e.generate(g, t, n, s, emit)
	})
}

// generate emits t × G1(t) × … × Gn(t). It evaluates the conjuncts in the
// literal condition's order, stopping where the literal's AND stops for
// every CrossBase row: at a False condition over T or an empty G.
func (e *Evaluator) generate(g *genPlan, t rel.Tuple, n int, s *genScratch, emit emitFn) error {
	if err := e.tick(); err != nil {
		return err
	}
	e.shared.generated++
	last := len(s.scope) - 1
	outer := s.scope[:last:last]
	s.scope[last] = t
	keep := true
	for _, c := range g.conds {
		if c.sub == nil {
			v, err := e.evalCond(c.plain, t, outer)
			if err != nil {
				return err
			}
			if v == types.False {
				return nil
			}
			keep = keep && v == types.True
			continue
		}
		set, err := e.witnesses(c.sub, s)
		if err != nil {
			return err
		}
		if len(set.slots) == 0 {
			return nil
		}
		s.sets[c.sub.block] = set
	}
	if !keep {
		return nil
	}
	copy(s.row, t)
	return e.emitProduct(g, s.sets, 0, s.row, n, emit)
}

// emitProduct emits row with every combination of the witnesses of blocks
// b and after filled in.
func (e *Evaluator) emitProduct(g *genPlan, sets []genSet, b int, row rel.Tuple, n int, emit emitFn) error {
	if b == len(sets) {
		if err := e.tick(); err != nil {
			return err
		}
		return emit(slices.Clone(row), n)
	}
	off := g.blocks[b].off
	set := sets[b]
	for _, i := range set.slots {
		r, c := set.in.Slot(int(i))
		copy(row[off:], r)
		if err := e.emitProduct(g, sets, b+1, row, n*c, emit); err != nil {
			return err
		}
	}
	return nil
}

// witnesses returns G(t) for one sublink under the current row's binding,
// memoized per binding as a sublink is.
func (e *Evaluator) witnesses(sub *genSublink, s *genScratch) (genSet, error) {
	var buf [64]byte
	key := appendParamKey(buf[:0], sub.free, s.scope)
	if set, ok := e.shared.witnesses.get(sub, key); ok {
		return set, nil
	}
	q, err := e.evalSubplan(sub.query, s.scope)
	if err != nil {
		return genSet{}, err
	}
	clear(s.seen)
	s.combos = s.combos[:0]
	err = q.Each(func(u rel.Tuple, _ int) error {
		if err := e.tick(); err != nil {
			return err
		}
		admit := true
		for _, j := range sub.filter {
			v, err := e.evalCond(j, u, s.scope)
			if err != nil {
				return err
			}
			if v == types.False {
				return nil
			}
			admit = admit && v == types.True
		}
		if !admit {
			return nil
		}
		return e.admit(sub, u, s)
	})
	if err != nil {
		return genSet{}, err
	}
	// The literal evaluates ¬EXISTS(E) for the CrossBase rows no key
	// matched; when there are none, it never does.
	if len(s.seen) < sub.total {
		v, err := e.probeExists(sub.empty, s.scope)
		if err != nil {
			return genSet{}, err
		}
		if !v.Bool() {
			s.addCombo(sub, func(l *genLeaf) int32 { return l.null })
		}
	}
	set, err := e.expand(sub, s.combos)
	if err != nil {
		return genSet{}, err
	}
	e.shared.witnesses.put(sub, key, set)
	return set, nil
}

// admit adds the key of Q's row u to the witnesses, once per distinct key.
func (e *Evaluator) admit(sub *genSublink, u rel.Tuple, s *genScratch) error {
	var findErr error
	s.addCombo(sub, func(l *genLeaf) int32 {
		b, err := e.find(l.index, &l.keys, u, s.scope)
		if err != nil {
			findErr = err
		}
		return b
	})
	return findErr
}

// addCombo looks a key up leaf by leaf and records it unless a leaf has no
// row with it or the key was recorded already.
func (s *genScratch) addCombo(sub *genSublink, bucketOf func(*genLeaf) int32) {
	start := len(s.combos)
	id := 0
	for _, l := range sub.leaves {
		b := bucketOf(l)
		if b < 0 {
			s.combos = s.combos[:start]
			return
		}
		id += int(b) * l.stride
		s.combos = append(s.combos, b)
	}
	if _, dup := s.seen[id]; dup {
		s.combos = s.combos[:start]
		return
	}
	s.seen[id] = struct{}{}
}

// expand turns the distinct keys into the block rows they select: a key's
// rows are the product of its leaves' buckets. One key of a one-leaf block
// is its bucket's slots, shared; a block of several leaves materializes the
// product, charged as resident state.
func (e *Evaluator) expand(sub *genSublink, combos []int32) (genSet, error) {
	m := len(sub.leaves)
	if m == 1 {
		ix := sub.leaves[0].index
		if len(combos) == 1 {
			return genSet{in: ix.in, slots: ix.bucket(combos[0])}, nil
		}
		set := genSet{in: ix.in}
		for _, b := range combos {
			set.slots = append(set.slots, ix.bucket(b)...)
		}
		return set, nil
	}
	sch := schema.Schema{}
	for _, l := range sub.leaves {
		sch = sch.Concat(l.index.in.Schema)
	}
	set := genSet{in: rel.New(sch)}
	for c := 0; c < len(combos); c += m {
		rows, counts := []rel.Tuple{nil}, []int{1}
		for k, b := range combos[c : c+m] {
			ix := sub.leaves[k].index
			var nextRows []rel.Tuple
			var nextCounts []int
			for i, r := range rows {
				for _, j := range ix.bucket(b) {
					t, n := ix.in.Slot(int(j))
					nextRows = append(nextRows, r.Concat(t))
					nextCounts = append(nextCounts, counts[i]*n)
				}
			}
			rows, counts = nextRows, nextCounts
		}
		for i, r := range rows {
			set.slots = append(set.slots, int32(set.in.Slots()))
			set.in.Add(r, counts[i])
		}
	}
	return set, e.charge(len(set.slots))
}
