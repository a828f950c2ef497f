package eval

import (
	"slices"

	"perm/internal/algebra"
	"perm/internal/rel"
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

// genPlan is the generation plan of one selection, decided by Lower: its
// input T, its conjuncts in evaluation order, and its sublinks in the order
// their CrossBase blocks follow T in the output row. It is part of the
// annotation and never written by a run: the tables a run builds for it
// are a genRun in the run's state.
type genPlan struct {
	input   algebra.Op
	inputID int32
	width   int // output row width
	conds   []genCond
	blocks  []*genSublink
	leaves  int // the CrossBase leaves of all blocks
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
	// The IDs of Q and of E's query.
	queryID, emptyID int32
}

// genLeaf is one CrossBase leaf: a Cross's right input, hashed on the slots
// its sublink's keys compare.
type genLeaf struct {
	op   algebra.Op
	id   int32
	keys equiKeys // probe: P′ over Q's row; build: the leaf's key slots
	at   int      // the position of its table among the run's (genRun)
}

// genRun is a run's state of one generation plan: the table of each
// CrossBase leaf and the number of distinct keys of each block. ok is false
// when genTables declined the tables, and the literal selection runs
// instead.
type genRun struct {
	ok     bool
	tables []genTable // by genLeaf.at
	totals []int      // by block: the product of its leaves' bucket counts
}

// genTable is one CrossBase leaf hashed for a run.
type genTable struct {
	index  *slotIndex
	null   int32 // the bucket of the rows whose key slots are all NULL, or -1
	stride int   // the leaf's weight in a block key's number
}

// genBlock names the witnesses of one sublink of a generated selection:
// the selection's ID and the block.
type genBlock struct{ sel, block int32 }

// genSet is the witnesses of one sublink under one binding: the block rows
// G(t), the listed slots of in. Immutable once memoized.
type genSet struct {
	in    *rel.Relation
	slots []int32
}

// genScratch is the per-call state of generation, reused across rows.
type genScratch struct {
	id     int32 // the selection's
	run    *genRun
	scope  []rel.Tuple // outer, then the current row of T
	row    rel.Tuple   // the output row being assembled
	sets   []genSet    // the current row's witnesses, per block
	seen   map[int]struct{}
	combos []int32 // the distinct keys found, one bucket number per leaf
}

func (g *genPlan) scratch(id int32, run *genRun, outer []rel.Tuple) *genScratch {
	scope := make([]rel.Tuple, len(outer)+1)
	copy(scope, outer)
	return &genScratch{
		id:    id,
		run:   run,
		scope: scope,
		row:   make(rel.Tuple, g.width),
		sets:  make([]genSet, len(g.blocks)),
		seen:  map[int]struct{}{},
	}
}

// planGen returns the generation plan of a selection over a Cross, or nil
// when the selection does not have the shape generation answers exactly.
func (lw *lowering) planGen(o *algebra.Select) *genPlan {
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
	width := lw.width(o)
	node, hi := o.Child, width
	for {
		cr, ok := node.(*algebra.Cross)
		if !ok {
			break
		}
		lo := hi - lw.width(cr.R)
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
	g := &genPlan{input: node, inputID: lw.ids[node], width: width}
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
		leaf := &genLeaf{op: l.op, id: lw.ids[l.op], at: g.leaves}
		g.leaves++
		for _, k := range shapes[l.owner].keys {
			if k.slot >= l.lo && k.slot < l.hi {
				leaf.keys.pairs = append(leaf.keys.pairs, equiKey{probe: k.inner, build: algebra.BoxRef(algebra.Ref{Idx: int32(k.slot - l.lo)}), nullEq: true})
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
		s.queryID, s.emptyID = lw.ids[shape.query], lw.ids[shape.empty.Query]
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

// genTables returns the run's tables of generation plan g of selection
// node id, built on the first call: it hashes every CrossBase leaf, right to
// left as streamJoin evaluates them and charging each as a build side, and
// numbers the keys of each block. The literal selection runs instead when a
// leaf is empty — no conjunct is then evaluated at all — or a block's key
// count overflows an int.
func (e *Evaluator) genTables(g *genPlan, id int32, outer []rel.Tuple) (*genRun, error) {
	if e.shared.gens == nil {
		e.shared.gens = make([]*genRun, len(e.shared.plan.nodes))
	}
	if run := e.shared.gens[id]; run != nil {
		return run, nil
	}
	run := &genRun{tables: make([]genTable, g.leaves), totals: make([]int, len(g.blocks))}
	e.shared.gens[id] = run
	for b := len(g.blocks) - 1; b >= 0; b-- {
		for i := len(g.blocks[b].leaves) - 1; i >= 0; i-- {
			l := g.blocks[b].leaves[i]
			in, err := e.eval(l.op, l.id, outer)
			if err != nil {
				return nil, err
			}
			t := &run.tables[l.at]
			if t.index, err = e.buildIndex(&l.keys, in, outer); err != nil {
				return nil, err
			}
			var buf [64]byte
			null := buf[:0]
			for range l.keys.pairs {
				null = types.Null().AppendKey(null)
			}
			t.null = t.index.number(null)
		}
	}
	for b, s := range g.blocks {
		total := 1
		for _, l := range s.leaves {
			t := &run.tables[l.at]
			n := len(t.index.buckets)
			if n == 0 || total > (1<<62)/n {
				return run, nil
			}
			t.stride = total
			total *= n
		}
		run.totals[b] = total
	}
	run.ok = true
	return run, nil
}

// generatedSelect answers selection node id by generation, and reports
// false when the literal selection must run instead.
func (e *Evaluator) generatedSelect(g *genPlan, id int32, outer []rel.Tuple, emit emitFn) (bool, error) {
	run, err := e.genTables(g, id, outer)
	if err != nil {
		return true, err
	}
	if !run.ok {
		return false, nil
	}
	s := g.scratch(id, run, outer)
	return true, e.stream(g.input, g.inputID, outer, func(t rel.Tuple, n int) error {
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
	block := genBlock{s.id, int32(sub.block)}
	if set, ok := e.shared.witnesses.get(block, key); ok {
		return set, nil
	}
	q, err := e.evalSubplan(sub.query, sub.queryID, s.scope)
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
	if len(s.seen) < s.run.totals[sub.block] {
		v, err := e.probeExists(sub.empty, sub.emptyID, s.scope)
		if err != nil {
			return genSet{}, err
		}
		if !v.Bool() {
			s.addCombo(sub, func(l *genLeaf) int32 { return s.run.tables[l.at].null })
		}
	}
	set, err := e.expand(sub, s.run, s.combos)
	if err != nil {
		return genSet{}, err
	}
	e.shared.witnesses.put(block, key, set)
	return set, nil
}

// admit adds the key of Q's row u to the witnesses, once per distinct key.
func (e *Evaluator) admit(sub *genSublink, u rel.Tuple, s *genScratch) error {
	var findErr error
	s.addCombo(sub, func(l *genLeaf) int32 {
		b, err := e.find(s.run.tables[l.at].index, &l.keys, u, s.scope)
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
		id += int(b) * s.run.tables[l.at].stride
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
func (e *Evaluator) expand(sub *genSublink, run *genRun, combos []int32) (genSet, error) {
	m := len(sub.leaves)
	if m == 1 {
		ix := run.tables[sub.leaves[0].at].index
		if len(combos) == 1 {
			return genSet{in: ix.in, slots: ix.bucket(combos[0])}, nil
		}
		set := genSet{in: ix.in}
		for _, b := range combos {
			set.slots = append(set.slots, ix.bucket(b)...)
		}
		return set, nil
	}
	var width int32
	for _, l := range sub.leaves {
		width += e.node(l.id).width
	}
	set := genSet{in: rel.New(unnamed(width))}
	for c := 0; c < len(combos); c += m {
		rows, counts := []rel.Tuple{nil}, []int{1}
		for k, b := range combos[c : c+m] {
			ix := run.tables[sub.leaves[k].at].index
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
