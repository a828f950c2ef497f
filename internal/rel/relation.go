// Package rel implements bag (multiset) relations: the data representation
// executed by the engine. Tuples carry explicit multiplicities, matching the
// counted-bag algebra of Figure 1 in Glavic & Alonso (EDBT 2009), where a
// tuple's cardinality is written as a superscript (e.g. (1,2)³).
package rel

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"perm/internal/schema"
	"perm/internal/types"
)

// Tuple is a row of values, positionally aligned with a Schema.
type Tuple []types.Value

// Key returns a self-delimiting byte-key for the tuple; two tuples share a
// key iff they are equal under =n per attribute (the grouping equivalence).
func (t Tuple) Key() string {
	buf := make([]byte, 0, 16*len(t))
	for _, v := range t {
		buf = v.AppendKey(buf)
	}
	return string(buf)
}

// Compare orders t and o exactly as strings.Compare orders their Keys,
// without building them: value by value under types.Value.CompareKey, a
// proper prefix first.
func (t Tuple) Compare(o Tuple) int {
	for i := range min(len(t), len(o)) {
		if c := t[i].CompareKey(o[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(t), len(o))
}

// Clone returns a copy of the tuple that shares no storage with t.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Concat returns the concatenation (t, o) as a fresh tuple.
func (t Tuple) Concat(o Tuple) Tuple {
	c := make(Tuple, 0, len(t)+len(o))
	c = append(c, t...)
	c = append(c, o...)
	return c
}

// String renders the tuple as (v1, v2, …).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Nulls returns a tuple of n NULLs — the null(R) extension tuple used by the
// Gen strategy's CrossBase and by outer joins.
func Nulls(n int) Tuple {
	t := make(Tuple, n)
	for i := range t {
		t[i] = types.Null()
	}
	return t
}

// Relation is a bag of tuples over a schema: an append-only list of slots,
// each a tuple with a positive multiplicity. The same tuple may sit in
// several slots — Add appends and never looks for an equal tuple — so a
// tuple's multiplicity in the bag is the sum over its slots. Only the
// operations whose semantics need tuple equality (Distinct, Equal, EqualSet,
// Merge, and set operations through Group) compare tuples, under the =n
// equivalence of Tuple.Key. The zero Relation is an empty bag with an empty
// schema; use New to attach a schema.
//
// Relation is the engine's mutable builder: loaders and operators fill one
// with Add and only then hand it over. A relation a catalog (or any
// executor DB) returns is never mutated: INSERT publishes an appended Clone
// under the same name, so one pointer is one relation version, and the
// immutable view of a catalog state is catalog.Snapshot. State derived from
// a version's slots (an executor's index) may therefore be attached to it
// (Attach) and lives and dies with it.
type Relation struct {
	Schema schema.Schema

	tuples []Tuple
	counts []int // counts[i] > 0 is the multiplicity of tuples[i]
	merged bool  // no two slots hold equal tuples: set by Merge, cleared by Add
	// attached is the newest value Attach published, nil until the first:
	// an immutable list, so readers load it without a lock.
	attached atomic.Pointer[attachment]
}

// attachment is one value attached to a relation, linked to the older ones.
type attachment struct {
	key  string
	val  any
	next *attachment
}

// New returns an empty relation with the given schema.
func New(s schema.Schema) *Relation {
	return &Relation{Schema: s}
}

// FromTuples builds a relation from tuples, each with multiplicity 1.
func FromTuples(s schema.Schema, ts ...Tuple) *Relation {
	r := New(s)
	for _, t := range ts {
		r.Add(t, 1)
	}
	return r
}

// Add appends a slot holding n copies of t; n == 0 adds nothing. It does not
// merge with a slot holding an equal tuple. It panics if the tuple width
// does not match the schema or n is negative — both are engine bugs, not
// data errors.
func (r *Relation) Add(t Tuple, n int) {
	if len(t) != r.Schema.Len() {
		panic(fmt.Sprintf("rel: tuple width %d does not match schema %s", len(t), r.Schema))
	}
	if n < 0 {
		panic(fmt.Sprintf("rel: negative multiplicity %d", n))
	}
	if n == 0 {
		return
	}
	r.tuples = append(r.tuples, t)
	r.counts = append(r.counts, n)
	r.merged = false
	r.detach()
}

// Slots returns the number of slots.
func (r *Relation) Slots() int { return len(r.tuples) }

// Slot returns the tuple and multiplicity of slot i, 0 ≤ i < Slots().
func (r *Relation) Slot(i int) (Tuple, int) { return r.tuples[i], r.counts[i] }

// Attached returns the value attached to the relation under key, or nil.
func (r *Relation) Attached(key string) any {
	for a := r.attached.Load(); a != nil; a = a.next {
		if a.key == key {
			return a.val
		}
	}
	return nil
}

// maxAttached caps the values one relation keeps attached. Nothing evicts
// an attached value, and a relation nobody INSERTs into lives as long as
// its catalog: the cap is what bounds the state a stream of differently
// keyed statements can leave on it.
const maxAttached = 8

// Attach attaches val to the relation under key and returns it, or returns
// the value attached under key already, so that of two concurrent Attach
// calls for one key the second gets the first's value. A relation that
// holds maxAttached values attaches no more: Attach then returns val
// unpublished, for the caller alone. An attached value must be a function
// of the relation's slots alone and never be mutated: any number of
// goroutines read it. Views (WithSchema) and copies (Clone) do not share
// it, and Add and Merge drop it.
func (r *Relation) Attach(key string, val any) any {
	for {
		head, n := r.attached.Load(), 0
		for a := head; a != nil; a = a.next {
			if a.key == key {
				return a.val
			}
			n++
		}
		if n >= maxAttached {
			return val
		}
		if r.attached.CompareAndSwap(head, &attachment{key: key, val: val, next: head}) {
			return val
		}
	}
}

// detach drops the attached values of a relation whose slots change. A
// registered relation never changes; this keeps a builder that is filled
// after an Attach from answering from a stale value.
func (r *Relation) detach() {
	if r.attached.Load() != nil {
		r.attached.Store(nil)
	}
}

// Count returns the multiplicity of t in the bag, summed over its slots. It
// scans every slot: engine paths that look up many tuples build a Group once.
func (r *Relation) Count(t Tuple) int {
	total := 0
	for i, u := range r.tuples {
		if u.Compare(t) == 0 {
			total += r.counts[i]
		}
	}
	return total
}

// Card returns the total cardinality including multiplicities.
func (r *Relation) Card() int {
	total := 0
	for _, c := range r.counts {
		total += c
	}
	return total
}

// Empty reports whether the bag contains no tuples.
func (r *Relation) Empty() bool { return len(r.tuples) == 0 }

// Each calls fn for every slot in the order it was added, stopping early if
// fn returns an error. A tuple held in several slots is visited once per
// slot, each time with that slot's multiplicity.
func (r *Relation) Each(fn func(t Tuple, n int) error) error {
	for i, t := range r.tuples {
		if err := fn(t, r.counts[i]); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a copy whose slot slices share no backing array with r, with
// room for extra more slots: Adds to the copy never reach r. Tuples are
// shared (they are immutable by convention).
func (r *Relation) Clone(extra int) *Relation {
	return &Relation{
		Schema: r.Schema,
		tuples: append(make([]Tuple, 0, len(r.tuples)+extra), r.tuples...),
		counts: append(make([]int, 0, len(r.counts)+extra), r.counts...),
		merged: r.merged,
	}
}

// WithSchema returns a view of the relation under a different schema of the
// same width, sharing tuple storage. Used by scans to re-qualify attributes
// with the scan alias.
func (r *Relation) WithSchema(s schema.Schema) *Relation {
	if s.Len() != r.Schema.Len() {
		panic(fmt.Sprintf("rel: WithSchema width mismatch: %s vs %s", s, r.Schema))
	}
	return &Relation{Schema: s, tuples: r.tuples, counts: r.counts, merged: r.merged}
}

// Group is a bag's slots grouped by Tuple.Key, the =n equivalence: one
// group per distinct tuple, in the order of its first slot, with the sum of
// its slots' multiplicities. It is the one place tuples of a bag are
// compared; build one where the semantics need tuple equality and drop it
// after.
type Group struct {
	tuples []Tuple
	counts []int
	index  map[string]int // tuple key -> group
}

// Group groups the bag's slots by tuple.
func (r *Relation) Group() *Group {
	n := len(r.tuples)
	g := &Group{tuples: make([]Tuple, 0, n), counts: make([]int, 0, n), index: make(map[string]int, n)}
	for i, t := range r.tuples {
		k := t.Key()
		if j, ok := g.index[k]; ok {
			g.counts[j] += r.counts[i]
			continue
		}
		g.index[k] = len(g.tuples)
		g.tuples = append(g.tuples, t)
		g.counts = append(g.counts, r.counts[i])
	}
	return g
}

// Len returns the number of distinct tuples.
func (g *Group) Len() int { return len(g.tuples) }

// Count returns the multiplicity of t left in the group.
func (g *Group) Count(t Tuple) int {
	if j, ok := g.index[t.Key()]; ok {
		return g.counts[j]
	}
	return 0
}

// Take removes up to n copies of t from the group and returns how many it
// removed: min(n, Count(t)). Set operations consume the right input's counts
// this way as they visit the left input's slots, so a tuple split across
// left slots is matched against its right count once in total.
func (g *Group) Take(t Tuple, n int) int {
	j, ok := g.index[t.Key()]
	if !ok {
		return 0
	}
	m := min(n, g.counts[j])
	g.counts[j] -= m
	return m
}

// Merge folds slots holding equal tuples into one slot each, keeping the
// order of first occurrence. It installs new slot slices, so views that
// share the old ones (WithSchema, an earlier version's slices) are
// unaffected; a bag without duplicates is left as it is. A bag merged
// before and not added to since is not grouped again.
func (r *Relation) Merge() {
	if r.merged {
		return
	}
	if g := r.Group(); g.Len() < len(r.tuples) {
		r.tuples, r.counts = g.tuples, g.counts
		r.detach()
	}
	r.merged = true
}

// Distinct returns the set version of the bag: every distinct tuple with
// multiplicity 1.
func (r *Relation) Distinct() *Relation {
	g := r.Group()
	for j := range g.counts {
		g.counts[j] = 1
	}
	return &Relation{Schema: r.Schema, tuples: g.tuples, counts: g.counts, merged: true}
}

// Equal reports whether two relations contain the same bag of tuples
// (schemas are compared by width only; attribute names are metadata).
func (r *Relation) Equal(o *Relation) bool {
	if r.Schema.Len() != o.Schema.Len() || r.Card() != o.Card() {
		return false
	}
	rg, og := r.Group(), o.Group()
	if rg.Len() != og.Len() {
		return false
	}
	for j, t := range rg.tuples {
		if og.Count(t) != rg.counts[j] {
			return false
		}
	}
	return true
}

// EqualSet reports set-equality: both relations contain the same distinct
// tuples, ignoring multiplicities.
func (r *Relation) EqualSet(o *Relation) bool {
	if r.Schema.Len() != o.Schema.Len() {
		return false
	}
	rg, og := r.Group(), o.Group()
	if rg.Len() != og.Len() {
		return false
	}
	for _, t := range rg.tuples {
		if og.Count(t) == 0 {
			return false
		}
	}
	return true
}

// InferKinds derives a per-column type from the data: the kind shared by
// every non-NULL value of the column, with int and float unifying to float.
// A column that is all NULL — or that mixes incompatible kinds, which the
// SQL surface cannot produce but Register permits — reports KindNull,
// meaning "unknown" to the semantic analyzer (every operation is admitted
// and decided at runtime).
//
// The result is computed once at Register time and cached in the catalog,
// so the inference must be read-only over the relation.
func (r *Relation) InferKinds() []types.Kind {
	kinds := make([]types.Kind, r.Schema.Len())
	conflict := make([]bool, r.Schema.Len())
	for _, t := range r.tuples {
		for j, v := range t {
			k := v.Kind()
			if k == types.KindNull || kinds[j] == k || conflict[j] {
				continue
			}
			switch {
			case kinds[j] == types.KindNull:
				kinds[j] = k
			case (kinds[j] == types.KindInt || kinds[j] == types.KindFloat) &&
				(k == types.KindInt || k == types.KindFloat):
				kinds[j] = types.KindFloat
			default:
				kinds[j], conflict[j] = types.KindNull, true // incompatible mix: unknown
			}
		}
	}
	return kinds
}

// Tuples returns the slots expanded by multiplicity, in the order they were
// added: the bag as the engine built it. A tuple held in several slots
// appears at each of them, not gathered in one place.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, 0, r.Card())
	for i, t := range r.tuples {
		for n := 0; n < r.counts[i]; n++ {
			out = append(out, t)
		}
	}
	return out
}

// SortedTuples returns Tuples in the canonical order of Tuple.Compare — for
// tests and CSV output, which want an order that does not depend on how the
// bag was built.
func (r *Relation) SortedTuples() []Tuple {
	out := r.Tuples()
	slices.SortFunc(out, Tuple.Compare)
	return out
}

// String renders the relation as a small table, deterministically ordered.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(r.Schema.String())
	b.WriteString(" {")
	for i, t := range r.SortedTuples() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteString("}")
	return b.String()
}
