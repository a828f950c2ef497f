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

// Relation is a bag of tuples over a schema. Distinct tuples are stored once
// with an integer multiplicity. The zero Relation is an empty bag with an
// empty schema; use New to attach a schema.
//
// Relation is the engine's mutable builder: loaders and operators fill one
// with Add and only then hand it over. Immutability of registered relations
// is a catalog-boundary convention; the immutable view of a catalog state is
// catalog.Snapshot.
type Relation struct {
	Schema schema.Schema

	tuples []Tuple
	counts []int
	index  map[string]int // tuple key -> slot in tuples/counts
}

// New returns an empty relation with the given schema.
func New(s schema.Schema) *Relation {
	return &Relation{Schema: s, index: map[string]int{}}
}

// FromTuples builds a relation from tuples, each with multiplicity 1.
func FromTuples(s schema.Schema, ts ...Tuple) *Relation {
	r := New(s)
	for _, t := range ts {
		r.Add(t, 1)
	}
	return r
}

// Add inserts n copies of t (merging with an existing slot). It panics if
// the tuple width does not match the schema — that is always an engine bug,
// not a data error. n may be negative (bag difference); slots never go below
// zero.
func (r *Relation) Add(t Tuple, n int) {
	if len(t) != r.Schema.Len() {
		panic(fmt.Sprintf("rel: tuple width %d does not match schema %s", len(t), r.Schema))
	}
	if n == 0 {
		return
	}
	if r.index == nil {
		r.index = map[string]int{}
	}
	k := t.Key()
	if slot, ok := r.index[k]; ok {
		r.counts[slot] += n
		if r.counts[slot] < 0 {
			r.counts[slot] = 0
		}
		return
	}
	if n < 0 {
		return
	}
	r.index[k] = len(r.tuples)
	r.tuples = append(r.tuples, t)
	r.counts = append(r.counts, n)
}

// Count returns the multiplicity of t in the bag.
func (r *Relation) Count(t Tuple) int {
	if r.index == nil {
		return 0
	}
	if slot, ok := r.index[t.Key()]; ok {
		return r.counts[slot]
	}
	return 0
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
func (r *Relation) Empty() bool { return r.Card() == 0 }

// Each calls fn for every distinct tuple with positive multiplicity,
// stopping early if fn returns an error.
func (r *Relation) Each(fn func(t Tuple, n int) error) error {
	for i, t := range r.tuples {
		if r.counts[i] <= 0 {
			continue
		}
		if err := fn(t, r.counts[i]); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep-enough copy: slots are copied, tuples are shared
// (tuples are immutable by convention).
func (r *Relation) Clone() *Relation {
	c := New(r.Schema)
	for i, t := range r.tuples {
		if r.counts[i] > 0 {
			c.Add(t, r.counts[i])
		}
	}
	return c
}

// WithSchema returns a view of the relation under a different schema of the
// same width, sharing tuple storage. Used by scans to re-qualify attributes
// with the scan alias.
func (r *Relation) WithSchema(s schema.Schema) *Relation {
	if s.Len() != r.Schema.Len() {
		panic(fmt.Sprintf("rel: WithSchema width mismatch: %s vs %s", s, r.Schema))
	}
	return &Relation{Schema: s, tuples: r.tuples, counts: r.counts, index: r.index}
}

// Distinct returns the set version of the bag: every positive slot with
// multiplicity 1.
func (r *Relation) Distinct() *Relation {
	c := New(r.Schema)
	for i, t := range r.tuples {
		if r.counts[i] > 0 {
			c.Add(t, 1)
		}
	}
	return c
}

// Equal reports whether two relations contain the same bag of tuples
// (schemas are compared by width only; attribute names are metadata).
func (r *Relation) Equal(o *Relation) bool {
	if r.Schema.Len() != o.Schema.Len() {
		return false
	}
	if r.Card() != o.Card() {
		return false
	}
	for i, t := range r.tuples {
		if r.counts[i] <= 0 {
			continue
		}
		if o.Count(t) != r.counts[i] {
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
	for i, t := range r.tuples {
		if r.counts[i] > 0 && o.Count(t) <= 0 {
			return false
		}
	}
	for i, t := range o.tuples {
		if o.counts[i] > 0 && r.Count(t) <= 0 {
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
	for i, t := range r.tuples {
		if r.counts[i] <= 0 {
			continue
		}
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

// Tuples returns the distinct positive tuples expanded by multiplicity, in
// the order they were first added: the bag as the engine built it.
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
