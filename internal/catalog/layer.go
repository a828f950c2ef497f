package catalog

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
)

// Layer is the repository's one copy-on-write container: a name → *V map
// published through a single atomic pointer, optionally stacked on a parent
// layer. An entry shadows the parent's entry of the same name; a nil entry
// is a tombstone that hides it. The parent is never written through, so any
// number of child layers share one parent without coordination.
//
// The published map is immutable: every write clones it, edits the clone
// and swaps the pointer, so a State loaded before a write keeps observing
// the pre-write version for as long as it lives. That pointer is the
// layer's version identity — two loads return the same pointer exactly when
// no write happened in between.
type Layer[V any] struct {
	parent *Layer[V]

	// mu serialises writers (one clone–edit–publish cycle at a time).
	// Readers never take it.
	mu sync.Mutex
	// state is the published version, never nil and never carrying a
	// parent. Guarded by mu for stores; Snapshot loads it lock-free.
	state atomic.Pointer[State[V]]
}

// NewLayer returns an empty layer over parent; a nil parent makes a root.
func NewLayer[V any](parent *Layer[V]) *Layer[V] {
	l := &Layer[V]{parent: parent}
	// No lock: l is not shared yet.
	l.state.Store(&State[V]{entries: map[string]*V{}})
	return l
}

// State is one immutable version of a layer with the version of every
// ancestor pinned beside it: what a statement compiles and executes
// against. The nil *State is the empty state.
type State[V any] struct {
	parent  *State[V]
	entries map[string]*V
}

// Snapshot returns the layer's current state. For a root layer it is one
// pointer load; a child also pins its parent's current state, so nothing a
// later write does at any level reaches the returned State.
func (l *Layer[V]) Snapshot() *State[V] {
	if l == nil {
		return nil
	}
	// Readers load the published pointer lock-free; mu only orders the
	// writers' stores.
	own := l.state.Load()
	if l.parent == nil {
		return own
	}
	return &State[V]{parent: l.parent.Snapshot(), entries: own.entries}
}

// Put publishes v under name, shadowing any parent entry and clearing any
// tombstone.
func (l *Layer[V]) Put(name string, v *V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	next := maps.Clone(l.state.Load().entries)
	next[name] = v
	l.state.Store(&State[V]{entries: next})
}

// Drop hides name and reports whether it was visible: the layer's own entry
// is removed, and a parent's entry is tombstoned (the parent itself is
// never touched).
func (l *Layer[V]) Drop(name string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	own := l.state.Load().entries
	inParent := l.parent.Snapshot().Get(name) != nil
	v, local := own[name]
	if visible := v != nil || !local && inParent; !visible {
		return false
	}
	next := maps.Clone(own)
	if inParent {
		next[name] = nil
	} else {
		delete(next, name)
	}
	l.state.Store(&State[V]{entries: next})
	return true
}

// Get resolves name nearest layer first, honouring tombstones; it returns
// nil when name is not visible.
func (s *State[V]) Get(name string) *V {
	for ; s != nil; s = s.parent {
		if v, ok := s.entries[name]; ok {
			return v
		}
	}
	return nil
}

// With returns a private state that shows v under name above s, leaving s
// untouched — how a definition is tried out before it is published.
func (s *State[V]) With(name string, v *V) *State[V] {
	return &State[V]{parent: s, entries: map[string]*V{name: v}}
}

// Names lists the visible names, sorted.
func (s *State[V]) Names() []string {
	var names []string
	seen := map[string]bool{}
	for ; s != nil; s = s.parent {
		for n, v := range s.entries {
			if !seen[n] {
				seen[n] = true
				if v != nil {
					names = append(names, n)
				}
			}
		}
	}
	slices.Sort(names)
	return names
}
