// Package lockcheck is the fixture for the lockcheck analyzer.
package lockcheck

import "sync"

// registry mirrors the engine's views-map shape: a map replaced wholesale
// under a mutex.
type registry struct {
	mu sync.RWMutex

	// views is the published definitions map.
	// guarded-by: mu
	views map[string]int

	// dropped is tombstone state.
	dropped map[string]bool // guarded-by: mu

	// free is not annotated; accesses are unchecked.
	free int
}

// newRegistry initializes a fresh value: composite-literal initialization
// is exempt (the value is not shared yet).
func newRegistry() *registry {
	return &registry{views: map[string]int{}, dropped: map[string]bool{}}
}

// lookup holds the read lock: fine.
func (r *registry) lookup(name string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.views[name]
}

// publish holds the write lock: fine.
func (r *registry) publish(name string, v int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	next := make(map[string]int, len(r.views)+1)
	for k, old := range r.views {
		next[k] = old
	}
	next[name] = v
	r.views = next
}

// leak reads the guarded map without the lock.
func (r *registry) leak(name string) int {
	return r.views[name] // want `access to "views" \(guarded-by: mu\) without holding mu`
}

// torn writes both guarded fields without the lock.
func (r *registry) torn(name string) {
	r.views[name] = 1      // want `access to "views" \(guarded-by: mu\) without holding mu`
	r.dropped[name] = true // want `access to "dropped" \(guarded-by: mu\) without holding mu`
	r.free++
}

// sizeLocked follows the *Locked helper convention: the caller holds mu.
//
// permlint:held mu
func (r *registry) sizeLocked() int {
	return len(r.views) + len(r.dropped)
}

// size takes the lock and delegates.
func (r *registry) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sizeLocked()
}

// earlyOK returns early under a deferred unlock: every path is balanced.
func (r *registry) earlyOK(name string) (int, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if v, ok := r.views[name]; ok {
		return v, true
	}
	return 0, false
}

// loop locks and unlocks per iteration: balanced across the back edge.
func (r *registry) loop(names []string) int {
	total := 0
	for _, n := range names {
		r.mu.RLock()
		total += r.views[n]
		r.mu.RUnlock()
	}
	return total
}

// branchy holds the lock on only one of the two paths reaching the access.
// The conditional release below is invisible to a path-insensitive join, so
// the balance check also (rightly, for this analysis) flags the RLock.
func (r *registry) branchy(cond bool, name string) int {
	if cond {
		r.mu.RLock() // want `lockcheck\.registry\.mu\.RLock\(\) is not released on some path to return`
	}
	v := r.views[name] // want `access to "views" \(guarded-by: mu\) holds mu on some paths only`
	if cond {
		r.mu.RUnlock()
	}
	return v
}

// leakyLock forgets to unlock on the early return.
func (r *registry) leakyLock(cond bool) int {
	r.mu.Lock() // want `lockcheck\.registry\.mu\.Lock\(\) is not released on some path to return`
	if cond {
		return 0
	}
	r.mu.Unlock()
	return 1
}

// hold never releases at all.
func (r *registry) hold(name string) int {
	r.mu.Lock() // want `lockcheck\.registry\.mu\.Lock\(\) is not released on any path to return`
	return r.views[name]
}

// relock re-acquires the write lock it already holds: self-deadlock.
func (r *registry) relock() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mu.Lock() // want `lockcheck\.registry\.mu\.Lock\(\) while the write lock is already held`
}

// stray unlocks a lock this path never took.
func (r *registry) stray() {
	r.mu.Unlock() // want `lockcheck\.registry\.mu\.Unlock\(\) without holding the lock on this path`
}

// box is generic: every instantiation, and the box[V] of each method's own
// receiver, shares the one annotation on the declared field.
type box[V any] struct {
	mu sync.Mutex
	// guarded-by: mu
	val V
}

func (b *box[V]) set(v V) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.val = v
}

func (b *box[V]) peek() V {
	return b.val // want `access to "val" \(guarded-by: mu\) without holding mu`
}

func peekInt(b *box[int]) int {
	return b.val // want `access to "val" \(guarded-by: mu\) without holding mu`
}

// table has two type parameters and a map keyed by one of them inside a
// generic key type: its methods share the one annotation as box's do.
type table[K comparable, V any] struct {
	mu sync.Mutex
	// guarded-by: mu
	m map[tableKey[K]]V
}

type tableKey[K comparable] struct {
	node K
	tag  string
}

func (t *table[K, V]) get(node K, tag string) (V, bool) {
	t.mu.Lock()
	v, ok := t.m[tableKey[K]{node, tag}]
	t.mu.Unlock()
	return v, ok
}

func (t *table[K, V]) peek(node K) V {
	return t.m[tableKey[K]{node: node}] // want `access to "m" \(guarded-by: mu\) without holding mu`
}
