// Package lockorder is the fixture for the lockorder analyzer.
package lockorder

import "sync"

type a struct{ mu sync.Mutex }
type b struct{ mu sync.Mutex }

// ab nests a.mu before b.mu.
func ab(x *a, y *b) {
	x.mu.Lock()
	y.mu.Lock() // want `potential deadlock: lock-acquisition-order cycle`
	y.mu.Unlock()
	x.mu.Unlock()
}

// ba nests b.mu before a.mu: with ab this closes the cycle. The finding is
// attributed to the cycle's lexicographically first edge (in ab above).
func ba(x *a, y *b) {
	y.mu.Lock()
	x.mu.Lock()
	x.mu.Unlock()
	y.mu.Unlock()
}

// outer/inner are always nested in one global order: no finding.
type outer struct{ mu sync.Mutex }
type inner struct{ mu sync.Mutex }

func nest(o *outer, i *inner) {
	o.mu.Lock()
	i.mu.Lock()
	i.mu.Unlock()
	o.mu.Unlock()
}

func nestAgain(o *outer, i *inner) {
	o.mu.Lock()
	defer o.mu.Unlock()
	i.mu.Lock()
	defer i.mu.Unlock()
}

// c demonstrates the transitive self-deadlock: sum calls get while holding
// the lock get re-acquires.
type c struct {
	mu sync.Mutex
	n  int
}

func (v *c) get() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.n
}

func (v *c) sum() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.n + v.get() // want `potential self-deadlock: lockorder\.c\.mu is re-acquired while already held`
}

// d shows the read-read tolerance: RLock under RLock is shareable, not a
// self-deadlock.
type d struct {
	mu sync.RWMutex
	n  int
}

func (v *d) rget() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.n
}

func (v *d) rsum() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.n + v.rget()
}

// spawn: acquisitions inside a go statement are not ordered against the
// creator's held locks (the goroutine does not inherit them), so this adds
// no inner-before-outer edge.
func spawn(o *outer, i *inner) {
	o.mu.Lock()
	go func() {
		i.mu.Lock()
		i.mu.Unlock()
	}()
	o.mu.Unlock()
}

// e is generic: calls to the methods of an instantiation resolve to the
// declared method, and every instantiation shares "the" e.mu.
type e[V any] struct {
	mu  sync.Mutex
	val V
}

func (v *e[V]) set(x V) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.val = x
}

// f holds its own lock while writing through a generic container.
type f struct {
	mu sync.Mutex
	in *e[int]
}

func (v *f) store(x int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.in.set(x)
}
