package eval

import "sync"

// memo is one table of per-run state: a value per plan node and binding.
// A correlated sublink is evaluated under each binding of its free slots
// (substitution semantics), so everything the executor keeps for a run is a
// function of a node and the encoded values appendParamKey builds for it.
// A node that reads no enclosing scope, and a decision made once per node,
// has the empty binding. The zero memo is empty and ready; a stored value
// is immutable.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	// guarded-by: mu
	m map[memoKey[K]]V
}

type memoKey[K comparable] struct {
	node    K
	binding string
}

// get returns the value stored for node under binding. The binding is
// converted for the lookup only, so a hit on a stack-buffer binding
// allocates nothing.
func (m *memo[K, V]) get(node K, binding []byte) (V, bool) {
	m.mu.Lock()
	v, ok := m.m[memoKey[K]{node, string(binding)}]
	m.mu.Unlock()
	return v, ok
}

// put stores v for node under binding. Workers may race to compute the same
// entry; the later store wins, and either is the same result.
func (m *memo[K, V]) put(node K, binding []byte, v V) {
	m.mu.Lock()
	if m.m == nil {
		m.m = map[memoKey[K]]V{}
	}
	m.m[memoKey[K]{node, string(binding)}] = v
	m.mu.Unlock()
}
