package eval

import (
	"perm/internal/rel"
	"perm/internal/types"
)

// runShared is the state of one top-level run (PostgreSQL's PlanState): the
// plan it runs, the row budget, the counters of Stats, and what the run
// computed, each keyed by node ID (see Plan) and binding. The run decides
// nothing: every decision is the plan's. A stored value is immutable.
type runShared struct {
	plan                                *Plan
	rows                                int64
	indexBuilds, indexProbes, generated int64

	// bags holds materialized sublink results: under the empty binding once
	// per query for an uncorrelated sublink (PostgreSQL's InitPlan), and per
	// binding of its free slots for a correlated one, so repeated outer
	// bindings evaluate the sublink once instead of O(outer) times.
	bags memo[int32, *rel.Relation]
	// anySets holds the hash sets of uncorrelated = ANY sublinks
	// (PostgreSQL's hashed subplans).
	anySets memo[int32, *anySet]
	// exists and scalars hold the verdicts of early-terminating streaming
	// probes. A probe that stopped at its deciding row has seen only part
	// of the subplan's bag, so bags must never receive it — the verdict is
	// the memoizable result.
	exists  memo[int32, bool]
	scalars memo[int32, types.Value]
	// indexes holds the indexes of selections the plan answers from one,
	// per binding of the input's free slots, built by this run or found
	// attached to a base relation. A nil index marks a binding seen once,
	// whose call ran the literal filter.
	indexes memo[int32, *slotIndex]
	// gens holds, by node ID, the CrossBase tables of each selection the
	// plan answers by generation, and witnesses the witnesses generation
	// found per sublink and binding (see gen.go).
	gens      []*genRun
	witnesses memo[genBlock, genSet]

	// scopes is the run's scope stack (see evalSublink) and top the number
	// of its frames in use; frames is its storage for plans of shallow
	// nesting.
	scopes []rel.Tuple
	top    int
	frames [4]rel.Tuple
}

// newRunShared returns the state of a run of p.
func newRunShared(p *Plan) *runShared {
	r := &runShared{plan: p}
	if p.depth <= len(r.frames) {
		r.scopes = r.frames[:p.depth]
	} else {
		r.scopes = make([]rel.Tuple, p.depth)
	}
	return r
}

// memo is one table of per-run state: a value per plan node and binding.
// A correlated sublink is evaluated under each binding of its free slots
// (substitution semantics), so everything the executor keeps for a run is a
// function of a node and the encoded values appendParamKey builds for it.
// A node that reads no enclosing scope has the empty binding. The zero memo
// is empty and ready; a stored value is immutable.
type memo[K comparable, V any] struct {
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
	v, ok := m.m[memoKey[K]{node, string(binding)}]
	return v, ok
}

// put stores v for node under binding; a later store replaces it.
func (m *memo[K, V]) put(node K, binding []byte, v V) {
	if m.m == nil {
		m.m = map[memoKey[K]]V{}
	}
	m.m[memoKey[K]{node, string(binding)}] = v
}
