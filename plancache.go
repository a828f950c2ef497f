package perm

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/eval"
	"perm/internal/schema"
	"perm/internal/sql"
)

// The plan cache keeps at most planCacheCap compiled plans, at most
// planVariants of them per statement family. Both are fixed: a plan is a few
// kilobytes, so the cache stays within a few megabytes whatever it is fed,
// and the working set of statement shapes of an application is far smaller.
const (
	planCacheCap = 512
	planVariants = 16
)

// dep is one relation name a statement resolved and what it was bound to
// when its plan was compiled.
type dep struct {
	name string
	// view is the definition, when the name was a view.
	view *sql.ViewDef
	// shape is the table's schema and column kinds otherwise.
	shape *catalog.Shape
}

// depOf resolves one relation name in the snapshot.
func (sn snapshot) depOf(name string) dep {
	d := dep{name: name, view: sn.views.Get(name)}
	if d.view == nil {
		d.shape = sn.src.Shape(name)
	}
	return d
}

// depsOf resolves the relation names of a compiled statement in the snapshot
// it was compiled against. The names are slices of the statement's text,
// cloned so that a cached plan does not keep the text alive.
func (sn snapshot) depsOf(names []string) []dep {
	deps := make([]dep, len(names))
	for i, name := range names {
		deps[i] = sn.depOf(strings.Clone(name))
	}
	return deps
}

// same reports whether a plan compiled against d is the plan a compile
// against o yields: the same view definition — immutable, compared by
// pointer — or, with no view of the name in the way, a table of the same
// schema and column kinds.
func (d dep) same(o dep) bool {
	return d.name == o.name && d.view == o.view && d.shape.Equal(o.shape)
}

// holds reports whether every name is bound in the snapshot to what the plan
// was compiled against, in the base and in any session alike. INSERT keeps a
// table's shape — the very pointer, so the comparison ends there — and
// invalidates nothing; DDL invalidates exactly the plans that named the
// object, when they are next looked up; a session's private table shares
// the plans of every table of its name and shape, and none of a table of
// another.
func (sn snapshot) holds(deps []dep) bool {
	for _, d := range deps {
		if !sn.depOf(d.name).same(d) {
			return false
		}
	}
	return true
}

// planCache maps statement shapes (sql.Lexed.Shape), together with the
// options that shape a plan, to compiled, parameterised plans. One cache
// serves a DB and every session opened from it. It is keyed by statement
// family; a family holds several variants, for two reasons. Statements of
// one family differ in their pattern — which of their literals are equal —
// and each pattern is compiled, and compacted, on its own. And sessions may
// bind the same names differently — each to a private table w of columns of
// its own, say — and must not evict each other. Nothing ever flushes or scans the cache: a plan that DDL made stale
// fails holds and ages out of its family.
type planCache struct {
	hits, misses, stale, evictions atomic.Int64

	mu sync.RWMutex
	// families maps a family to its variants, oldest first. A published
	// variant slice is never written again: lookups read it outside the lock.
	// Guarded by mu.
	families map[string][]*planned
	// entries counts the variants of all families. Guarded by mu.
	entries int
}

func newPlanCache() *planCache { return &planCache{families: map[string][]*planned{}} }

// lookup returns the family's plan for the pattern that is valid in the
// snapshot, or nil.
func (c *planCache) lookup(family, pattern []byte, sn snapshot) *planned {
	c.mu.RLock()
	variants := c.families[string(family)]
	c.mu.RUnlock()
	stale := false
	for _, p := range variants {
		if p.pattern != string(pattern) {
			continue
		}
		if sn.holds(p.deps) {
			c.hits.Add(1)
			return p
		}
		stale = true
	}
	c.misses.Add(1)
	if stale {
		c.stale.Add(1)
	}
	return nil
}

// twin returns the variant that is p's plan already: same pattern, same
// bindings.
func twin(variants []*planned, p *planned) *planned {
	for _, q := range variants {
		if q.pattern == p.pattern && slices.EqualFunc(q.deps, p.deps, dep.same) {
			return q
		}
	}
	return nil
}

// admit adds a freshly compiled plan to its family and returns the plan to
// run: a copy of p fit to be kept, or the equal plan that a concurrent
// compile admitted first. The copy is made outside the lock — it walks the
// whole plan, and every lookup of every session reads under the same lock.
// With the frozen-plan check on (WithPlanCheck) the copy is fingerprinted
// before anyone sees it.
func (c *planCache) admit(family string, p *planned, check bool) *planned {
	kept := keep(p)
	if check {
		kept.frozen = kept.fingerprint()
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.families[family]
	if q := twin(old, p); q != nil {
		return q
	}
	switch {
	case len(old) == planVariants:
		old = old[1:]
		c.drop(1)
	case c.entries == planCacheCap:
		for victim, variants := range c.families { // whichever comes first
			if victim != family {
				delete(c.families, victim)
				c.drop(len(variants))
				break
			}
		}
	}
	next := make([]*planned, 0, len(old)+1)
	c.families[family] = append(append(next, old...), kept)
	c.entries++
	return kept
}

// keep returns the copy of p that the cache retains, compacted on its own
// (algebra.Compact), with its physical annotation lowered from the copy
// (eval.Lower).
func keep(p *planned) *planned {
	kept := *p
	var schemas []schema.Schema
	for _, d := range p.deps {
		if d.shape != nil {
			schemas = append(schemas, d.shape.Schema)
		}
	}
	kept.plan = algebra.Compact(p.plan, schemas)
	kept.phys = eval.Lower(kept.plan)
	return &kept
}

// drop accounts for n evicted plans. The caller holds c.mu.
func (c *planCache) drop(n int) {
	c.entries -= n
	c.evictions.Add(int64(n))
}

// PlanCacheStats are the counters of a DB's plan cache.
type PlanCacheStats struct {
	// Hits and Misses count the statements that ran a cached plan and the
	// ones that had to compile theirs. Statements run WithoutPlanCache count
	// as neither.
	Hits, Misses int64
	// Stale counts the misses that found plans of the statement's shape,
	// none of them compiled against what the statement's relation names are
	// bound to now: DDL ran since, or the plans belong to sessions with
	// private tables of those names.
	Stale int64
	// Evictions counts plans dropped to stay within the cache's bounds.
	Evictions int64
	// Entries is the number of plans held.
	Entries int
}

// PlanCacheStats returns the counters of the plan cache that db shares with
// its sessions.
func (db *DB) PlanCacheStats() PlanCacheStats {
	c := db.plans
	c.mu.RLock()
	entries := c.entries
	c.mu.RUnlock()
	return PlanCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Stale:     c.stale.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
	}
}
