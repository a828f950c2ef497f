package eval

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"perm/internal/algebra"
	"perm/internal/rel"
	"perm/internal/schema"
	"perm/internal/types"
)

// runShared is the state one top-level Eval call shares across all worker
// goroutines: the row budget, the counters of Stats, and the memos. Each
// memo has its own lock and is keyed by plan node and binding; the counters
// are atomic so the hot add path never takes a lock. A stored value is
// immutable — workers may read it freely.
type runShared struct {
	rows                                atomic.Int64
	indexBuilds, indexProbes, generated atomic.Int64

	// bags holds materialized sublink results: under the empty binding once
	// per query for an uncorrelated sublink (PostgreSQL's InitPlan), and per
	// binding of its free slots for a correlated one, so repeated outer
	// bindings evaluate the sublink once instead of O(outer) times.
	bags memo[algebra.Op, *rel.Relation]
	// anySets holds the hash sets of uncorrelated = ANY sublinks
	// (PostgreSQL's hashed subplans).
	anySets memo[algebra.Op, *anySet]
	// exists and scalars hold the verdicts of early-terminating streaming
	// probes. A probe that stopped at its deciding row has seen only part
	// of the subplan's bag, so bags must never receive it — the verdict is
	// the memoizable result.
	exists  memo[algebra.Op, bool]
	scalars memo[algebra.Op, types.Value]
	// joins holds the equi-join split of each join node's condition, and
	// selects the plan of each selection: generation, an index, or the
	// literal filter.
	joins   memo[algebra.Op, *equiKeys]
	selects memo[*algebra.Select, *selectPlan]
	// indexes holds the hash indexes of those selections per binding of
	// the input's free slots. A nil table marks a binding seen once, whose
	// call ran the literal filter.
	indexes memo[*algebra.Select, hashTable]
	// witnesses holds the witnesses generation found per sublink and
	// binding (see gen.go).
	witnesses memo[*genSublink, genSet]
}

// fork returns a copy of e for one worker goroutine: the same shared run
// state and context, a fresh tick counter, and fan-out disabled.
func (e *Evaluator) fork() *Evaluator {
	cp := *e
	cp.ticks = 0
	cp.worker = true
	return &cp
}

// segmentFanOut reports the worker count for a parallel pipeline segment, or
// 0 for the sequential path. Only the streaming operators call it, and
// fan-out opens only at the top level of a plan: workers, segment producers
// and correlated scopes never fan out. The gate cannot inspect the input size
// (the input is a stream, not a bag), so callers additionally restrict
// fan-out to segments with sublink-bearing expressions, where per-row work
// dwarfs the exchange overhead.
func (e *Evaluator) segmentFanOut(outer []rel.Tuple) int {
	if e.Parallelism <= 1 || e.worker || len(outer) > 0 {
		return 0
	}
	return e.Parallelism
}

// streamRow is one row group in flight between a segment producer and its
// workers.
type streamRow struct {
	t rel.Tuple
	n int
}

// parallelSegment fans a pipeline segment out across workers: the producer
// streams child rows into per-worker mailboxes dealt round-robin (bounded
// channels, so the input is never materialized), each worker applies the
// segment body to its rows and buffers output in a private bag, and the
// buffers merge into emit in worker order once all workers finish. The
// round-robin deal and ordered merge make the output bag deterministic.
// The merge is a synchronization barrier: a downstream stop signal arriving
// during the merge cannot cease the (already finished) upstream work.
//
// A panic on a worker is recovered there, with the worker's stack, and
// raised again on the calling goroutine once every worker has exited — a
// recover above Eval (net/http's per-handler one included) sees it exactly
// as it would see a panic of a sequential run.
func (e *Evaluator) parallelSegment(child algebra.Op, outSch schema.Schema, outer []rel.Tuple, emit emitFn, apply func(w *Evaluator, t rel.Tuple, n int, out emitFn) error) error {
	p := e.segmentFanOut(outer)
	chans := make([]chan streamRow, p)
	for i := range chans {
		chans[i] = make(chan streamRow, 64)
	}
	outs := make([]*rel.Relation, p)
	errs := make([]error, p)
	panics := make([]string, p)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for wid := 0; wid < p; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panics[wid] = fmt.Sprintf("%v\n\nsegment worker %d stack:\n%s", v, wid, debug.Stack())
					failed.Store(true)
					for range chans[wid] {
						// drain so the producer never blocks
					}
				}
			}()
			w := e.fork()
			out := rel.New(outSch)
			outs[wid] = out
			sink := func(t rel.Tuple, n int) error { return w.add(out, t, n) }
			for row := range chans[wid] {
				if errs[wid] != nil {
					continue // drain after an error so the producer never blocks
				}
				if err := apply(w, row.t, row.n, sink); err != nil {
					errs[wid] = err
					failed.Store(true)
				}
			}
		}(wid)
	}
	// The producer streams with a forked evaluator, so nothing below the
	// segment fans out again: one pipeline opens at most one segment, at its
	// topmost eligible operator, and Parallelism alone bounds the live
	// workers. The mailboxes close and the workers are awaited even when the
	// producer panics, so no worker outlives the call.
	perr := func() error {
		defer func() {
			for _, ch := range chans {
				close(ch)
			}
			wg.Wait()
		}()
		prod := e.fork()
		i := 0
		return prod.stream(child, outer, func(t rel.Tuple, n int) error {
			if failed.Load() {
				return errStop
			}
			chans[i%p] <- streamRow{t: t, n: n}
			i++
			return nil
		})
	}()
	for _, msg := range panics {
		if msg != "" {
			panic(msg)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if perr != nil && !errors.Is(perr, errStop) {
		return perr
	}
	for _, out := range outs {
		if err := out.Each(func(t rel.Tuple, n int) error { return emit(t, n) }); err != nil {
			return err
		}
	}
	return nil
}
