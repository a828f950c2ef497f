package eval

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"perm/internal/algebra"
	"perm/internal/rel"
	"perm/internal/types"
)

// DB is the relation resolver the executor reads base relations from.
// *catalog.Catalog and catalog.Snapshot implement it.
type DB interface {
	Relation(name string) (*rel.Relation, error)
}

// ErrCanceled is returned when the evaluation context is canceled or its
// deadline passes.
var ErrCanceled = errors.New("eval: canceled")

// ErrBudget is returned when evaluation materializes more rows than
// MaxRows allows. The Gen strategy's CrossBase cross products can exceed
// memory long before any timeout fires.
var ErrBudget = errors.New("eval: row budget exceeded")

// Evaluator executes algebra plans against a DB. An Evaluator is not safe
// for concurrent Eval calls; one Eval call runs on the calling goroutine.
type Evaluator struct {
	db  DB
	ctx context.Context

	// DisableSublinkMemo turns off the materializing reference executor's
	// per-binding memoization of correlated sublink results: correlated
	// subplans re-evaluate for every outer tuple, as PostgreSQL's SubPlans
	// do. It is the ablation the memo tests compare the memo against. The
	// streaming executor ignores it and always memoizes.
	DisableSublinkMemo bool

	// DisableStreaming switches the executor from the default push-based
	// streaming pipeline back to operator-at-a-time full materialization
	// (every operator's output built as a counted bag before its parent
	// runs). The materializing mode is the sequential reference executor:
	// the paper-figure test counts its rows, and the differential tests and
	// the benchmark check the streaming pipeline against it.
	DisableStreaming bool

	// MaxRows caps the total rows materialized across all operators of one
	// Eval call; 0 means unlimited. Exceeding it returns ErrBudget.
	MaxRows int

	// Params is the parameter vector of a parameterised plan: the value an
	// algebra.Param leaf reads is Params[Idx]. Nil for plans without Param
	// leaves.
	Params []types.Value

	// shared is the per-Eval run state (row budget, memos). It is never
	// nil: New gives the evaluator one, and EvalBound replaces it on every
	// run.
	shared *runShared

	ticks int
}

// New returns an evaluator over db. The evaluator has no cancellation
// context until WithContext installs the caller's; package perm does when
// a statement carries a context, as the service's always do.
func New(db DB) *Evaluator {
	return &Evaluator{db: db, shared: &runShared{}}
}

// WithContext returns a copy of the evaluator that checks ctx for
// cancellation while executing.
func (e *Evaluator) WithContext(ctx context.Context) *Evaluator {
	cp := *e
	cp.ctx = ctx
	return &cp
}

// Eval binds the plan (algebra.Bind) and executes it, returning its
// materialized result. A reference that does not bind is the error.
func (e *Evaluator) Eval(op algebra.Op) (*rel.Relation, error) {
	bound, err := algebra.Bind(op)
	if err != nil {
		return nil, err
	}
	return e.EvalBound(bound)
}

// EvalBound executes a plan algebra.Bind returned and returns its
// materialized result. Package perm compiles every plan bound and runs it
// here, so a plan-cache hit never binds.
func (e *Evaluator) EvalBound(op algebra.Op) (*rel.Relation, error) {
	// A request whose deadline already passed (e.g. one that waited in a
	// service queue) must abort before any work, not after the first 1024
	// ticks.
	select {
	case <-e.done():
		return nil, fmt.Errorf("%w: %v", ErrCanceled, e.ctx.Err())
	default:
	}
	e.shared = &runShared{}
	return e.eval(op, nil)
}

// Stats describes the materialization behaviour of one Eval call.
type Stats struct {
	// PeakRows counts the rows of resident state the run accumulated:
	// materialized bags (pipeline-breaker buffers, hash-join builds,
	// set-op inputs, memoized sublink results, the final result) plus the
	// streaming breakers' in-operator state (aggregate groups, DISTINCT
	// dedup keys, top-N heap fills).
	// That state lives until Eval returns, so the total is the run's
	// high-water mark of resident rows. Under the materializing executor
	// every operator output counts, which is what the streaming pipeline
	// avoids.
	PeakRows int64
	// IndexBuilds counts the hash indexes the streaming executor built for
	// selections under enclosing scopes, and IndexProbes the calls of such
	// selections answered from one (see index.go). Both are 0 under the
	// materializing executor.
	IndexBuilds, IndexProbes int64
	// Generated counts the input rows of selections the streaming executor
	// answered by generating their CrossBase witnesses instead of
	// enumerating T × CrossBase (see gen.go). 0 under the materializing
	// executor.
	Generated int64
}

// LastStats reports the materialization counters of the most recent Eval
// call on this evaluator.
func (e *Evaluator) LastStats() Stats {
	return Stats{
		PeakRows:    e.shared.rows,
		IndexBuilds: e.shared.indexBuilds,
		IndexProbes: e.shared.indexProbes,
		Generated:   e.shared.generated,
	}
}

// tick periodically polls the context so multi-hour plans (the Gen strategy
// at larger scales) can be aborted, mirroring the paper's 6-hour cutoff.
func (e *Evaluator) tick() error {
	e.ticks++
	if e.ticks&0x3ff != 0 {
		return nil
	}
	select {
	case <-e.done():
		return fmt.Errorf("%w: %v", ErrCanceled, e.ctx.Err())
	default:
		return nil
	}
}

// done returns the evaluator's cancellation channel; a nil channel (never
// ready) when no context was installed, so the selects above fall through
// to their default case.
func (e *Evaluator) done() <-chan struct{} {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Done()
}

// charge counts n rows of resident executor state — materialized bag slots,
// streaming breaker state (aggregate groups, dedup keys, heap fills) —
// against the row budget and the PeakRows counter.
func (e *Evaluator) charge(n int) error {
	e.shared.rows += int64(n)
	if e.MaxRows > 0 && e.shared.rows > int64(e.MaxRows) {
		return fmt.Errorf("%w (%d rows)", ErrBudget, e.MaxRows)
	}
	return nil
}

// add materializes one output row, charging it against the row budget.
// It is also a cancellation checkpoint: every materialization path — the
// final result bag, pipeline-breaker buffers, each operator output of the
// materializing executor — funnels through here, so a canceled context
// stops bag fills even when the producing operator has no checkpoint of its
// own.
func (e *Evaluator) add(out *rel.Relation, t rel.Tuple, n int) error {
	if err := e.tick(); err != nil {
		return err
	}
	if err := e.charge(1); err != nil {
		return err
	}
	out.Add(t, n)
	return nil
}

// eval materializes the plan's result as a counted bag. In streaming mode
// (the default) the rows are produced by the push pipeline and only this
// bag is materialized; with DisableStreaming every operator materializes
// its own output recursively (operator-at-a-time execution).
func (e *Evaluator) eval(op algebra.Op, outer []rel.Tuple) (*rel.Relation, error) {
	if e.DisableStreaming {
		return e.evalMat(op, outer)
	}
	switch o := op.(type) {
	case *algebra.Scan:
		// Base relations are materialized in the catalog already; a view
		// costs nothing and charges nothing.
		base, err := e.db.Relation(o.Name)
		if err != nil {
			return nil, err
		}
		return base.WithSchema(o.Schema()), nil
	case *algebra.Order:
		// A bag has no intrinsic order; Order is honoured by Limit above it
		// and by result presentation.
		return e.eval(o.Child, outer)
	}
	out := rel.New(op.Schema())
	if err := e.stream(op, outer, func(t rel.Tuple, n int) error {
		return e.add(out, t, n)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// evalMat is the materializing (operator-at-a-time) evaluator.
func (e *Evaluator) evalMat(op algebra.Op, outer []rel.Tuple) (*rel.Relation, error) {
	if err := e.tick(); err != nil {
		return nil, err
	}
	switch o := op.(type) {
	case *algebra.Scan:
		base, err := e.db.Relation(o.Name)
		if err != nil {
			return nil, err
		}
		return base.WithSchema(o.Schema()), nil
	case *algebra.Values:
		out := rel.New(o.Sch)
		for _, row := range o.Rows {
			if len(row) != o.Sch.Len() {
				return nil, fmt.Errorf("eval: VALUES row width %d, schema width %d", len(row), o.Sch.Len())
			}
			t := make(rel.Tuple, len(row))
			for i, x := range row {
				v, err := e.evalExpr(x, nil, outer)
				if err != nil {
					return nil, err
				}
				t[i] = v
			}
			if err := e.add(out, t, 1); err != nil {
				return nil, err
			}
		}
		return out, nil
	case *algebra.Select:
		return e.evalSelect(o, outer)
	case *algebra.Project:
		return e.evalProject(o, outer)
	case *algebra.Cross:
		return e.evalCross(o, outer)
	case *algebra.Join:
		return e.evalJoin(o, outer)
	case *algebra.LeftJoin:
		return e.evalLeftJoin(o, outer)
	case *algebra.Aggregate:
		return e.evalAggregate(o, outer)
	case *algebra.SetOp:
		return e.evalSetOp(o, outer)
	case *algebra.Order:
		// A bag has no intrinsic order; Order is honoured by Limit above it
		// and by result presentation.
		return e.eval(o.Child, outer)
	case *algebra.Limit:
		return e.evalLimit(o, outer)
	default:
		return nil, fmt.Errorf("eval: unsupported operator %T", op)
	}
}

func (e *Evaluator) evalSelect(o *algebra.Select, outer []rel.Tuple) (*rel.Relation, error) {
	in, err := e.eval(o.Child, outer)
	if err != nil {
		return nil, err
	}
	out := rel.New(o.Schema())
	err = in.Each(func(t rel.Tuple, n int) error {
		if err := e.tick(); err != nil {
			return err
		}
		keep, err := e.evalCond(o.Cond, t, outer)
		if err != nil {
			return err
		}
		if keep == types.True {
			return e.add(out, t, n)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (e *Evaluator) evalProject(o *algebra.Project, outer []rel.Tuple) (*rel.Relation, error) {
	in, err := e.eval(o.Child, outer)
	if err != nil {
		return nil, err
	}
	out := rel.New(o.Schema())
	err = in.Each(func(t rel.Tuple, n int) error {
		if err := e.tick(); err != nil {
			return err
		}
		row := make(rel.Tuple, len(o.Cols))
		for i, c := range o.Cols {
			v, err := e.evalExpr(c.E, t, outer)
			if err != nil {
				return err
			}
			row[i] = v
		}
		if o.Distinct {
			return e.add(out, row, 1) // collapsed below
		}
		return e.add(out, row, n)
	})
	if err != nil {
		return nil, err
	}
	if o.Distinct {
		out = out.Distinct()
	}
	return out, nil
}

// evalInputs materializes the two inputs of a binary operator, left first.
func (e *Evaluator) evalInputs(l, r algebra.Op, outer []rel.Tuple) (*rel.Relation, *rel.Relation, error) {
	lRel, err := e.eval(l, outer)
	if err != nil {
		return nil, nil, err
	}
	rRel, err := e.eval(r, outer)
	if err != nil {
		return nil, nil, err
	}
	return lRel, rRel, nil
}

func (e *Evaluator) evalCross(o *algebra.Cross, outer []rel.Tuple) (*rel.Relation, error) {
	l, r, err := e.evalInputs(o.L, o.R, outer)
	if err != nil {
		return nil, err
	}
	out := rel.New(o.Schema())
	err = l.Each(func(lt rel.Tuple, ln int) error {
		return r.Each(func(rt rel.Tuple, rn int) error {
			if err := e.tick(); err != nil {
				return err
			}
			return e.add(out, lt.Concat(rt), ln*rn)
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (e *Evaluator) evalJoin(o *algebra.Join, outer []rel.Tuple) (*rel.Relation, error) {
	l, r, err := e.evalInputs(o.L, o.R, outer)
	if err != nil {
		return nil, err
	}
	if keys := e.joinKeys(o, o.L, o.Cond); len(keys.probe) > 0 {
		return e.hashJoin(o, l, r, keys, false, outer)
	}
	out := rel.New(o.Schema())
	err = l.Each(func(lt rel.Tuple, ln int) error {
		return r.Each(func(rt rel.Tuple, rn int) error {
			if err := e.tick(); err != nil {
				return err
			}
			row := lt.Concat(rt)
			keep, err := e.evalCond(o.Cond, row, outer)
			if err != nil {
				return err
			}
			if keep == types.True {
				return e.add(out, row, ln*rn)
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (e *Evaluator) evalLeftJoin(o *algebra.LeftJoin, outer []rel.Tuple) (*rel.Relation, error) {
	l, r, err := e.evalInputs(o.L, o.R, outer)
	if err != nil {
		return nil, err
	}
	if keys := e.joinKeys(o, o.L, o.Cond); len(keys.probe) > 0 {
		return e.hashJoin(o, l, r, keys, true, outer)
	}
	rightWidth := r.Schema.Len()
	out := rel.New(o.Schema())
	err = l.Each(func(lt rel.Tuple, ln int) error {
		matched := false
		err := r.Each(func(rt rel.Tuple, rn int) error {
			if err := e.tick(); err != nil {
				return err
			}
			row := lt.Concat(rt)
			keep, err := e.evalCond(o.Cond, row, outer)
			if err != nil {
				return err
			}
			if keep == types.True {
				matched = true
				return e.add(out, row, ln*rn)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if !matched {
			return e.add(out, lt.Concat(rel.Nulls(rightWidth)), ln)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (e *Evaluator) evalSetOp(o *algebra.SetOp, outer []rel.Tuple) (*rel.Relation, error) {
	l, r, err := e.evalInputs(o.L, o.R, outer)
	if err != nil {
		return nil, err
	}
	if l.Schema.Len() != r.Schema.Len() {
		return nil, fmt.Errorf("eval: %s of width %d and width %d", o.Kind, l.Schema.Len(), r.Schema.Len())
	}
	out := rel.New(o.Schema())
	switch o.Kind {
	case algebra.Union:
		if err := l.Each(func(t rel.Tuple, n int) error { return e.add(out, t, n) }); err != nil {
			return nil, err
		}
		if err := r.Each(func(t rel.Tuple, n int) error { return e.add(out, t, n) }); err != nil {
			return nil, err
		}
	default:
		if err := setOpEach(o, l, r, func(t rel.Tuple, n int) error { return e.add(out, t, n) }); err != nil {
			return nil, err
		}
	}
	if !o.Bag {
		out = out.Distinct()
	}
	return out, nil
}

func (e *Evaluator) evalLimit(o *algebra.Limit, outer []rel.Tuple) (*rel.Relation, error) {
	// When the ordering column is projected away above the Order, cut below
	// the projections, where the key is still visible.
	if pushed, ok := algebra.PushLimit(o); ok {
		return e.eval(pushed, outer)
	}
	// The order a Limit honours may sit below projection wrappers — the
	// derived-table case `SELECT a FROM (… ORDER BY a DESC) t LIMIT 2`.
	keys := algebra.LiftOrderKeys(o.Child)
	in, err := e.eval(o.Child, outer)
	if err != nil {
		return nil, err
	}
	rows, err := e.sortedRows(in, keys, outer)
	if err != nil {
		return nil, err
	}
	out := rel.New(o.Schema())
	for _, t := range limitSlice(rows, o.N, o.Offset) {
		if err := e.add(out, t, 1); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// limitSlice applies OFFSET and LIMIT (n < 0 means no limit) to sorted rows.
func limitSlice(rows []rel.Tuple, n, offset int) []rel.Tuple {
	if offset >= len(rows) {
		return nil
	}
	rows = rows[offset:]
	if n >= 0 && n < len(rows) {
		rows = rows[:n]
	}
	return rows
}

// sortRow pairs a tuple with its evaluated sort-key values.
type sortRow struct {
	t    rel.Tuple
	keys rel.Tuple
}

// lessSortRows is the total order of ORDER BY: key comparison with NULLs
// last (PostgreSQL's default), ties broken by rel.Tuple.Compare so the order
// — and therefore any LIMIT cut through it — is deterministic.
func lessSortRows(keys []algebra.SortKey, a, b sortRow) bool {
	for k := range keys {
		cmp, ok := types.Compare(a.keys[k], b.keys[k])
		if !ok {
			an := a.keys[k].IsNull()
			bn := b.keys[k].IsNull()
			if an != bn {
				return bn != keys[k].Desc
			}
			continue
		}
		if cmp != 0 {
			if keys[k].Desc {
				return cmp > 0
			}
			return cmp < 0
		}
	}
	return a.t.Compare(b.t) < 0
}

// sortKeyVals evaluates the key expressions for one tuple.
func (e *Evaluator) sortKeyVals(keys []algebra.SortKey, t rel.Tuple, outer []rel.Tuple) (rel.Tuple, error) {
	kv := make(rel.Tuple, len(keys))
	for i, k := range keys {
		v, err := e.evalExpr(k.E, t, outer)
		if err != nil {
			return nil, err
		}
		kv[i] = v
	}
	return kv, nil
}

// sortedRows expands the bag and sorts by keys (stable; ties in key order
// fall back to the tuple order of lessSortRows so output is deterministic).
func (e *Evaluator) sortedRows(in *rel.Relation, keys []algebra.SortKey, outer []rel.Tuple) ([]rel.Tuple, error) {
	var rows []sortRow
	err := in.Each(func(t rel.Tuple, n int) error {
		kv, err := e.sortKeyVals(keys, t, outer)
		if err != nil {
			return err
		}
		for ; n > 0; n-- {
			rows = append(rows, sortRow{t: t, keys: kv})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(rows, func(i, j int) bool { return lessSortRows(keys, rows[i], rows[j]) })
	out := make([]rel.Tuple, len(rows))
	for i, r := range rows {
		out[i] = r.t
	}
	return out, nil
}

// SortTuples expands a materialized relation and sorts it by the given
// keys — used by result presentation to honour a query's ORDER BY after
// the bag has been materialized. Keys must be bound to the relation's slots
// (algebra.LiftOrderKeys of a bound plan) and sublink-free; params is the
// parameter vector of the plan the keys come from.
func SortTuples(in *rel.Relation, keys []algebra.SortKey, params []types.Value) ([]rel.Tuple, error) {
	e := New(nopDB{})
	e.Params = params
	return e.sortedRows(in, keys, nil)
}

type nopDB struct{}

func (nopDB) Relation(name string) (*rel.Relation, error) {
	return nil, fmt.Errorf("eval: no database attached")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
