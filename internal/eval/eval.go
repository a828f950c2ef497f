package eval

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"perm/internal/algebra"
	"perm/internal/rel"
	"perm/internal/types"
)

// DB is the relation resolver the executor reads base relations from.
// *catalog.Catalog and catalog.Snapshot implement it. A relation a DB
// returns is never mutated: a new version of a relation is a new pointer.
// The streaming executor relies on it to attach the hash tables of
// correlated selections and joins to the relation they index (see
// index.go).
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

	// shared is the per-run state (row budget, memos). It is never nil:
	// New gives the evaluator one, and Run replaces it on every run.
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

// Eval binds the plan (algebra.Bind), lowers it (Lower) and runs it,
// returning its materialized result. A reference that does not bind is the
// error.
func (e *Evaluator) Eval(op algebra.Op) (*rel.Relation, error) {
	bound, err := algebra.Bind(op)
	if err != nil {
		return nil, err
	}
	return e.Run(Lower(bound))
}

// Run executes an annotated plan and returns its materialized result, under
// the plan's schema. Package perm lowers every plan it compiles and keeps
// the annotation with the cached plan, so a plan-cache hit neither binds
// nor decides anything.
func (e *Evaluator) Run(p *Plan) (*rel.Relation, error) {
	// A request whose deadline already passed (e.g. one that waited in a
	// service queue) must abort before any work, not after the first 1024
	// ticks.
	select {
	case <-e.done():
		return nil, fmt.Errorf("%w: %v", ErrCanceled, e.ctx.Err())
	default:
	}
	e.shared = newRunShared(p)
	out, err := e.eval(p.root, 0, nil)
	if err != nil {
		return nil, err
	}
	// The result is the one relation of the run that carries the plan's
	// schema. A scan's is the catalog's relation, which is viewed; any
	// other is the run's own bag.
	if _, ok := p.root.(*algebra.Scan); ok {
		return out.WithSchema(p.root.Schema()), nil
	}
	out.Schema = p.root.Schema()
	return out, nil
}

// Stats describes the materialization behaviour of one Eval call.
type Stats struct {
	// PeakRows counts the rows of resident state the run accumulated:
	// materialized bags (pipeline-breaker buffers, hash-join builds,
	// set-op inputs, memoized sublink results, the final result) plus the
	// streaming breakers' in-operator state (aggregate groups, DISTINCT
	// dedup keys, sort buffers and top-N heap fills).
	// That state lives until Eval returns, so the total is the run's
	// high-water mark of resident rows. Under the materializing executor
	// every operator output counts, which is what the streaming pipeline
	// avoids.
	PeakRows int64
	// IndexBuilds counts the indexes the streaming executor built for
	// selections under enclosing scopes, and IndexProbes the calls of such
	// selections answered from one (see index.go). An index this run found
	// attached to a base relation counts in IndexProbes only, and a join's
	// table, attached or not, in neither. Both are 0 under the
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
// streaming breaker state (aggregate groups, dedup keys, sort buffers) —
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
func (e *Evaluator) eval(op algebra.Op, id int32, outer []rel.Tuple) (*rel.Relation, error) {
	if e.DisableStreaming {
		return e.evalMat(op, id, outer)
	}
	if o, ok := op.(*algebra.Scan); ok {
		// Base relations are materialized in the catalog already: read in
		// place, a scan costs nothing and charges nothing.
		return e.scan(o, id)
	}
	out := e.bag(id)
	if err := e.stream(op, id, outer, func(t rel.Tuple, n int) error {
		return e.add(out, t, n)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// scan returns the catalog's relation a scan with ID id reads, checked
// against the width the plan reads.
func (e *Evaluator) scan(o *algebra.Scan, id int32) (*rel.Relation, error) {
	base, err := e.db.Relation(o.Name)
	if err != nil {
		return nil, err
	}
	if w := e.node(id).width; base.Schema.Len() != int(w) {
		return nil, fmt.Errorf("eval: relation %s has %d columns, the plan reads %d", o.Name, base.Schema.Len(), w)
	}
	return base, nil
}

// evalMat is the materializing (operator-at-a-time) evaluator. Every bag it
// builds has an unnamed schema of the node's width, except a scan's, which
// is the relation under the scan's schema.
func (e *Evaluator) evalMat(op algebra.Op, id int32, outer []rel.Tuple) (*rel.Relation, error) {
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
		out := e.bag(id)
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
		return e.evalSelect(o, id, outer)
	case *algebra.Project:
		return e.evalProject(o, id, outer)
	case *algebra.Cross:
		return e.evalCross(o, id, outer)
	case *algebra.Join:
		return e.evalJoin(o, id, false, outer)
	case *algebra.LeftJoin:
		return e.evalJoin(o, id, true, outer)
	case *algebra.Aggregate:
		return e.evalAggregate(o, id, outer)
	case *algebra.SetOp:
		return e.evalSetOp(o, id, outer)
	case *algebra.Order:
		rows, err := e.sortedRows(o, id, outer)
		if err != nil {
			return nil, err
		}
		out := e.bag(id)
		for _, r := range rows {
			if err := e.add(out, r.t, 1); err != nil {
				return nil, err
			}
		}
		return out, nil
	case *algebra.Limit:
		return e.evalLimit(o, id, outer)
	default:
		return nil, fmt.Errorf("eval: unsupported operator %T", op)
	}
}

func (e *Evaluator) evalSelect(o *algebra.Select, id int32, outer []rel.Tuple) (*rel.Relation, error) {
	in, err := e.eval(o.Child, e.kid(id, 0), outer)
	if err != nil {
		return nil, err
	}
	out := e.bag(id)
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

func (e *Evaluator) evalProject(o *algebra.Project, id int32, outer []rel.Tuple) (*rel.Relation, error) {
	in, err := e.eval(o.Child, e.kid(id, 0), outer)
	if err != nil {
		return nil, err
	}
	out := e.bag(id)
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

// evalInputs materializes the inputs l and r of binary node id, left first.
func (e *Evaluator) evalInputs(l, r algebra.Op, id int32, outer []rel.Tuple) (*rel.Relation, *rel.Relation, error) {
	lRel, err := e.eval(l, e.kid(id, 0), outer)
	if err != nil {
		return nil, nil, err
	}
	rRel, err := e.eval(r, e.kid(id, 1), outer)
	if err != nil {
		return nil, nil, err
	}
	return lRel, rRel, nil
}

func (e *Evaluator) evalCross(o *algebra.Cross, id int32, outer []rel.Tuple) (*rel.Relation, error) {
	l, r, err := e.evalInputs(o.L, o.R, id, outer)
	if err != nil {
		return nil, err
	}
	out := e.bag(id)
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

// evalJoin is the reference executor's join, l ⋈ r or, when leftOuter,
// l ⟕ r: a hash join on the plan's key split (joinPlan.matKeys), a nested
// loop when the condition has no key.
func (e *Evaluator) evalJoin(op algebra.Op, id int32, leftOuter bool, outer []rel.Tuple) (*rel.Relation, error) {
	lop, rop, cond := joinParts(op)
	l, r, err := e.evalInputs(lop, rop, id, outer)
	if err != nil {
		return nil, err
	}
	if keys := e.joinOf(id).matKeys(); len(keys.pairs) > 0 {
		return e.hashJoin(id, l, r, keys, leftOuter, outer)
	}
	rightWidth := r.Schema.Len()
	out := e.bag(id)
	err = l.Each(func(lt rel.Tuple, ln int) error {
		matched := false
		err := r.Each(func(rt rel.Tuple, rn int) error {
			if err := e.tick(); err != nil {
				return err
			}
			row := lt.Concat(rt)
			keep, err := e.evalCond(cond, row, outer)
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
		if leftOuter && !matched {
			return e.add(out, lt.Concat(rel.Nulls(rightWidth)), ln)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (e *Evaluator) evalSetOp(o *algebra.SetOp, id int32, outer []rel.Tuple) (*rel.Relation, error) {
	l, r, err := e.evalInputs(o.L, o.R, id, outer)
	if err != nil {
		return nil, err
	}
	if l.Schema.Len() != r.Schema.Len() {
		return nil, fmt.Errorf("eval: %s of width %d and width %d", o.Kind, l.Schema.Len(), r.Schema.Len())
	}
	out := e.bag(id)
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

func (e *Evaluator) evalLimit(o *algebra.Limit, id int32, outer []rel.Tuple) (*rel.Relation, error) {
	in, err := e.eval(o.Child, e.kid(id, 0), outer)
	if err != nil {
		return nil, err
	}
	out := e.bag(id)
	err = in.Each(limitEmit(o, func(t rel.Tuple, n int) error { return e.add(out, t, n) }))
	if err != nil && !errors.Is(err, errStop) {
		return nil, err
	}
	return out, nil
}

// limitEmit wraps a consumer with LIMIT/OFFSET's cut: it drops the first
// o.Offset rows, passes the next o.N (all of them when o.N < 0) and then
// raises the stop signal. The cut takes rows in the order they arrive, so
// it honours an Order below it and is arbitrary without one, exactly as in
// PostgreSQL.
func limitEmit(o *algebra.Limit, emit emitFn) emitFn {
	skip, remain := o.Offset, o.N
	return func(t rel.Tuple, n int) error {
		if n <= skip {
			skip -= n
			return nil
		}
		n -= skip
		skip = 0
		if remain == 0 {
			return errStop
		}
		if remain > 0 {
			n = min(n, remain)
			remain -= n
		}
		if err := emit(t, n); err != nil {
			return err
		}
		if remain == 0 {
			return errStop
		}
		return nil
	}
}

// sortRow pairs a tuple with its evaluated sort-key values.
type sortRow struct {
	t    rel.Tuple
	keys rel.Tuple
}

// compareSortRows is the total order of ORDER BY: key comparison with
// NULLs last ascending and first descending (PostgreSQL's default), ties
// broken by rel.Tuple.Compare so the order — and therefore any LIMIT cut
// through it — is deterministic.
func compareSortRows(keys []algebra.SortKey, a, b sortRow) int {
	for k := range keys {
		cmp, ok := types.Compare(a.keys[k], b.keys[k])
		if !ok {
			an, bn := a.keys[k].IsNull(), b.keys[k].IsNull()
			if an == bn {
				continue
			}
			cmp = -1
			if an {
				cmp = 1
			}
		}
		if cmp != 0 {
			if keys[k].Desc {
				return -cmp
			}
			return cmp
		}
	}
	return a.t.Compare(b.t)
}

func sortRowsInPlace(keys []algebra.SortKey, rows []sortRow) {
	slices.SortStableFunc(rows, func(a, b sortRow) int { return compareSortRows(keys, a, b) })
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

// sortedRows is the reference executor's sort: it materializes o's input,
// expands the bag and sorts it by o's keys.
func (e *Evaluator) sortedRows(o *algebra.Order, id int32, outer []rel.Tuple) ([]sortRow, error) {
	in, err := e.eval(o.Child, e.kid(id, 0), outer)
	if err != nil {
		return nil, err
	}
	rows := make([]sortRow, 0, in.Card())
	err = in.Each(func(t rel.Tuple, n int) error {
		kv, err := e.sortKeyVals(o.Keys, t, outer)
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
	sortRowsInPlace(o.Keys, rows)
	return rows, nil
}
