package eval

import (
	"errors"
	"fmt"

	"perm/internal/algebra"
	"perm/internal/rel"
	"perm/internal/schema"
	"perm/internal/types"
)

// evalSublink evaluates the sublink Csub for one binding of the enclosing
// operator's input tuple. ANY/ALL/EXISTS yield a (three-valued) boolean;
// scalar sublinks yield the single attribute of their single result tuple,
// or NULL for an empty result.
//
// Under the streaming executor an EXISTS or scalar probe pulls rows from the
// subplan pipeline and raises the stop signal at the first deciding row:
// EXISTS stops at any row, a scalar probe at its second row. An
// early-terminated probe has seen only part of the subplan's bag, so what
// the memo stores for it is the verdict, never the bag. ANY/ALL
// materializes the subplan under either executor: the bag (or the hashed
// = ANY set built from it) is memoized once per query when uncorrelated
// (PostgreSQL's InitPlan) and per binding when correlated, and answers
// every test value of that binding.
func (e *Evaluator) evalSublink(s algebra.Sublink, sch schema.Schema, t rel.Tuple, outer []frame) (types.Value, error) {
	scope := append(outer, frame{sch: sch, t: t})
	switch s.Kind {
	case algebra.ExistsSublink:
		if e.DisableStreaming {
			sub, err := e.evalSubplan(s.Query, scope)
			if err != nil {
				return types.Null(), err
			}
			return types.NewBool(!sub.Empty()), nil
		}
		return e.probeExists(s.Query, scope)
	case algebra.ScalarSublink:
		if e.DisableStreaming {
			sub, err := e.evalSubplan(s.Query, scope)
			if err != nil {
				return types.Null(), err
			}
			if sub.Schema.Len() != 1 {
				return types.Null(), fmt.Errorf("eval: scalar sublink produced %d attributes, want 1", sub.Schema.Len())
			}
			switch sub.Card() {
			case 0:
				return types.Null(), nil
			case 1:
				var out types.Value
				_ = sub.Each(func(st rel.Tuple, n int) error { out = st[0]; return nil })
				return out, nil
			default:
				return types.Null(), fmt.Errorf("eval: scalar sublink produced %d tuples, want at most 1", sub.Card())
			}
		}
		return e.probeScalar(s.Query, scope)
	case algebra.AnySublink, algebra.AllSublink:
		a, err := e.evalExpr(s.Test, sch, t, outer)
		if err != nil {
			return types.Null(), err
		}
		sub, err := e.evalSubplan(s.Query, scope)
		if err != nil {
			return types.Null(), err
		}
		if s.Kind == algebra.AnySublink && s.Op == types.CmpEq && len(e.freeVars(s.Query)) == 0 {
			return e.hashedAny(s, a, sub)
		}
		return e.quantify(s, a, sub)
	default:
		return types.Null(), fmt.Errorf("eval: unknown sublink kind %v", s.Kind)
	}
}

// streamSub runs a subplan pipeline for one probe, absorbing the stop
// signal the probe's emit raises once it has its answer.
func (e *Evaluator) streamSub(q algebra.Op, scope []frame, emit emitFn) error {
	if err := e.stream(q, scope, emit); err != nil && !errors.Is(err, errStop) {
		return err
	}
	return nil
}

// sublinkMemoKey resolves the cache key for a streaming sublink probe: ok
// is false when the probe must not be cached (no shared run state, or
// unresolvable parameters). The streaming executor always memoizes.
func (e *Evaluator) sublinkMemoKey(q algebra.Op, scope []frame) (string, bool) {
	if e.shared == nil {
		return "", false
	}
	return paramKey(e.freeVars(q), scope)
}

// probeExists streams the subplan until the first row proves EXISTS true,
// caching the verdict (not the partial bag) per parameter binding.
func (e *Evaluator) probeExists(q algebra.Op, scope []frame) (types.Value, error) {
	key, cache := e.sublinkMemoKey(q, scope)
	if cache {
		e.shared.mu.Lock()
		v, ok := e.shared.existsMemo[q][key]
		e.shared.mu.Unlock()
		if ok {
			return types.NewBool(v), nil
		}
	}
	found := false
	err := e.streamSub(q, scope, func(t rel.Tuple, n int) error {
		found = true
		return errStop
	})
	if err != nil {
		return types.Null(), err
	}
	if cache {
		e.shared.mu.Lock()
		if e.shared.existsMemo[q] == nil {
			e.shared.existsMemo[q] = map[string]bool{}
		}
		e.shared.existsMemo[q][key] = found
		e.shared.mu.Unlock()
	}
	return types.NewBool(found), nil
}

// probeScalar streams the subplan, stopping after the second row (which is
// already an error), and caches the scalar value per parameter binding.
func (e *Evaluator) probeScalar(q algebra.Op, scope []frame) (types.Value, error) {
	if q.Schema().Len() != 1 {
		return types.Null(), fmt.Errorf("eval: scalar sublink produced %d attributes, want 1", q.Schema().Len())
	}
	key, cache := e.sublinkMemoKey(q, scope)
	if cache {
		e.shared.mu.Lock()
		v, ok := e.shared.scalarMemo[q][key]
		e.shared.mu.Unlock()
		if ok {
			return v, nil
		}
	}
	out := types.Null()
	count := 0
	err := e.streamSub(q, scope, func(t rel.Tuple, n int) error {
		count += n
		if count > 1 {
			return fmt.Errorf("eval: scalar sublink produced %d tuples, want at most 1", count)
		}
		out = t[0]
		return nil
	})
	if err != nil {
		return types.Null(), err
	}
	if cache {
		e.shared.mu.Lock()
		if e.shared.scalarMemo[q] == nil {
			e.shared.scalarMemo[q] = map[string]types.Value{}
		}
		e.shared.scalarMemo[q][key] = out
		e.shared.mu.Unlock()
	}
	return out, nil
}

// quantify applies the ANY (existential) or ALL (universal) quantifier of
// "a op ANY/ALL (sub)" under SQL three-valued logic: for ANY, True if any
// comparison is True, else Unknown if any is Unknown, else False (empty sub
// is False); dually for ALL (empty sub is True).
func (e *Evaluator) quantify(s algebra.Sublink, a types.Value, sub *rel.Relation) (types.Value, error) {
	if sub.Schema.Len() != 1 {
		return types.Null(), fmt.Errorf("eval: %s sublink query produced %d attributes, want 1", s.Kind, sub.Schema.Len())
	}
	sawUnknown := false
	if s.Kind == algebra.AnySublink {
		found := false
		_ = sub.Each(func(st rel.Tuple, n int) error {
			switch s.Op.Apply(a, st[0]) {
			case types.True:
				found = true
				return errStop // a True comparison decides ANY
			case types.Unknown:
				sawUnknown = true
			}
			return nil
		})
		if found {
			return types.NewBool(true), nil
		}
		if sawUnknown {
			return types.Null(), nil
		}
		return types.NewBool(false), nil
	}
	allTrue := true
	_ = sub.Each(func(st rel.Tuple, n int) error {
		switch s.Op.Apply(a, st[0]) {
		case types.False:
			allTrue = false
			return errStop // a False comparison decides ALL
		case types.Unknown:
			sawUnknown = true
		}
		return nil
	})
	if !allTrue {
		return types.NewBool(false), nil
	}
	if sawUnknown {
		return types.Null(), nil
	}
	return types.NewBool(true), nil
}

// anySet is the hashed form of an uncorrelated = ANY sublink result. It is
// immutable once published into the run's anyMemo.
type anySet struct {
	keys map[string]bool
	// classes has the classBit of every element, NULL included.
	classes uint8
	empty   bool
}

// classBit is v's comparability class as a bit: ints and floats compare
// with each other, strings and booleans within their kind, NULL with none.
func classBit(v types.Value) uint8 {
	if v.IsNumeric() {
		return 1 << types.KindInt
	}
	return 1 << v.Kind()
}

// hashedAny answers "a = ANY (sub)" from a hash set built once per query —
// PostgreSQL's hashed-subplan execution for uncorrelated IN/ANY, which the
// paper's measurements implicitly rely on. Semantics match quantify: an
// empty subquery yields false; a NULL test value yields unknown, and so
// does a miss when some element is NULL or of a kind a does not compare
// with. Concurrent workers may race to build the set; the duplicate work is
// benign and the map publish is serialized.
func (e *Evaluator) hashedAny(s algebra.Sublink, a types.Value, sub *rel.Relation) (types.Value, error) {
	var set *anySet
	if e.shared != nil {
		e.shared.mu.Lock()
		set = e.shared.anyMemo[s.Query]
		e.shared.mu.Unlock()
	}
	if set == nil {
		if sub.Schema.Len() != 1 {
			return types.Null(), fmt.Errorf("eval: %s sublink query produced %d attributes, want 1", s.Kind, sub.Schema.Len())
		}
		set = &anySet{keys: map[string]bool{}, empty: sub.Empty()}
		_ = sub.Each(func(st rel.Tuple, n int) error {
			set.keys[string(st[0].AppendKey(nil))] = true
			set.classes |= classBit(st[0])
			return nil
		})
		if e.shared != nil {
			e.shared.mu.Lock()
			e.shared.anyMemo[s.Query] = set
			e.shared.mu.Unlock()
		}
	}
	if set.empty {
		return types.NewBool(false), nil
	}
	if a.IsNull() {
		return types.Null(), nil
	}
	if set.keys[string(a.AppendKey(nil))] {
		return types.NewBool(true), nil
	}
	if set.classes&^classBit(a) != 0 {
		return types.Null(), nil
	}
	return types.NewBool(false), nil
}

// evalSubplan evaluates a sublink query. Uncorrelated queries are evaluated
// once per top-level Eval and memoized (PostgreSQL's InitPlan behaviour).
// Correlated queries — the case §4 of the paper identifies as inherently
// expensive under provenance rewriting — are memoized per binding of their
// free parameters: outer tuples that agree on every correlated value share
// one evaluation instead of re-executing the subplan O(outer) times.
// DisableSublinkMemo on the materializing reference restores the strict
// PostgreSQL SubPlan behaviour of re-evaluating per outer tuple.
func (e *Evaluator) evalSubplan(q algebra.Op, scope []frame) (*rel.Relation, error) {
	fv := e.freeVars(q)
	if len(fv) == 0 {
		if cached, ok := e.lookupMemo(q); ok {
			return cached, nil
		}
		out, err := e.eval(q, nil)
		if err != nil {
			return nil, err
		}
		e.storeMemo(q, out)
		return out, nil
	}
	if e.DisableStreaming && e.DisableSublinkMemo || e.shared == nil {
		return e.eval(q, scope)
	}
	key, ok := paramKey(fv, scope)
	if !ok {
		// A parameter failed to resolve cleanly; fall back to direct
		// evaluation, which reports the precise error if the value is used.
		return e.eval(q, scope)
	}
	if cached, ok := e.lookupSubMemo(q, key); ok {
		return cached, nil
	}
	out, err := e.eval(q, scope)
	if err != nil {
		return nil, err
	}
	e.storeSubMemo(q, key, out)
	return out, nil
}

// paramKey encodes the values of a subplan's free parameters under scope
// into a memo key. ok is false when any parameter is ambiguous or unbound.
func paramKey(fv []algebra.AttrRef, scope []frame) (string, bool) {
	buf := make([]byte, 0, 16*len(fv))
	for _, ref := range fv {
		v, ok := lookupScope(ref, scope)
		if !ok {
			return "", false
		}
		buf = v.AppendKey(buf)
	}
	return string(buf), true
}

// lookupScope resolves a free reference against the scope stack
// innermost-out, mirroring resolveAttr.
func lookupScope(ref algebra.AttrRef, scope []frame) (types.Value, bool) {
	for i := len(scope) - 1; i >= 0; i-- {
		idx, ambiguous := scope[i].sch.Lookup(ref.Qual, ref.Name)
		if ambiguous {
			return types.Null(), false
		}
		if idx >= 0 {
			return scope[i].t[idx], true
		}
	}
	return types.Null(), false
}

func (e *Evaluator) lookupMemo(q algebra.Op) (*rel.Relation, bool) {
	if e.shared == nil {
		return nil, false
	}
	e.shared.mu.Lock()
	defer e.shared.mu.Unlock()
	cached, ok := e.shared.memo[q]
	return cached, ok
}

func (e *Evaluator) storeMemo(q algebra.Op, out *rel.Relation) {
	if e.shared == nil {
		return
	}
	e.shared.mu.Lock()
	e.shared.memo[q] = out
	e.shared.mu.Unlock()
}

func (e *Evaluator) lookupSubMemo(q algebra.Op, key string) (*rel.Relation, bool) {
	e.shared.mu.Lock()
	defer e.shared.mu.Unlock()
	m := e.shared.subMemo[q]
	if m == nil {
		return nil, false
	}
	cached, ok := m[key]
	return cached, ok
}

func (e *Evaluator) storeSubMemo(q algebra.Op, key string, out *rel.Relation) {
	e.shared.mu.Lock()
	m := e.shared.subMemo[q]
	if m == nil {
		m = map[string]*rel.Relation{}
		e.shared.subMemo[q] = m
	}
	m[key] = out
	e.shared.mu.Unlock()
}

// freeVars returns the plan's free attribute references, cached per node in
// the run's shared state.
func (e *Evaluator) freeVars(q algebra.Op) []algebra.AttrRef {
	if e.shared == nil {
		return algebra.FreeVars(q)
	}
	e.shared.mu.Lock()
	fv, ok := e.shared.free[q]
	e.shared.mu.Unlock()
	if ok {
		return fv
	}
	fv = algebra.FreeVars(q) // computed outside the lock; idempotent
	e.shared.mu.Lock()
	e.shared.free[q] = fv
	e.shared.mu.Unlock()
	return fv
}
