package eval

import (
	"errors"
	"fmt"

	"perm/internal/algebra"
	"perm/internal/rel"
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
//
// The sublink is evaluated under the scope outer, then t. A run's scopes
// are the prefixes of one stack (runShared.scopes) as far as they can be:
// when outer is the stack up to its top, t is pushed as the next frame and
// popped when the sublink returns, and sublinks nested in it push above.
// Any other outer gets a new scope slice: the empty scope of an InitPlan
// evaluated under a sublink's frame, and the scope generation makes of its
// own (genPlan.scratch). Code that keeps a scope past the call copies it,
// as appendParamKey does into the memo key.
func (e *Evaluator) evalSublink(s algebra.Sublink, t rel.Tuple, outer []rel.Tuple) (types.Value, error) {
	r := e.shared
	if d := len(outer); d == r.top && d < len(r.scopes) && (d == 0 || &outer[0] == &r.scopes[0]) {
		r.scopes[d] = t
		r.top++
		v, err := e.evalSublinkIn(s, t, outer, r.scopes[:d+1])
		r.top--
		return v, err
	}
	return e.evalSublinkIn(s, t, outer, append(outer[:len(outer):len(outer)], t))
}

// evalSublinkIn evaluates the sublink under scope, which is outer, then t.
func (e *Evaluator) evalSublinkIn(s algebra.Sublink, t rel.Tuple, outer, scope []rel.Tuple) (types.Value, error) {
	id := e.shared.plan.sublink(s.Query)
	switch s.Kind {
	case algebra.ExistsSublink:
		if e.DisableStreaming {
			sub, err := e.evalSubplan(s, id, scope)
			if err != nil {
				return types.Null(), err
			}
			return types.NewBool(!sub.Empty()), nil
		}
		return e.probeExists(s, id, scope)
	case algebra.ScalarSublink:
		if e.DisableStreaming {
			sub, err := e.evalSubplan(s, id, scope)
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
		return e.probeScalar(s, id, scope)
	case algebra.AnySublink, algebra.AllSublink:
		a, err := e.evalExpr(s.Test, t, outer)
		if err != nil {
			return types.Null(), err
		}
		sub, err := e.evalSubplan(s, id, scope)
		if err != nil {
			return types.Null(), err
		}
		if s.Kind == algebra.AnySublink && s.Op == types.CmpEq && len(s.Free) == 0 {
			return e.hashedAny(s, id, a, sub)
		}
		return e.quantify(s, a, sub)
	default:
		return types.Null(), fmt.Errorf("eval: unknown sublink kind %v", s.Kind)
	}
}

// streamSub runs a subplan pipeline for one probe, absorbing the stop
// signal the probe's emit raises once it has its answer.
func (e *Evaluator) streamSub(q algebra.Op, id int32, scope []rel.Tuple, emit emitFn) error {
	if err := e.stream(q, id, scope, emit); err != nil && !errors.Is(err, errStop) {
		return err
	}
	return nil
}

// probeExists streams the subplan until the first row proves EXISTS true,
// caching the verdict (not the partial bag) per parameter binding. The
// streaming executor always memoizes. id is the ID of s.Query.
func (e *Evaluator) probeExists(s algebra.Sublink, id int32, scope []rel.Tuple) (types.Value, error) {
	var buf [64]byte
	key := appendParamKey(buf[:0], s.Free, scope)
	if v, ok := e.shared.exists.get(id, key); ok {
		return types.NewBool(v), nil
	}
	found := false
	err := e.streamSub(s.Query, id, scope, func(t rel.Tuple, n int) error {
		found = true
		return errStop
	})
	if err != nil {
		return types.Null(), err
	}
	e.shared.exists.put(id, key, found)
	return types.NewBool(found), nil
}

// probeScalar streams the subplan, stopping after the second row (which is
// already an error), and caches the scalar value per parameter binding.
func (e *Evaluator) probeScalar(s algebra.Sublink, id int32, scope []rel.Tuple) (types.Value, error) {
	var buf [64]byte
	key := appendParamKey(buf[:0], s.Free, scope)
	if v, ok := e.shared.scalars.get(id, key); ok {
		return v, nil
	}
	// The width is checked where the value is computed: a memo hit was
	// checked when it was stored.
	if w := e.node(id).width; w != 1 {
		return types.Null(), fmt.Errorf("eval: scalar sublink produced %d attributes, want 1", w)
	}
	out := types.Null()
	count := 0
	err := e.streamSub(s.Query, id, scope, func(t rel.Tuple, n int) error {
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
	e.shared.scalars.put(id, key, out)
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
// immutable once stored in the run's anySets.
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
// with.
func (e *Evaluator) hashedAny(s algebra.Sublink, id int32, a types.Value, sub *rel.Relation) (types.Value, error) {
	set, ok := e.shared.anySets.get(id, nil)
	if !ok {
		if sub.Schema.Len() != 1 {
			return types.Null(), fmt.Errorf("eval: %s sublink query produced %d attributes, want 1", s.Kind, sub.Schema.Len())
		}
		set = &anySet{keys: map[string]bool{}, empty: sub.Empty()}
		_ = sub.Each(func(st rel.Tuple, n int) error {
			set.keys[string(st[0].AppendKey(nil))] = true
			set.classes |= classBit(st[0])
			return nil
		})
		e.shared.anySets.put(id, nil, set)
	}
	if set.empty {
		return types.NewBool(false), nil
	}
	if a.IsNull() {
		return types.Null(), nil
	}
	var buf [64]byte
	if set.keys[string(a.AppendKey(buf[:0]))] {
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
// free slots: outer tuples that agree on every correlated value share one
// evaluation instead of re-executing the subplan O(outer) times.
// DisableSublinkMemo on the materializing reference restores the strict
// PostgreSQL SubPlan behaviour of re-evaluating per outer tuple. id is the
// ID of s.Query.
func (e *Evaluator) evalSubplan(s algebra.Sublink, id int32, scope []rel.Tuple) (*rel.Relation, error) {
	q := s.Query
	if len(s.Free) == 0 {
		// An InitPlan runs with no enclosing scope, so it never consults a
		// selection index.
		scope = nil
	} else if e.DisableStreaming && e.DisableSublinkMemo {
		return e.eval(q, id, scope)
	}
	var buf [64]byte
	key := appendParamKey(buf[:0], s.Free, scope)
	if cached, ok := e.shared.bags.get(id, key); ok {
		return cached, nil
	}
	out, err := e.eval(q, id, scope)
	if err != nil {
		return nil, err
	}
	e.shared.bags.put(id, key, out)
	return out, nil
}

// appendParamKey appends the encoded values of a subplan's free slots under
// scope to dst: the memo key of one binding. The probes build it in a stack
// buffer, so a memo hit allocates no key.
func appendParamKey(dst []byte, free []algebra.Ref, scope []rel.Tuple) []byte {
	for _, r := range free {
		dst = scope[len(scope)-int(r.Depth)][r.Idx].AppendKey(dst)
	}
	return dst
}
