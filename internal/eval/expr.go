package eval

import (
	"fmt"

	"perm/internal/algebra"
	"perm/internal/rel"
	"perm/internal/types"
)

// evalCond evaluates a condition under three-valued logic. Boolean values
// map to True/False, NULL maps to Unknown; anything else is a type error.
func (e *Evaluator) evalCond(cond algebra.Expr, t rel.Tuple, outer []rel.Tuple) (types.TriBool, error) {
	v, err := e.evalExpr(cond, t, outer)
	if err != nil {
		return types.Unknown, err
	}
	return toTri(v)
}

func toTri(v types.Value) (types.TriBool, error) {
	switch v.Kind() {
	case types.KindNull:
		return types.Unknown, nil
	case types.KindBool:
		return types.TriOf(v.Bool()), nil
	default:
		return types.Unknown, fmt.Errorf("eval: condition evaluated to %s, want boolean", v.Kind())
	}
}

func triToValue(t types.TriBool) types.Value {
	switch t {
	case types.True:
		return types.NewBool(true)
	case types.False:
		return types.NewBool(false)
	default:
		return types.Null()
	}
}

// evalExpr evaluates a scalar expression of a bound plan for the operator
// input tuple t, with outer holding the current tuples of the enclosing
// sublink scopes, innermost last: a reference of depth d reads
// outer[len(outer)-d].
func (e *Evaluator) evalExpr(x algebra.Expr, t rel.Tuple, outer []rel.Tuple) (types.Value, error) {
	switch ex := x.(type) {
	case algebra.Const:
		return ex.Val, nil
	case algebra.Param:
		if ex.Idx < 0 || ex.Idx >= len(e.Params) {
			return types.Null(), fmt.Errorf("eval: plan parameter %s is not bound (%d parameters)", ex, len(e.Params))
		}
		return e.Params[ex.Idx], nil
	case algebra.Ref:
		if ex.Depth == 0 {
			return t[ex.Idx], nil
		}
		return outer[len(outer)-int(ex.Depth)][ex.Idx], nil
	case algebra.Cmp:
		l, err := e.evalExpr(ex.L, t, outer)
		if err != nil {
			return types.Null(), err
		}
		r, err := e.evalExpr(ex.R, t, outer)
		if err != nil {
			return types.Null(), err
		}
		return triToValue(ex.Op.Apply(l, r)), nil
	case algebra.NullEq:
		l, err := e.evalExpr(ex.L, t, outer)
		if err != nil {
			return types.Null(), err
		}
		r, err := e.evalExpr(ex.R, t, outer)
		if err != nil {
			return types.Null(), err
		}
		return types.NewBool(types.NullEq(l, r)), nil
	case algebra.Arith:
		l, err := e.evalExpr(ex.L, t, outer)
		if err != nil {
			return types.Null(), err
		}
		r, err := e.evalExpr(ex.R, t, outer)
		if err != nil {
			return types.Null(), err
		}
		return ex.Op.Apply(l, r)
	case algebra.And:
		// Short-circuit: False AND x is False without evaluating x. This
		// matters for Gen-rewritten queries, whose conditions guard
		// expensive sublinks behind cheap comparisons.
		l, err := e.evalExpr(ex.L, t, outer)
		if err != nil {
			return types.Null(), err
		}
		lt, err := toTri(l)
		if err != nil {
			return types.Null(), err
		}
		if lt == types.False {
			return types.NewBool(false), nil
		}
		r, err := e.evalExpr(ex.R, t, outer)
		if err != nil {
			return types.Null(), err
		}
		rt, err := toTri(r)
		if err != nil {
			return types.Null(), err
		}
		return triToValue(lt.And(rt)), nil
	case algebra.Or:
		l, err := e.evalExpr(ex.L, t, outer)
		if err != nil {
			return types.Null(), err
		}
		lt, err := toTri(l)
		if err != nil {
			return types.Null(), err
		}
		if lt == types.True {
			return types.NewBool(true), nil
		}
		r, err := e.evalExpr(ex.R, t, outer)
		if err != nil {
			return types.Null(), err
		}
		rt, err := toTri(r)
		if err != nil {
			return types.Null(), err
		}
		return triToValue(lt.Or(rt)), nil
	case algebra.Not:
		v, err := e.evalExpr(ex.E, t, outer)
		if err != nil {
			return types.Null(), err
		}
		tv, err := toTri(v)
		if err != nil {
			return types.Null(), err
		}
		return triToValue(tv.Not()), nil
	case algebra.IsNull:
		v, err := e.evalExpr(ex.E, t, outer)
		if err != nil {
			return types.Null(), err
		}
		return types.NewBool(v.IsNull()), nil
	case algebra.Case:
		for _, w := range ex.Whens {
			keep, err := e.evalCond(w.When, t, outer)
			if err != nil {
				return types.Null(), err
			}
			if keep == types.True {
				return e.evalExpr(w.Then, t, outer)
			}
		}
		if ex.Else != nil {
			return e.evalExpr(ex.Else, t, outer)
		}
		return types.Null(), nil
	case algebra.Func:
		def, ok := algebra.LookupFunc(ex.Name)
		if !ok {
			return types.Null(), fmt.Errorf("eval: unknown function %q", ex.Name)
		}
		if len(ex.Args) < def.MinArgs || len(ex.Args) > def.MaxArgs {
			return types.Null(), fmt.Errorf("eval: %s takes %d to %d arguments, got %d", ex.Name, def.MinArgs, def.MaxArgs, len(ex.Args))
		}
		args := make([]types.Value, len(ex.Args))
		for i, a := range ex.Args {
			v, err := e.evalExpr(a, t, outer)
			if err != nil {
				return types.Null(), err
			}
			args[i] = v
		}
		return def.Eval(args)
	case algebra.Cast:
		v, err := e.evalExpr(ex.E, t, outer)
		if err != nil {
			return types.Null(), err
		}
		return types.Cast(v, ex.To)
	case algebra.Sublink:
		return e.evalSublink(ex, t, outer)
	case algebra.AttrRef:
		return types.Null(), fmt.Errorf("eval: attribute reference %s is not bound (see algebra.Bind)", ex)
	default:
		return types.Null(), fmt.Errorf("eval: unsupported expression %T", x)
	}
}
