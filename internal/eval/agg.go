package eval

import (
	"fmt"
	"math/bits"

	"perm/internal/algebra"
	"perm/internal/rel"
	"perm/internal/types"
)

// mul128 is the full signed 128-bit product of two int64s (two's
// complement hi:lo).
func mul128(x, y int64) (hi int64, lo uint64) {
	h, l := bits.Mul64(uint64(x), uint64(y))
	if x < 0 {
		h -= uint64(y)
	}
	if y < 0 {
		h -= uint64(x)
	}
	return int64(h), l
}

// aggState accumulates one aggregate function over one group, honouring bag
// multiplicities and SQL NULL rules (non-count aggregates ignore NULL
// inputs; count(*) counts every tuple).
type aggState struct {
	fn    algebra.AggFn
	count int64
	// The integer sum accumulates exactly in 128 bits (sumHi:sumLo, two's
	// complement), so whether the total fits int64 is decided by the final
	// value alone — independent of accumulation order, which differs
	// between the streaming and materializing executors. Overflow ("bigint out of range") is raised from result() only
	// when the result stays integral and the total is out of range.
	sumHi    int64
	sumLo    uint64
	sumF     float64
	isFloat  bool
	minMax   types.Value
	seen     bool
	distinct map[string]struct{} // non-nil for DISTINCT aggregates
}

func (a *aggState) add(v types.Value, n int) error {
	if a.fn == algebra.AggCountStar {
		a.count += int64(n)
		return nil
	}
	if v.IsNull() {
		return nil
	}
	if a.distinct != nil {
		key := string(v.AppendKey(nil))
		if _, dup := a.distinct[key]; dup {
			return nil
		}
		a.distinct[key] = struct{}{}
		n = 1
	}
	a.count += int64(n)
	switch a.fn {
	case algebra.AggCount:
		return nil
	case algebra.AggSum, algebra.AggAvg:
		if !v.IsNumeric() {
			return fmt.Errorf("eval: %s over non-numeric value %s", a.fn, v.Kind())
		}
		if v.Kind() == types.KindFloat {
			a.isFloat = true
		}
		// 128-bit exact accumulation of v*n; the float shadow sum keeps its
		// value for the float/avg result paths.
		hi, lo := mul128(v.Int(), int64(n))
		var carry uint64
		a.sumLo, carry = bits.Add64(a.sumLo, lo, 0)
		a.sumHi += hi + int64(carry)
		a.sumF += v.Float() * float64(n)
		a.seen = true
		return nil
	case algebra.AggMin:
		if !a.seen {
			a.minMax, a.seen = v, true
			return nil
		}
		if cmp, ok := types.Compare(v, a.minMax); ok && cmp < 0 {
			a.minMax = v
		}
		return nil
	case algebra.AggMax:
		if !a.seen {
			a.minMax, a.seen = v, true
			return nil
		}
		if cmp, ok := types.Compare(v, a.minMax); ok && cmp > 0 {
			a.minMax = v
		}
		return nil
	default:
		return fmt.Errorf("eval: unknown aggregate %v", a.fn)
	}
}

func (a *aggState) result() (types.Value, error) {
	switch a.fn {
	case algebra.AggCount, algebra.AggCountStar:
		return types.NewInt(a.count), nil
	case algebra.AggSum:
		if !a.seen {
			return types.Null(), nil
		}
		if a.isFloat {
			return types.NewFloat(a.sumF), nil
		}
		// The 128-bit total fits int64 iff the high word is the sign
		// extension of the low word.
		if a.sumHi != int64(a.sumLo)>>63 {
			return types.Null(), types.ErrNumericOutOfRange
		}
		return types.NewInt(int64(a.sumLo)), nil
	case algebra.AggAvg:
		if !a.seen {
			return types.Null(), nil
		}
		return types.NewFloat(a.sumF / float64(a.count)), nil
	case algebra.AggMin, algebra.AggMax:
		if !a.seen {
			return types.Null(), nil
		}
		return a.minMax, nil
	default:
		return types.Null(), nil
	}
}

func (e *Evaluator) evalAggregate(o *algebra.Aggregate, id int32, outer []rel.Tuple) (*rel.Relation, error) {
	in, err := e.eval(o.Child, e.kid(id, 0), outer)
	if err != nil {
		return nil, err
	}
	type group struct {
		keys rel.Tuple
		aggs []aggState
	}
	groups := map[string]*group{}
	var order []string

	newGroup := func(keys rel.Tuple) *group {
		g := &group{keys: keys, aggs: make([]aggState, len(o.Aggs))}
		for i, a := range o.Aggs {
			g.aggs[i].fn = a.Fn
			if a.Distinct {
				g.aggs[i].distinct = map[string]struct{}{}
			}
		}
		return g
	}

	// Groups appear in the order their first input tuple does.
	err = in.Each(func(t rel.Tuple, n int) error {
		if err := e.tick(); err != nil {
			return err
		}
		keys := make(rel.Tuple, len(o.Group))
		for ki, gx := range o.Group {
			v, err := e.evalExpr(gx.E, t, outer)
			if err != nil {
				return err
			}
			keys[ki] = v
		}
		k := keys.Key()
		g, ok := groups[k]
		if !ok {
			g = newGroup(keys)
			groups[k] = g
			order = append(order, k)
		}
		for ai, ax := range o.Aggs {
			var v types.Value
			if ax.Arg != nil {
				av, err := e.evalExpr(ax.Arg, t, outer)
				if err != nil {
					return err
				}
				v = av
			}
			if err := g.aggs[ai].add(v, n); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// SQL semantics: with no GROUP BY, aggregation over an empty input
	// still yields one tuple (count 0, other aggregates NULL).
	if len(o.Group) == 0 && len(groups) == 0 {
		g := newGroup(rel.Tuple{})
		groups[""] = g
		order = append(order, "")
	}

	out := e.bag(id)
	for _, k := range order {
		g := groups[k]
		row := make(rel.Tuple, 0, len(o.Group)+len(o.Aggs))
		row = append(row, g.keys...)
		for i := range g.aggs {
			v, err := g.aggs[i].result()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		if err := e.add(out, row, 1); err != nil {
			return nil, err
		}
	}
	return out, nil
}
