package eval

import (
	"perm/internal/algebra"
	"perm/internal/rel"
	"perm/internal/types"
)

// The executor runs equi-joins as hash joins, standing in for the hash join
// operator of the PostgreSQL executor the paper's measurements depend on.
// A join condition is decomposed into equi-key pairs (expressions over one
// side each, compared with = or =n) and a residual condition; if no key
// pairs exist the join falls back to a nested loop. Plain = keys never
// match NULLs; =n keys do (the aggregation rewrite R5 and the set-operation
// rewrites join on =n).

// equiKeys is the decomposition of a join condition.
type equiKeys struct {
	lKeys, rKeys []algebra.Expr
	nullEq       []bool // per key pair: true for =n, false for =
	residual     algebra.Expr
}

// splitEquiJoin extracts hashable key pairs from cond, a join condition of
// a bound plan whose left input is lw columns wide. Conjuncts of the form
// e1 = e2 / e1 =n e2 where e1 reads only left slots and e2 only right ones
// (or vice versa) become key pairs; everything else stays in the residual.
// Expressions containing sublinks never become keys. The right keys are
// rebased by lw, so they read the right tuple alone.
func splitEquiJoin(cond algebra.Expr, lw int) equiKeys {
	var out equiKeys
	var residual []algebra.Expr
	for _, conj := range conjuncts(cond) {
		var l, r algebra.Expr
		nullAware := false
		switch c := conj.(type) {
		case algebra.Cmp:
			if c.Op == types.CmpEq {
				l, r = c.L, c.R
			}
		case algebra.NullEq:
			l, r = c.L, c.R
			nullAware = true
		}
		if l == nil || algebra.HasSublink(l) || algebra.HasSublink(r) {
			residual = append(residual, conj)
			continue
		}
		switch {
		case sideOnly(l, lw, false) && sideOnly(r, lw, true):
		case sideOnly(l, lw, true) && sideOnly(r, lw, false):
			l, r = r, l
		default:
			residual = append(residual, conj)
			continue
		}
		out.lKeys = append(out.lKeys, l)
		out.rKeys = append(out.rKeys, rebase(r, lw))
		out.nullEq = append(out.nullEq, nullAware)
	}
	if len(residual) > 0 {
		out.residual = algebra.Conj(residual...)
	}
	return out
}

// conjuncts splits a condition into top-level AND factors.
func conjuncts(e algebra.Expr) []algebra.Expr {
	if a, ok := e.(algebra.And); ok {
		return append(conjuncts(a.L), conjuncts(a.R)...)
	}
	return []algebra.Expr{e}
}

// sideOnly reports whether e reads at least one slot and only slots of one
// join side: the right one (slots from lw on) when right is set, the left
// one otherwise. A reference to an enclosing scope disqualifies e from being
// a hash key: the key would change per outer binding.
func sideOnly(e algebra.Expr, lw int, right bool) bool {
	ok := true
	refs := 0
	algebra.WalkExpr(e, func(x algebra.Expr) bool {
		if r, isRef := x.(algebra.Ref); isRef {
			refs++
			ok = ok && r.Depth == 0 && (int(r.Idx) >= lw) == right
		}
		return ok
	})
	return ok && refs > 0
}

// rebase shifts the slots of a right-side key expression down by lw.
func rebase(e algebra.Expr, lw int) algebra.Expr {
	return algebra.MapExpr(e, func(x algebra.Expr) algebra.Expr {
		if r, ok := x.(algebra.Ref); ok {
			r.Idx -= int32(lw)
			return r
		}
		return x
	})
}

// joinKeys returns the equi-join split of a join node's condition, computed
// once per node and run.
func (e *Evaluator) joinKeys(join algebra.Op, l algebra.Op, cond algebra.Expr) *equiKeys {
	if e.shared == nil {
		keys := splitEquiJoin(cond, l.Schema().Len())
		return &keys
	}
	e.shared.mu.Lock()
	keys, ok := e.shared.joins[join]
	e.shared.mu.Unlock()
	if !ok {
		split := splitEquiJoin(cond, l.Schema().Len())
		keys = &split
		e.shared.mu.Lock()
		e.shared.joins[join] = keys
		e.shared.mu.Unlock()
	}
	return keys
}

// hashJoin is the materializing executor's l ⋈ r (or l ⟕ r when leftOuter)
// using the extracted keys: it hashes r, then probes with every tuple of l.
// The caller guarantees len(keys.lKeys) > 0.
func (e *Evaluator) hashJoin(o algebra.Op, l, r *rel.Relation, keys *equiKeys, leftOuter bool, outer []rel.Tuple) (*rel.Relation, error) {
	sch := o.Schema()
	rightWidth := r.Schema.Len()

	type bucket struct {
		tuples []rel.Tuple
		counts []int
	}
	// Build side: hash the right input on its key expressions.
	table := map[string]*bucket{}
	err := r.Each(func(rt rel.Tuple, rn int) error {
		if err := e.tick(); err != nil {
			return err
		}
		key, ok, err := e.joinKey(keys.rKeys, keys.nullEq, rt, outer)
		if err != nil {
			return err
		}
		if !ok {
			return nil // a plain-= key is NULL; the row cannot match
		}
		b := table[key]
		if b == nil {
			b = &bucket{}
			table[key] = b
		}
		b.tuples = append(b.tuples, rt)
		b.counts = append(b.counts, rn)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Probe side.
	out := rel.New(sch)
	err = l.Each(func(lt rel.Tuple, ln int) error {
		if err := e.tick(); err != nil {
			return err
		}
		matched := false
		key, ok, err := e.joinKey(keys.lKeys, keys.nullEq, lt, outer)
		if err != nil {
			return err
		}
		if ok {
			if b := table[key]; b != nil {
				for i, rt := range b.tuples {
					row := lt.Concat(rt)
					if keys.residual != nil {
						keep, err := e.evalCond(keys.residual, row, outer)
						if err != nil {
							return err
						}
						if keep != types.True {
							continue
						}
					}
					matched = true
					if err := e.add(out, row, ln*b.counts[i]); err != nil {
						return err
					}
				}
			}
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

// joinKey evaluates the key expressions for one row. ok is false when a
// plain-= key is NULL (such rows match nothing).
func (e *Evaluator) joinKey(keyExprs []algebra.Expr, nullEq []bool, t rel.Tuple, outer []rel.Tuple) (string, bool, error) {
	buf := make([]byte, 0, 16*len(keyExprs))
	for i, kx := range keyExprs {
		v, err := e.evalExpr(kx, t, outer)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() && !nullEq[i] {
			return "", false, nil
		}
		buf = v.AppendKey(buf)
	}
	return string(buf), true, nil
}
