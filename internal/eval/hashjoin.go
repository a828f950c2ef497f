package eval

import (
	"perm/internal/algebra"
	"perm/internal/rel"
	"perm/internal/schema"
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

// splitEquiJoin extracts hashable key pairs from cond. Conjuncts of the
// form e1 = e2 / e1 =n e2 where e1 references only the left schema and e2
// only the right (or vice versa) become key pairs; everything else stays in
// the residual. Expressions containing sublinks never become keys.
func splitEquiJoin(cond algebra.Expr, lsch, rsch schema.Schema) equiKeys {
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
		case sideOnly(l, lsch, rsch) && sideOnly(r, rsch, lsch):
			out.lKeys = append(out.lKeys, l)
			out.rKeys = append(out.rKeys, r)
			out.nullEq = append(out.nullEq, nullAware)
		case sideOnly(l, rsch, lsch) && sideOnly(r, lsch, rsch):
			out.lKeys = append(out.lKeys, r)
			out.rKeys = append(out.rKeys, l)
			out.nullEq = append(out.nullEq, nullAware)
		default:
			residual = append(residual, conj)
		}
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

// sideOnly reports whether every attribute reference of e resolves in sch,
// at least one reference exists, and none resolves in the other side.
// References that resolve in neither schema are correlated to an enclosing
// scope — those disqualify the expression from being a hash key because the
// key would change per outer binding.
func sideOnly(e algebra.Expr, sch, other schema.Schema) bool {
	ok := true
	refs := 0
	algebra.WalkExpr(e, func(x algebra.Expr) bool {
		ref, isRef := x.(algebra.AttrRef)
		if !isRef {
			return ok
		}
		refs++
		if idx, amb := sch.Lookup(ref.Qual, ref.Name); idx < 0 || amb {
			ok = false
		}
		if idx, _ := other.Lookup(ref.Qual, ref.Name); idx >= 0 {
			ok = false
		}
		return ok
	})
	return ok && refs > 0
}

// hashJoin is the materializing executor's l ⋈ r (or l ⟕ r when leftOuter)
// using the extracted keys: it hashes r, then probes with every tuple of l.
// The caller guarantees len(keys.lKeys) > 0.
func (e *Evaluator) hashJoin(o algebra.Op, l, r *rel.Relation, keys equiKeys, leftOuter bool, outer []frame) (*rel.Relation, error) {
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
		key, ok, err := e.joinKey(keys.rKeys, keys.nullEq, r.Schema, rt, outer)
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
		key, ok, err := e.joinKey(keys.lKeys, keys.nullEq, l.Schema, lt, outer)
		if err != nil {
			return err
		}
		if ok {
			if b := table[key]; b != nil {
				for i, rt := range b.tuples {
					row := lt.Concat(rt)
					if keys.residual != nil {
						keep, err := e.evalCond(keys.residual, sch, row, outer)
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
func (e *Evaluator) joinKey(keyExprs []algebra.Expr, nullEq []bool, sch schema.Schema, t rel.Tuple, outer []frame) (string, bool, error) {
	buf := make([]byte, 0, 16*len(keyExprs))
	for i, kx := range keyExprs {
		v, err := e.evalExpr(kx, sch, t, outer)
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
