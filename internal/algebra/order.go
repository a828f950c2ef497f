package algebra

// LiftOrderKeys returns the sort keys that establish the presentation order
// of a bound plan's output (see Bind), rewritten so they read op's own
// output slots, or nil when no order reaches the output.
//
// An Order node's keys propagate upward through the operators that preserve
// row identity: Limit, Select (a filter keeps the surviving rows' order)
// and Project (including the re-qualifying projection wrapping every
// derived table, which is how `SELECT a FROM (SELECT a FROM r ORDER BY a
// DESC) t LIMIT 2` keeps its inner order — the PostgreSQL behaviour this
// executor stands in for). Every other operator either destroys order
// (joins, aggregation, set operations) or establishes its own (a nested
// Order), so the walk stops there.
//
// Through a projection a key becomes the output slot of a column computing
// exactly the key; failing that, each slot the key reads is replaced by the
// output slot of a column passing it through (ORDER BY a + b survives a
// projection that carries a and b). References to enclosing scopes stay as
// they are: a projection does not change them. A key the output cannot
// express ends the propagation — the order is genuinely lost.
func LiftOrderKeys(op Op) []SortKey {
	switch o := op.(type) {
	case *Order:
		return o.Keys
	case *Limit:
		return LiftOrderKeys(o.Child)
	case *Select:
		// A selection's schema is its child's; the keys pass unchanged.
		return LiftOrderKeys(o.Child)
	case *Project:
		inner := LiftOrderKeys(o.Child)
		if inner == nil {
			return nil
		}
		out := make([]SortKey, len(inner))
		for i, k := range inner {
			mapped, ok := liftKeyExpr(k.E, o)
			if !ok {
				return nil
			}
			out[i] = SortKey{E: mapped, Desc: k.Desc}
		}
		return out
	default:
		return nil
	}
}

// liftKeyExpr rewrites one sort-key expression over p.Child's slots into one
// over p's output slots.
func liftKeyExpr(e Expr, p *Project) (Expr, bool) {
	if i := carrier(p, e); i >= 0 {
		return Ref{Idx: int32(i)}, true
	}
	if HasSublink(e) {
		// The sublink query reads the key's scope, which the projection
		// replaces; only a column computing the whole key carries it.
		return nil, false
	}
	ok := true
	mapped := MapExpr(e, func(x Expr) Expr {
		r, isRef := x.(Ref)
		if !isRef || r.Depth > 0 {
			return x
		}
		i := carrier(p, r)
		if i < 0 {
			ok = false
			return x
		}
		return Ref{Idx: int32(i)}
	})
	return mapped, ok
}

// carrier returns the first column of p computing exactly e, or -1.
func carrier(p *Project, e Expr) int {
	for i, c := range p.Cols {
		if ExprEqual(c.E, e) {
			return i
		}
	}
	return -1
}

// PushLimit rewrites a Limit below bag (non-DISTINCT) projections when the
// order it must honour is not expressible over the projected schema — the
// derived-table case where the subquery orders by a column the outer SELECT
// list drops (`SELECT a FROM (SELECT a, b FROM r ORDER BY b DESC) t LIMIT
// 2` must cut by b). A bag projection maps each input row to exactly one
// output row with the same multiplicity, so cutting before or after
// projecting selects the same rows; cutting below additionally evaluates
// the projections (and any sublinks in them) only for the surviving rows.
// The moved Limit has the schema of the input it cuts, so the projections'
// bound columns read the same slots above it. ok reports whether a rewrite
// applied; both executors consult this before evaluating a Limit, so the
// correctness does not depend on the optional optimizer.
func PushLimit(l *Limit) (Op, bool) {
	if LiftOrderKeys(l.Child) != nil {
		return l, false // the limit sees its keys where it stands
	}
	var projs []*Project
	cur := l.Child
	for {
		p, isProj := cur.(*Project)
		if !isProj || p.Distinct {
			break
		}
		projs = append(projs, p)
		cur = p.Child
	}
	if len(projs) == 0 || LiftOrderKeys(cur) == nil {
		return l, false // no order below either; the cut is arbitrary anywhere
	}
	out := Op(&Limit{Child: cur, N: l.N, Offset: l.Offset})
	for i := len(projs) - 1; i >= 0; i-- {
		out = &Project{Child: out, Cols: projs[i].Cols}
	}
	return out, true
}
