package algebra

import "perm/internal/schema"

// FreeVars returns the attribute references in op (including inside sublink
// queries) that cannot be resolved against any schema available within op
// itself — i.e. the correlated references that must be bound by an
// enclosing query. A plan with no free variables is uncorrelated: the Left,
// Move and Unn strategies require that of every sublink they rewrite.
func FreeVars(op Op) []AttrRef {
	var out []AttrRef
	freeVars(op, nil, &out)
	return out
}

// IsCorrelated reports whether the plan has at least one free attribute
// reference.
func IsCorrelated(op Op) bool { return len(FreeVars(op)) > 0 }

// freeVars appends the references of op that Resolve finds in none of op's
// own scopes (an ambiguous one is bound, if wrongly, and not free).
func freeVars(op Op, scopes []schema.Schema, out *[]AttrRef) {
	if op == nil {
		return
	}
	in := ExprInputSchema(op)
	for _, e := range OperatorExprs(op) {
		WalkExpr(e, func(x Expr) bool {
			switch v := x.(type) {
			case AttrRef:
				if _, err := Resolve(v, in, scopes); err != nil && !err.(*ResolveError).Ambiguous {
					*out = append(*out, v)
				}
			case Sublink:
				// The query's references may be bound by this operator's input;
				// the Test expression is visited next, at this level.
				freeVars(v.Query, append(scopes[:len(scopes):len(scopes)], in), out)
			}
			return true
		})
	}
	for _, c := range op.Children() {
		freeVars(c, scopes, out)
	}
}

// ExprInputSchema is the schema the operator's expressions are evaluated
// over — the (concatenated) input, not the output. Leaf operators (scans,
// literal relations) evaluate their expressions, if any, over the empty
// schema.
func ExprInputSchema(op Op) schema.Schema {
	switch o := op.(type) {
	case *Select:
		return o.Child.Schema()
	case *Project:
		return o.Child.Schema()
	case *Join:
		return o.L.Schema().Concat(o.R.Schema())
	case *LeftJoin:
		return o.L.Schema().Concat(o.R.Schema())
	case *Aggregate:
		return o.Child.Schema()
	case *Order:
		return o.Child.Schema()
	default:
		return schema.Schema{}
	}
}
