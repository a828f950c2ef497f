package plancheck

import (
	"perm/internal/algebra"
	"perm/internal/schema"
)

// SchemaCheck verifies that every operator's output schema is derivable
// from its children and that every attribute reference binds the way the
// executor will bind it (algebra.Resolve): uniquely, against its operator's
// input schema or, inside sublink queries, against the innermost enclosing
// correlation scope that has it. It also enforces set-operation arity and
// literal-row widths.
var SchemaCheck = &Check{
	Name: "schema",
	Doc:  "operator schemas derive from children; references resolve uniquely; set-op arity and literal-row widths match",
	Run:  runSchema,
}

func runSchema(p *Pass) {
	sc := &schemaScan{p: p}
	sc.op(p.Plan, pathRoot(p.Plan), nil)
}

type schemaScan struct {
	p *Pass
}

// op verifies one operator and recurses. scopes are the input schemas of
// the enclosing operators whose expressions the current (sublink) plan is
// nested in, innermost last.
func (sc *schemaScan) op(op algebra.Op, path string, scopes []schema.Schema) {
	switch o := op.(type) {
	case *algebra.Values:
		for i, row := range o.Rows {
			if len(row) != o.Sch.Len() {
				sc.p.Reportf(path, "literal row %d has %d expressions for a %d-attribute schema %s", i, len(row), o.Sch.Len(), o.Sch)
			}
		}
	case *algebra.SetOp:
		lw, rw := o.L.Schema().Len(), o.R.Schema().Len()
		if lw != rw {
			sc.p.Reportf(path, "%s inputs disagree on arity: %d vs %d columns (%s vs %s)", o.Kind, lw, rw, o.L.Schema(), o.R.Schema())
		}
		if lw == 0 {
			sc.p.Reportf(path, "%s over zero-column inputs", o.Kind)
		}
	case *algebra.Project:
		if len(o.Cols) == 0 {
			sc.p.Reportf(path, "projection with no output columns")
		}
	}
	in := algebra.ExprInputSchema(op)
	sub := 0
	for _, e := range algebra.OperatorExprs(op) {
		sub = sc.expr(e, path, in, scopes, sub)
	}
	for i, c := range op.Children() {
		sc.op(c, childPath(path, i, c), scopes)
	}
}

// expr binds the references of one operator expression through the
// executor's binder (algebra.Resolve), descending into sublink queries with
// the operator's input pushed as a correlation scope: a reference that does
// not bind is the finding. A reference that binds nowhere is tolerated in a
// Nested rule result, whose residual correlations DecorrelateCheck bounds.
// It returns the updated per-operator sublink counter.
func (sc *schemaScan) expr(e algebra.Expr, path string, in schema.Schema, scopes []schema.Schema, sub int) int {
	algebra.WalkExpr(e, func(x algebra.Expr) bool {
		switch v := x.(type) {
		case algebra.AttrRef:
			_, err := algebra.Resolve(v, in, scopes)
			switch re, _ := err.(*algebra.ResolveError); {
			case re == nil:
			case re.Ambiguous && re.Depth == 0:
				sc.p.Reportf(path, "ambiguous attribute reference %s in input %s", v, in)
			case re.Ambiguous:
				sc.p.Reportf(path, "ambiguous correlated reference %s in enclosing scope %s", v, re.Scope)
			case !sc.p.Nested:
				sc.p.Reportf(path, "attribute reference %s resolves against no input (input %s, %d enclosing scopes)", v, in, len(scopes))
			}
		case algebra.Sublink:
			sc.op(v.Query, subPath(path, sub, v.Query), append(scopes[:len(scopes):len(scopes)], in))
			sub++
			// v.Test is visited by WalkExpr itself and binds against in.
		}
		return true
	})
	return sub
}
