package algebra

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"perm/internal/schema"
)

// Ref is an attribute reference bound to the slot it reads: slot Idx of the
// tuple Depth scopes out. Depth 0 is the input of the operator the expression
// belongs to (its ExprInputSchema); depth n is the input of the operator n
// sublink levels out, whose current tuple the sublink is evaluated for. It is
// PostgreSQL's Var of (varlevelsup, varattno): Bind lowers every AttrRef of a
// plan to a Ref once, when the plan is compiled, and the executor indexes
// tuples instead of resolving names per row. A Ref carries no name; Indent
// renders it from the schema it indexes.
type Ref struct {
	Depth int32
	Idx   int32
}

func (Ref) exprNode() {}

// String renders the slot as ⟨depth,slot⟩.
func (r Ref) String() string { return fmt.Sprintf("⟨%d,%d⟩", r.Depth, r.Idx) }

// ResolveError is a reference that does not bind: no scope has the
// attribute, or the first scope that has it has it more than once.
type ResolveError struct {
	Ref AttrRef
	// Ambiguous reports a scope with more than one match, Depth which scope
	// that is (0 for the operator's input).
	Ambiguous bool
	Depth     int
	// Scope is the schema the reference is ambiguous in, or the operator's
	// input when no scope has it; Scopes is the number of enclosing scopes.
	Scope  schema.Schema
	Scopes int
}

func (e *ResolveError) Error() string {
	switch {
	case e.Ambiguous && e.Depth == 0:
		return fmt.Sprintf("eval: ambiguous attribute reference %s in %s", e.Ref, e.Scope)
	case e.Ambiguous:
		return fmt.Sprintf("eval: ambiguous correlated reference %s in %s", e.Ref, e.Scope)
	default:
		return fmt.Sprintf("eval: unknown attribute %s (scope %s, %d outer scopes)", e.Ref, e.Scope, e.Scopes)
	}
}

// Resolve binds one reference of an operator expression: in is the
// operator's input (ExprInputSchema), scopes are the inputs of the operators
// whose sublinks enclose it, innermost last. The search goes innermost first
// — SQL's correlation rule, under which an inner column shadows an outer one
// of the same name — and ambiguity in the first scope that has the name is an
// error, not a reason to look further out. Bind and FreeVars both resolve
// through here.
func Resolve(ref AttrRef, in schema.Schema, scopes []schema.Schema) (Ref, error) {
	for depth := 0; depth <= len(scopes); depth++ {
		sch := in
		if depth > 0 {
			sch = scopes[len(scopes)-depth]
		}
		idx, ambiguous := sch.Lookup(ref.Qual, ref.Name)
		if ambiguous {
			return Ref{}, &ResolveError{Ref: ref, Ambiguous: true, Depth: depth, Scope: sch, Scopes: len(scopes)}
		}
		if idx >= 0 {
			return Ref{Depth: int32(depth), Idx: int32(idx)}, nil
		}
	}
	return Ref{}, &ResolveError{Ref: ref, Scope: in, Scopes: len(scopes)}
}

// Bind returns a copy of the plan with every attribute reference bound (see
// Ref) and every sublink carrying its free slots (Sublink.Free), or the error
// of the first reference that does not bind. References bound already stay
// as they are. A subtree the plan reaches twice under the same scopes stays
// one node in the copy — the executor's sublink memo tables key on node
// identity — and one reached under two different scope stacks is bound once
// per stack.
func Bind(op Op) (Op, error) {
	return newRebinder(func(x Expr, in schema.Schema, scopes []schema.Schema) (Expr, error) {
		if ref, ok := x.(AttrRef); ok {
			return Resolve(ref, in, scopes)
		}
		return x, nil
	}).plan(op)
}

// named returns a copy of the plan with every bound reference replaced by a
// name that resolves to the same slot: the bare attribute name where that
// binds the same way, the qualified one otherwise.
func named(op Op) Op {
	out, err := newRebinder(func(x Expr, in schema.Schema, scopes []schema.Schema) (Expr, error) {
		r, ok := x.(Ref)
		if !ok || int(r.Depth) > len(scopes) {
			return x, nil
		}
		sch := in
		if r.Depth > 0 {
			sch = scopes[len(scopes)-int(r.Depth)]
		}
		if int(r.Idx) >= sch.Len() {
			return x, nil
		}
		a := sch.Attrs[r.Idx]
		if got, err := Resolve(Attr(a.Name), in, scopes); err == nil && got == r {
			return Attr(a.Name), nil
		}
		return QAttr(a.Qual, a.Name), nil
	}).plan(op)
	if err != nil {
		return op // an operator the rebinder does not know renders as it is
	}
	return out
}

// rebinder copies a plan with every attribute reference, named or bound,
// replaced by leaf(reference, operator input, enclosing scopes).
type rebinder struct {
	leaf func(x Expr, in schema.Schema, scopes []schema.Schema) (Expr, error)
	// done maps a node and the scope stack it was reached under to its copy.
	done map[stacked]rebound
	err  error
}

type stacked struct {
	op    Op
	stack string
}

// rebound is the copy of a subtree and its free slots: the bound references
// that leave it, relative to its operators' scope (depth 1 is the input of
// the operator whose sublink holds the subtree), in (depth, slot) order.
type rebound struct {
	op   Op
	free []Ref
}

func newRebinder(leaf func(Expr, schema.Schema, []schema.Schema) (Expr, error)) *rebinder {
	return &rebinder{leaf: leaf, done: map[stacked]rebound{}}
}

func (rb *rebinder) plan(op Op) (Op, error) {
	out := rb.op(op, nil, "")
	if rb.err != nil {
		return nil, rb.err
	}
	return out.op, nil
}

// stackKey extends a scope stack's key by one scope.
func stackKey(stack string, sch schema.Schema) string {
	var b strings.Builder
	b.WriteString(stack)
	b.WriteByte(0)
	for _, a := range sch.Attrs {
		b.WriteString(a.Qual)
		b.WriteByte(1)
		b.WriteString(a.Name)
		b.WriteByte(2)
	}
	return b.String()
}

// op copies one operator reached under scopes (innermost last), whose key is
// stack.
func (rb *rebinder) op(op Op, scopes []schema.Schema, stack string) rebound {
	key := stacked{op, stack}
	if done, ok := rb.done[key]; ok {
		return done
	}
	var free []Ref
	in := ExprInputSchema(op)
	inner, innerKey := scopes, ""
	expr := func(e Expr) Expr {
		if e == nil || rb.err != nil {
			return e
		}
		return MapExpr(e, func(x Expr) Expr {
			if rb.err != nil {
				return x
			}
			switch v := x.(type) {
			case AttrRef, Ref:
				out, err := rb.leaf(x, in, scopes)
				if err != nil {
					rb.err = err
					return x
				}
				if r, ok := out.(Ref); ok && r.Depth > 0 {
					free = append(free, r)
				}
				return out
			case Sublink:
				if len(inner) == len(scopes) {
					inner = append(scopes[:len(scopes):len(scopes)], in)
					innerKey = stackKey(stack, in)
				}
				q := rb.op(v.Query, inner, innerKey)
				v.Query, v.Free = q.op, q.free
				for _, r := range q.free {
					if r.Depth > 1 {
						free = append(free, Ref{Depth: r.Depth - 1, Idx: r.Idx})
					}
				}
				return v
			}
			return x
		})
	}
	kid := func(c Op) Op {
		if rb.err != nil {
			return c
		}
		out := rb.op(c, scopes, stack)
		free = append(free, out.free...)
		return out.op
	}
	var out Op
	switch o := op.(type) {
	case *Scan:
		out = o
	case *Values:
		n := &Values{Sch: o.Sch, Rows: make([]Row, len(o.Rows))}
		for i, row := range o.Rows {
			n.Rows[i] = make(Row, len(row))
			for j, e := range row {
				n.Rows[i][j] = expr(e)
			}
		}
		out = n
	case *Select:
		out = &Select{Child: kid(o.Child), Cond: expr(o.Cond)}
	case *Project:
		n := &Project{Child: kid(o.Child), Cols: make([]ProjExpr, len(o.Cols)), Distinct: o.Distinct}
		for i, c := range o.Cols {
			n.Cols[i] = ProjExpr{E: expr(c.E), As: c.As, Qual: c.Qual}
		}
		out = n
	case *Cross:
		out = &Cross{L: kid(o.L), R: kid(o.R)}
	case *Join:
		out = &Join{L: kid(o.L), R: kid(o.R), Cond: expr(o.Cond)}
	case *LeftJoin:
		out = &LeftJoin{L: kid(o.L), R: kid(o.R), Cond: expr(o.Cond)}
	case *Aggregate:
		n := &Aggregate{Child: kid(o.Child), Group: make([]GroupExpr, len(o.Group)), Aggs: make([]AggExpr, len(o.Aggs))}
		for i, g := range o.Group {
			n.Group[i] = GroupExpr{E: expr(g.E), As: g.As, Qual: g.Qual}
		}
		for i, a := range o.Aggs {
			n.Aggs[i] = AggExpr{Fn: a.Fn, Arg: expr(a.Arg), As: a.As, Distinct: a.Distinct}
		}
		out = n
	case *SetOp:
		out = &SetOp{Kind: o.Kind, Bag: o.Bag, L: kid(o.L), R: kid(o.R)}
	case *Order:
		n := &Order{Child: kid(o.Child), Keys: make([]SortKey, len(o.Keys))}
		for i, k := range o.Keys {
			n.Keys[i] = SortKey{E: expr(k.E), Desc: k.Desc}
		}
		out = n
	case *Limit:
		out = &Limit{Child: kid(o.Child), N: o.N, Offset: o.Offset}
	default:
		if rb.err == nil {
			rb.err = fmt.Errorf("algebra: cannot bind operator %T", op)
		}
	}
	slices.SortFunc(free, func(a, b Ref) int {
		return cmp.Or(cmp.Compare(a.Depth, b.Depth), cmp.Compare(a.Idx, b.Idx))
	})
	done := rebound{op: out, free: slices.Clip(slices.Compact(free))}
	rb.done[key] = done
	return done
}
