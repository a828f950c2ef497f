// Package algebra defines the extended relational algebra of Figure 1 in
// Glavic & Alonso (EDBT 2009): bag-semantics operators (selection,
// bag/set projection, cross product, joins, aggregation, set operations)
// plus the sublink constructs ANY, ALL, EXISTS and scalar subqueries, which
// may appear in selection, projection and join conditions and may be
// correlated with and nested inside enclosing queries.
//
// # The frozen-plan invariant
//
// Trees are immutable once constructed: rewrites build new nodes and may
// freely share subtrees, and package perm's plan cache shares whole plans
// across sessions. Constructors may mutate a node while it is still
// private; everything after publication is copy-on-write. The invariant is
// checked at run time: with perm.WithPlanCheck on, the plan cache records
// plancheck.Fingerprint of every plan it admits — the whole tree, the
// presentation metadata beside it and the view definitions and table
// shapes it was compiled against — and re-fingerprints the plan after each
// statement that ran it, failing the statement on any difference
// (TestFrozenPlanCheck in package perm seeds such a write).
//
// # Parameters
//
// A plan compiled for the plan cache is parameterised: where the statement
// text had a value literal that cannot steer compilation, the plan carries a
// Param leaf instead of a Const, and one compiled plan serves every
// statement that differs only in those values. A Param names a slot of the
// per-run parameter vector (eval.Evaluator.Params), so running a cached plan
// copies nothing: the evaluator reads the slot where it would have read the
// constant. To everything that inspects plans — ExprEqual, the rewrite
// rules, the optimizer — a Param is an opaque leaf without
// attribute references, equal only to a Param of the same slot. The SQL
// front end (sql.Lexed.Lift) gives two literals one slot exactly when they
// are the same value of the same kind, so a decision taken because two
// literals were equal, or were not, holds for every statement that shares
// the plan.
package algebra

import (
	"fmt"
	"strings"

	"perm/internal/types"
)

// Expr is a scalar expression over attributes, constants, functions and
// sublinks. Expressions evaluate to a types.Value; conditions are
// expressions of boolean result interpreted under three-valued logic.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// AttrRef references an attribute by (optional) qualifier and name. Inside
// a sublink query a reference that does not resolve against the sublink's
// own input resolves against enclosing scopes — that is a correlation.
type AttrRef struct {
	Qual string
	Name string
}

func (AttrRef) exprNode() {}

// String renders the reference as [qual.]name.
func (a AttrRef) String() string {
	if a.Qual == "" {
		return a.Name
	}
	return a.Qual + "." + a.Name
}

// Attr is shorthand for an unqualified attribute reference.
func Attr(name string) AttrRef { return AttrRef{Name: name} }

// QAttr is shorthand for a qualified attribute reference.
func QAttr(qual, name string) AttrRef { return AttrRef{Qual: qual, Name: name} }

// Const is a literal value.
type Const struct {
	Val types.Value
}

func (Const) exprNode() {}

// String renders the literal; strings are single-quoted like SQL.
func (c Const) String() string {
	if c.Val.Kind() == types.KindString {
		return "'" + c.Val.Str() + "'"
	}
	return c.Val.String()
}

// IntConst is shorthand for an integer literal.
func IntConst(i int64) Const { return Const{Val: types.NewInt(i)} }

// StrConst is shorthand for a string literal.
func StrConst(s string) Const { return Const{Val: types.NewString(s)} }

// FloatConst is shorthand for a float literal.
func FloatConst(f float64) Const { return Const{Val: types.NewFloat(f)} }

// BoolConst is shorthand for a boolean literal.
func BoolConst(b bool) Const { return Const{Val: types.NewBool(b)} }

// NullConst is the NULL literal.
func NullConst() Const { return Const{Val: types.Null()} }

// Param is a value literal lifted out of the statement text: slot Idx of the
// parameter vector the plan is run with (see the package documentation).
type Param struct {
	Idx int
}

func (Param) exprNode() {}

// String renders the slot one-based, $1 for slot 0, as SQL placeholders are
// written.
func (p Param) String() string { return fmt.Sprintf("$%d", p.Idx+1) }

// Cmp is a binary comparison producing a three-valued boolean.
type Cmp struct {
	Op   types.CmpOp
	L, R Expr
}

func (Cmp) exprNode() {}

func (c Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}

// NullEq is the paper's =n operator: two-valued equality that treats two
// NULLs as equal. Introduced by the Gen strategy's Csub+ condition.
type NullEq struct {
	L, R Expr
}

func (NullEq) exprNode() {}

func (n NullEq) String() string { return fmt.Sprintf("%s =n %s", n.L, n.R) }

// Arith is binary arithmetic with NULL propagation.
type Arith struct {
	Op   types.ArithOp
	L, R Expr
}

func (Arith) exprNode() {}

func (a Arith) String() string { return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R) }

// And is three-valued conjunction; the empty conjunction is true.
type And struct {
	L, R Expr
}

func (And) exprNode() {}

func (a And) String() string { return fmt.Sprintf("(%s AND %s)", a.L, a.R) }

// Or is three-valued disjunction.
type Or struct {
	L, R Expr
}

func (Or) exprNode() {}

func (o Or) String() string { return fmt.Sprintf("(%s OR %s)", o.L, o.R) }

// Not is three-valued negation.
type Not struct {
	E Expr
}

func (Not) exprNode() {}

func (n Not) String() string { return fmt.Sprintf("NOT (%s)", n.E) }

// IsNull tests a value for NULL (two-valued).
type IsNull struct {
	E Expr
}

func (IsNull) exprNode() {}

func (i IsNull) String() string { return fmt.Sprintf("(%s IS NULL)", i.E) }

// Conj folds a list of conditions into a right-leaning AND chain; the empty
// list is the constant true.
func Conj(conds ...Expr) Expr {
	var out Expr
	for i := len(conds) - 1; i >= 0; i-- {
		if conds[i] == nil {
			continue
		}
		if out == nil {
			out = conds[i]
		} else {
			out = And{L: conds[i], R: out}
		}
	}
	if out == nil {
		return BoolConst(true)
	}
	return out
}

// CaseWhen is one WHEN … THEN … branch of a Case expression.
type CaseWhen struct {
	When Expr // boolean condition, evaluated under three-valued logic
	Then Expr
}

// Case is the searched CASE expression: branches are tested in order and
// the first branch whose condition is true yields the result; otherwise
// Else does (NULL when Else is nil). SQL's simple form CASE x WHEN v …
// is lowered to this searched form by the translator.
type Case struct {
	Whens []CaseWhen
	Else  Expr // nil means NULL
}

func (Case) exprNode() {}

func (c Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.When, w.Then)
	}
	if c.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", c.Else)
	}
	b.WriteString(" END")
	return b.String()
}

// SublinkKind distinguishes the four sublink constructs of the algebra.
type SublinkKind uint8

// The sublink kinds. A scalar sublink (the paper's plain "Tsub" sublink)
// must produce at most one tuple with exactly one attribute; its value is
// that attribute (or NULL for an empty result).
const (
	AnySublink SublinkKind = iota
	AllSublink
	ExistsSublink
	ScalarSublink
)

// String names the kind.
func (k SublinkKind) String() string {
	switch k {
	case AnySublink:
		return "ANY"
	case AllSublink:
		return "ALL"
	case ExistsSublink:
		return "EXISTS"
	case ScalarSublink:
		return "SCALAR"
	default:
		return fmt.Sprintf("sublink(%d)", uint8(k))
	}
}

// Sublink is the algebraic construct Csub: a nested query Tsub embedded in
// an expression. For ANY and ALL, Test and Op form the comparison
// "Test Op ANY/ALL (Query)"; EXISTS and scalar sublinks use neither.
type Sublink struct {
	Kind  SublinkKind
	Op    types.CmpOp // comparison operator for ANY/ALL
	Test  Expr        // the attribute expression A for ANY/ALL
	Query Op          // the sublink query Tsub
	// Free lists, in a bound plan (see Bind), the slots Query reads outside
	// itself — its correlation parameters — relative to the sublink: depth 1
	// is the input of the operator the sublink belongs to. Empty for an
	// uncorrelated sublink and in a plan not bound yet.
	Free []Ref
}

func (Sublink) exprNode() {}

func (s Sublink) String() string {
	switch s.Kind {
	case AnySublink, AllSublink:
		return fmt.Sprintf("%s %s %s (%s)", s.Test, s.Op, s.Kind, s.Query)
	case ExistsSublink:
		return fmt.Sprintf("EXISTS (%s)", s.Query)
	default:
		return fmt.Sprintf("(%s)", s.Query)
	}
}

// HasSublink reports whether the expression tree contains any sublink.
func HasSublink(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		if _, ok := x.(Sublink); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// CollectSublinks returns every sublink in the expression, outermost first,
// left to right. Sublinks nested inside a collected sublink's query are not
// included — they belong to the inner query and are rewritten recursively.
func CollectSublinks(e Expr) []Sublink {
	var out []Sublink
	WalkExpr(e, func(x Expr) bool {
		if s, ok := x.(Sublink); ok {
			out = append(out, s)
			return false // do not descend into the sublink's Test/Query
		}
		return true
	})
	return out
}

// WalkExpr visits e and its sub-expressions in pre-order. If fn returns
// false for a node, its children are not visited. Sublink queries are not
// descended into (they are operators, not expressions), but the Test
// expression of ANY/ALL is.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case Cmp:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case NullEq:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case Arith:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case And:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case Or:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case Not:
		WalkExpr(x.E, fn)
	case IsNull:
		WalkExpr(x.E, fn)
	case Case:
		for _, w := range x.Whens {
			WalkExpr(w.When, fn)
			WalkExpr(w.Then, fn)
		}
		if x.Else != nil {
			WalkExpr(x.Else, fn)
		}
	case Func:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case Cast:
		WalkExpr(x.E, fn)
	case Sublink:
		if x.Test != nil {
			WalkExpr(x.Test, fn)
		}
	}
}

// MapExpr rebuilds the expression bottom-up, replacing each node with
// fn(node) after its children have been mapped. fn receives every node and
// returns its replacement (commonly the node unchanged). Sublink queries are
// not rewritten; Test expressions are.
func MapExpr(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case Cmp:
		return fn(Cmp{Op: x.Op, L: MapExpr(x.L, fn), R: MapExpr(x.R, fn)})
	case NullEq:
		return fn(NullEq{L: MapExpr(x.L, fn), R: MapExpr(x.R, fn)})
	case Arith:
		return fn(Arith{Op: x.Op, L: MapExpr(x.L, fn), R: MapExpr(x.R, fn)})
	case And:
		return fn(And{L: MapExpr(x.L, fn), R: MapExpr(x.R, fn)})
	case Or:
		return fn(Or{L: MapExpr(x.L, fn), R: MapExpr(x.R, fn)})
	case Not:
		return fn(Not{E: MapExpr(x.E, fn)})
	case IsNull:
		return fn(IsNull{E: MapExpr(x.E, fn)})
	case Case:
		whens := make([]CaseWhen, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = CaseWhen{When: MapExpr(w.When, fn), Then: MapExpr(w.Then, fn)}
		}
		return fn(Case{Whens: whens, Else: MapExpr(x.Else, fn)})
	case Func:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = MapExpr(a, fn)
		}
		return fn(Func{Name: x.Name, Args: args})
	case Cast:
		return fn(Cast{E: MapExpr(x.E, fn), To: x.To})
	case Sublink:
		s := x
		s.Test = MapExpr(x.Test, fn)
		return fn(s)
	default:
		return fn(e)
	}
}

// ExprEqual reports structural equality of two expressions. Sublinks compare
// by pointer-identity of their Query operators plus kind/op/test; this is
// exactly what the Move strategy needs to replace occurrences of a sublink
// it collected from the same tree.
func ExprEqual(a, b Expr) bool { return exprEqual(a, b, false) }

// exprIdentical is ExprEqual that tells constants apart as values, not as
// SQL compares them: 2 and 2.0 are equal expressions, and a/2 is another
// computation than a/2.0. Constants are identical when == holds on their
// types.Value, which compares kind and payload bits: 0.0 and -0.0 differ,
// and a NaN is identical to a NaN with the same bits. It is the test for
// letting two expressions share memory (see Compact).
func exprIdentical(a, b Expr) bool { return exprEqual(a, b, true) }

func exprEqual(a, b Expr, exact bool) bool {
	if a == nil || b == nil {
		return a == b
	}
	switch x := a.(type) {
	case AttrRef:
		y, ok := b.(AttrRef)
		return ok && x == y
	case Ref:
		y, ok := b.(Ref)
		return ok && x == y
	case Const:
		y, ok := b.(Const)
		if exact {
			return ok && x.Val == y.Val
		}
		return ok && types.NullEq(x.Val, y.Val) && x.Val.IsNull() == y.Val.IsNull()
	case Param:
		y, ok := b.(Param)
		return ok && x == y
	case Cmp:
		y, ok := b.(Cmp)
		return ok && x.Op == y.Op && exprEqual(x.L, y.L, exact) && exprEqual(x.R, y.R, exact)
	case NullEq:
		y, ok := b.(NullEq)
		return ok && exprEqual(x.L, y.L, exact) && exprEqual(x.R, y.R, exact)
	case Arith:
		y, ok := b.(Arith)
		return ok && x.Op == y.Op && exprEqual(x.L, y.L, exact) && exprEqual(x.R, y.R, exact)
	case And:
		y, ok := b.(And)
		return ok && exprEqual(x.L, y.L, exact) && exprEqual(x.R, y.R, exact)
	case Or:
		y, ok := b.(Or)
		return ok && exprEqual(x.L, y.L, exact) && exprEqual(x.R, y.R, exact)
	case Not:
		y, ok := b.(Not)
		return ok && exprEqual(x.E, y.E, exact)
	case IsNull:
		y, ok := b.(IsNull)
		return ok && exprEqual(x.E, y.E, exact)
	case Case:
		y, ok := b.(Case)
		if !ok || len(x.Whens) != len(y.Whens) || !exprEqual(x.Else, y.Else, exact) {
			return false
		}
		for i := range x.Whens {
			if !exprEqual(x.Whens[i].When, y.Whens[i].When, exact) || !exprEqual(x.Whens[i].Then, y.Whens[i].Then, exact) {
				return false
			}
		}
		return true
	case Func:
		y, ok := b.(Func)
		if !ok || x.Name != y.Name || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !exprEqual(x.Args[i], y.Args[i], exact) {
				return false
			}
		}
		return true
	case Cast:
		y, ok := b.(Cast)
		return ok && x.To == y.To && exprEqual(x.E, y.E, exact)
	case Sublink:
		y, ok := b.(Sublink)
		return ok && x.Kind == y.Kind && x.Op == y.Op && x.Query == y.Query && exprEqual(x.Test, y.Test, exact)
	default:
		return false
	}
}

// exprList renders a comma-separated expression list.
func exprList[E fmt.Stringer](es []E) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}
