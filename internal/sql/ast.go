package sql

import "perm/internal/types"

// The SQL abstract syntax tree. It is deliberately separate from the
// algebra: the parser produces this untyped surface form, and translate.go
// lowers it — resolving *, IN lists, aggregate extraction and subquery
// kinds — onto internal/algebra.

// Stmt is a full statement: a select possibly combined with set operations.
type Stmt struct {
	Left  *SelectStmt
	SetOp *SetOpClause // nil when the statement is a plain select
}

// SetOpClause chains a set operation onto the left select.
type SetOpClause struct {
	Kind  string // "UNION", "INTERSECT", "EXCEPT"
	All   bool   // UNION ALL keeps duplicates
	Right *Stmt
}

// SelectStmt is one SELECT … query block.
type SelectStmt struct {
	Distinct   bool
	Provenance bool // SELECT PROVENANCE …, the Perm language extension
	Cols       []SelectCol
	Star       bool
	From       []TableRef
	Where      Expr
	GroupBy    []Expr
	Having     Expr
	OrderBy    []OrderKey
	Limit      int // -1 when absent
	Offset     int // 0 when absent
}

// SelectCol is one output column with an optional alias.
type SelectCol struct {
	E     Expr
	Alias string
}

// TableRef is a FROM item: either a base table, a parenthesized subquery, or
// a join of two table refs.
type TableRef struct {
	// Base table:
	Table string
	Alias string
	// Subquery (Table empty):
	Sub *Stmt
	// Join (Table empty, Sub nil):
	Join *JoinRef
}

// JoinRef is an explicit join in the FROM clause.
type JoinRef struct {
	Left, Right TableRef
	LeftOuter   bool
	On          Expr
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	E    Expr
	Desc bool
}

// Expr is a surface expression node. Nodes the semantic analyzer reports
// errors against carry Pos, their 1-based byte position in the source text
// (0 when the node was built programmatically rather than parsed).
type Expr interface{ sqlExpr() }

// Ident is a possibly-qualified column reference.
type Ident struct {
	Qual string
	Name string
	Pos  int
}

// NumLit is an integer or float literal (Float reports which).
type NumLit struct {
	Int   int64
	Float float64
	IsFlt bool
	Pos   int
}

// StrLit is a string literal.
type StrLit struct{ S string }

// ParamLit stands where Lexed.Shape lifted a number or string literal out of
// the statement: slot Idx of the statement's parameter vector, holding a
// value of kind Kind. Analysis types it by its kind and compares it by its
// slot; translation lowers it to an algebra.Param.
type ParamLit struct {
	Idx  int
	Kind types.Kind
}

// BoolLit is TRUE or FALSE.
type BoolLit struct{ B bool }

// NullLit is NULL.
type NullLit struct{}

// Binary is a binary operator: comparison, arithmetic, ||, AND, OR.
type Binary struct {
	Op   string
	L, R Expr
	Pos  int // position of the operator
}

// Unary is NOT or unary minus.
type Unary struct {
	Op string
	E  Expr
}

// IsNull is "expr IS [NOT] NULL".
type IsNull struct {
	E   Expr
	Not bool
}

// InList is "expr [NOT] IN (v1, v2, …)".
type InList struct {
	E    Expr
	List []Expr
	Not  bool
}

// InSub is "expr [NOT] IN (SELECT …)".
type InSub struct {
	E   Expr
	Sub *Stmt
	Not bool
}

// Quant is "expr op ANY|ALL (SELECT …)".
type Quant struct {
	Op  string // comparison operator
	Any bool   // true for ANY/SOME, false for ALL
	E   Expr
	Sub *Stmt
}

// Exists is "[NOT] EXISTS (SELECT …)".
type Exists struct {
	Sub *Stmt
	Not bool
}

// ScalarSub is a parenthesized subquery used as a value.
type ScalarSub struct{ Sub *Stmt }

// Call is a function call — an aggregate or a registered scalar function;
// Star marks count(*), Distinct marks f(DISTINCT x).
type Call struct {
	Name     string
	Args     []Expr
	Star     bool
	Distinct bool
	Pos      int
}

// Like is "expr [NOT] LIKE pattern".
type Like struct {
	E       Expr
	Pattern Expr
	Not     bool
	Pos     int
}

// CastExpr is "CAST(expr AS type)". Type is the spelled type name, resolved
// by the analyzer/translator via algebra.ParseCastType.
type CastExpr struct {
	E    Expr
	Type string
	Pos  int
}

// Between is "expr [NOT] BETWEEN lo AND hi".
type Between struct {
	E      Expr
	Lo, Hi Expr
	Not    bool
}

// CaseWhen is one WHEN … THEN … branch of a Case expression.
type CaseWhen struct {
	Cond   Expr
	Result Expr
}

// Case is "CASE [operand] WHEN … THEN … [WHEN …] [ELSE …] END". A non-nil
// Operand selects the simple form, whose WHEN expressions are compared to
// the operand with =; otherwise the WHEN expressions are boolean conditions
// (searched CASE).
type Case struct {
	Operand Expr // nil for searched CASE
	Whens   []CaseWhen
	Else    Expr // nil when absent (result NULL)
}

func (Ident) sqlExpr()     {}
func (NumLit) sqlExpr()    {}
func (StrLit) sqlExpr()    {}
func (ParamLit) sqlExpr()  {}
func (BoolLit) sqlExpr()   {}
func (NullLit) sqlExpr()   {}
func (Binary) sqlExpr()    {}
func (Unary) sqlExpr()     {}
func (IsNull) sqlExpr()    {}
func (InList) sqlExpr()    {}
func (InSub) sqlExpr()     {}
func (Quant) sqlExpr()     {}
func (Exists) sqlExpr()    {}
func (ScalarSub) sqlExpr() {}
func (Call) sqlExpr()      {}
func (Between) sqlExpr()   {}
func (Case) sqlExpr()      {}
func (Like) sqlExpr()      {}
func (CastExpr) sqlExpr()  {}

// WalkExprs visits e and its sub-expressions in pre-order; fn returning
// false skips a node's children. Subquery statements (InSub/Quant/Exists/
// ScalarSub bodies) are not descended into — callers that care about nested
// statements type-switch inside fn and recurse themselves. Every traversal
// over the surface AST goes through this one walker, so a new expression
// node needs exactly one new arm here.
func WalkExprs(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case Binary:
		WalkExprs(x.L, fn)
		WalkExprs(x.R, fn)
	case Unary:
		WalkExprs(x.E, fn)
	case IsNull:
		WalkExprs(x.E, fn)
	case InList:
		WalkExprs(x.E, fn)
		for _, it := range x.List {
			WalkExprs(it, fn)
		}
	case InSub:
		WalkExprs(x.E, fn)
	case Quant:
		WalkExprs(x.E, fn)
	case Between:
		WalkExprs(x.E, fn)
		WalkExprs(x.Lo, fn)
		WalkExprs(x.Hi, fn)
	case Like:
		WalkExprs(x.E, fn)
		WalkExprs(x.Pattern, fn)
	case CastExpr:
		WalkExprs(x.E, fn)
	case Call:
		for _, arg := range x.Args {
			WalkExprs(arg, fn)
		}
	case Case:
		if x.Operand != nil {
			WalkExprs(x.Operand, fn)
		}
		for _, w := range x.Whens {
			WalkExprs(w.Cond, fn)
			WalkExprs(w.Result, fn)
		}
		if x.Else != nil {
			WalkExprs(x.Else, fn)
		}
	}
}
