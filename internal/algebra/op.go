package algebra

import (
	"fmt"
	"strings"

	"perm/internal/schema"
)

// Op is a node of an algebra plan. Every operator knows its output schema.
//
// Plan trees are immutable once built: rewrites and the optimizer share
// subtrees freely, and the plan cache shares whole plans across sessions
// (see the package documentation's frozen-plan invariant).
type Op interface {
	fmt.Stringer
	// Schema is the output schema of the operator.
	Schema() schema.Schema
	// Children returns the input operators, left to right.
	Children() []Op
	opNode()
}

// Scan reads a base relation from the catalog. Name is the catalog name;
// Alias (defaulting to Name) qualifies the output attributes, so the same
// relation may be scanned twice under different aliases. Sch is the base
// schema as recorded in the catalog, re-qualified by the alias.
type Scan struct {
	Name  string
	Alias string
	Sch   schema.Schema
}

func (*Scan) opNode() {}

// NewScan builds a scan of base relation name with the catalog schema sch.
func NewScan(name, alias string, sch schema.Schema) *Scan {
	if alias == "" {
		alias = name
	}
	return &Scan{Name: name, Alias: alias, Sch: sch.WithQual(alias)}
}

// Schema implements Op.
func (s *Scan) Schema() schema.Schema { return s.Sch }

// Children implements Op.
func (s *Scan) Children() []Op { return nil }

func (s *Scan) String() string {
	if s.Alias != s.Name {
		return s.Name + " AS " + s.Alias
	}
	return s.Name
}

// Values is an inline relation literal. The Gen rewrite strategy uses it for
// the null(R) extension tuple of CrossBase; it is also handy in tests.
type Values struct {
	Sch  schema.Schema
	Rows []Row
}

// Row is one literal tuple of a Values operator.
type Row []Expr

func (*Values) opNode() {}

// Schema implements Op.
func (v *Values) Schema() schema.Schema { return v.Sch }

// Children implements Op.
func (v *Values) Children() []Op { return nil }

func (v *Values) String() string {
	rows := make([]string, len(v.Rows))
	for i, r := range v.Rows {
		rows[i] = "(" + exprList(r) + ")"
	}
	return "VALUES " + strings.Join(rows, ", ")
}

// NullRow returns a Values row of n NULL literals — the null(R) tuple.
func NullRow(n int) Row {
	r := make(Row, n)
	for i := range r {
		r[i] = NullConst()
	}
	return r
}

// Select is σ_Cond(Child). The condition may contain sublinks.
type Select struct {
	Child Op
	Cond  Expr
}

func (*Select) opNode() {}

// Schema implements Op.
func (s *Select) Schema() schema.Schema { return s.Child.Schema() }

// Children implements Op.
func (s *Select) Children() []Op { return []Op{s.Child} }

func (s *Select) String() string { return fmt.Sprintf("σ[%s](%s)", s.Cond, s.Child) }

// ProjExpr is one output column of a projection: an expression with a result
// name (the paper's renaming a→b). Qual optionally qualifies the output
// attribute so that pass-through columns keep resolving under their original
// relation alias after a provenance rewrite.
type ProjExpr struct {
	E    Expr
	As   string
	Qual string
}

// String renders the column as expr or expr→name; a column that passes an
// attribute through under its own name renders as the reference.
func (p ProjExpr) String() string {
	if a, ok := p.E.(AttrRef); ok && a.Name == p.As && (p.Qual == "" || a.Qual == "" || a.Qual == p.Qual) {
		return p.E.String()
	}
	return fmt.Sprintf("%s→%s", p.E, p.As)
}

// Project is Π_Cols(Child); Distinct selects the duplicate-removing set
// version Π^S, otherwise the bag version Π^B. Columns may contain sublinks.
type Project struct {
	Child    Op
	Cols     []ProjExpr
	Distinct bool
}

func (*Project) opNode() {}

// NewProject builds a bag projection over the given columns.
func NewProject(child Op, cols ...ProjExpr) *Project {
	return &Project{Child: child, Cols: cols}
}

// Col builds a projection column with an explicit output name.
func Col(e Expr, as string) ProjExpr { return ProjExpr{E: e, As: as} }

// KeepCol projects an attribute through unchanged.
func KeepCol(name string) ProjExpr { return ProjExpr{E: Attr(name), As: name} }

// KeepAttr projects a schema attribute through unchanged, preserving its
// qualifier.
func KeepAttr(a schema.Attr) ProjExpr {
	return ProjExpr{E: AttrRef{Qual: a.Qual, Name: a.Name}, As: a.Name, Qual: a.Qual}
}

// Schema implements Op.
func (p *Project) Schema() schema.Schema {
	attrs := make([]schema.Attr, len(p.Cols))
	for i, c := range p.Cols {
		attrs[i] = schema.Attr{Qual: c.Qual, Name: c.As}
	}
	return schema.Schema{Attrs: attrs}
}

// Children implements Op.
func (p *Project) Children() []Op { return []Op{p.Child} }

func (p *Project) String() string {
	tag := "ΠB"
	if p.Distinct {
		tag = "ΠS"
	}
	return fmt.Sprintf("%s[%s](%s)", tag, exprList(p.Cols), p.Child)
}

// Cross is the cross product L × R.
type Cross struct {
	L, R Op
}

func (*Cross) opNode() {}

// Schema implements Op.
func (c *Cross) Schema() schema.Schema { return c.L.Schema().Concat(c.R.Schema()) }

// Children implements Op.
func (c *Cross) Children() []Op { return []Op{c.L, c.R} }

func (c *Cross) String() string { return fmt.Sprintf("(%s × %s)", c.L, c.R) }

// Join is the inner join L ⋈_Cond R. The condition may contain sublinks
// (the Left and Move strategies produce such joins).
type Join struct {
	L, R Op
	Cond Expr
}

func (*Join) opNode() {}

// Schema implements Op.
func (j *Join) Schema() schema.Schema { return j.L.Schema().Concat(j.R.Schema()) }

// Children implements Op.
func (j *Join) Children() []Op { return []Op{j.L, j.R} }

func (j *Join) String() string { return fmt.Sprintf("(%s ⋈[%s] %s)", j.L, j.Cond, j.R) }

// LeftJoin is the left outer join L ⟕_Cond R: unmatched left tuples are
// padded with NULLs on the right side.
type LeftJoin struct {
	L, R Op
	Cond Expr
}

func (*LeftJoin) opNode() {}

// Schema implements Op.
func (j *LeftJoin) Schema() schema.Schema { return j.L.Schema().Concat(j.R.Schema()) }

// Children implements Op.
func (j *LeftJoin) Children() []Op { return []Op{j.L, j.R} }

func (j *LeftJoin) String() string { return fmt.Sprintf("(%s ⟕[%s] %s)", j.L, j.Cond, j.R) }

// AggFn enumerates the aggregate functions.
type AggFn uint8

// The aggregate functions of the engine.
const (
	AggSum AggFn = iota
	AggCount
	AggCountStar
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL spelling.
func (f AggFn) String() string {
	switch f {
	case AggSum:
		return "sum"
	case AggCount, AggCountStar:
		return "count"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("agg(%d)", uint8(f))
	}
}

// AggExpr is one aggregate function application with its result name.
// Distinct computes the function over the distinct argument values of the
// group (SQL's count(DISTINCT x)).
type AggExpr struct {
	Fn       AggFn
	Arg      Expr // nil for count(*)
	As       string
	Distinct bool
}

// String renders the aggregate call.
func (a AggExpr) String() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	if a.Distinct {
		arg = "DISTINCT " + arg
	}
	return fmt.Sprintf("%s(%s)→%s", a.Fn, arg, a.As)
}

// GroupExpr is one grouping expression with a result name. Qual, when set,
// qualifies the output attribute with the grouped column's source relation
// (FROM alias), so qualified references to a grouping column — `ORDER BY
// r.b` above the aggregation, or a correlated `r.b` inside an output-clause
// sublink — keep resolving against the post-aggregation schema the way
// their unqualified spellings do.
type GroupExpr struct {
	E    Expr
	As   string
	Qual string
}

// String renders the grouping column.
func (g GroupExpr) String() string { return fmt.Sprintf("%s→%s", g.E, g.As) }

// Aggregate is α_{Group,Aggs}(Child): it groups on the Group expressions and
// evaluates the aggregate functions per group. Output schema is the grouping
// columns followed by the aggregate results, one tuple per group. With no
// grouping columns the result is a single tuple (over the whole input, even
// if empty, matching SQL).
type Aggregate struct {
	Child Op
	Group []GroupExpr
	Aggs  []AggExpr
}

func (*Aggregate) opNode() {}

// Schema implements Op.
func (a *Aggregate) Schema() schema.Schema {
	attrs := make([]schema.Attr, 0, len(a.Group)+len(a.Aggs))
	for _, g := range a.Group {
		attrs = append(attrs, schema.Attr{Qual: g.Qual, Name: g.As})
	}
	for _, f := range a.Aggs {
		attrs = append(attrs, schema.Attr{Name: f.As})
	}
	return schema.Schema{Attrs: attrs}
}

// Children implements Op.
func (a *Aggregate) Children() []Op { return []Op{a.Child} }

func (a *Aggregate) String() string {
	return fmt.Sprintf("α[%s; %s](%s)", exprList(a.Group), exprList(a.Aggs), a.Child)
}

// SetOpKind distinguishes union, intersection and difference.
type SetOpKind uint8

// The set operation kinds.
const (
	Union SetOpKind = iota
	Intersect
	Except
)

// String returns the SQL spelling.
func (k SetOpKind) String() string {
	switch k {
	case Union:
		return "UNION"
	case Intersect:
		return "INTERSECT"
	case Except:
		return "EXCEPT"
	default:
		return fmt.Sprintf("setop(%d)", uint8(k))
	}
}

// SetOp is a union/intersection/difference of two inputs with identical
// width. Bag selects the multiplicity-arithmetic version from Figure 1
// (∪B, ∩B, −B); otherwise the duplicate-removing set version applies.
type SetOp struct {
	Kind SetOpKind
	Bag  bool
	L, R Op
}

func (*SetOp) opNode() {}

// Schema implements Op (the left input names the output).
func (s *SetOp) Schema() schema.Schema { return s.L.Schema() }

// Children implements Op.
func (s *SetOp) Children() []Op { return []Op{s.L, s.R} }

func (s *SetOp) String() string {
	tag := "S"
	if s.Bag {
		tag = "B"
	}
	return fmt.Sprintf("(%s %s[%s] %s)", s.L, s.Kind, tag, s.R)
}

// SortKey is one ORDER BY key.
type SortKey struct {
	E    Expr
	Desc bool
}

// String renders the key.
func (k SortKey) String() string {
	if k.Desc {
		return k.E.String() + " DESC"
	}
	return k.E.String()
}

// Order sorts its input; provenance rewrites pass it through unchanged
// (ordering does not affect which tuples contribute). Both executors emit
// its rows in key order, and operators that keep row order — Limit,
// Select, a bag Project — pass that order up to the presented result.
type Order struct {
	Child Op
	Keys  []SortKey
}

func (*Order) opNode() {}

// Schema implements Op.
func (o *Order) Schema() schema.Schema { return o.Child.Schema() }

// Children implements Op.
func (o *Order) Children() []Op { return []Op{o.Child} }

func (o *Order) String() string { return fmt.Sprintf("sort[%s](%s)", exprList(o.Keys), o.Child) }

// Limit keeps N tuples of its (ordered) input after skipping the first
// Offset tuples. N < 0 means "no limit" (an OFFSET-only clause); Offset 0
// skips nothing.
type Limit struct {
	Child  Op
	N      int
	Offset int
}

func (*Limit) opNode() {}

// Schema implements Op.
func (l *Limit) Schema() schema.Schema { return l.Child.Schema() }

// Children implements Op.
func (l *Limit) Children() []Op { return []Op{l.Child} }

func (l *Limit) String() string {
	if l.Offset > 0 {
		return fmt.Sprintf("limit[%d offset %d](%s)", l.N, l.Offset, l.Child)
	}
	return fmt.Sprintf("limit[%d](%s)", l.N, l.Child)
}

// Walk visits the plan in pre-order, descending into children and into the
// queries of sublinks found in operator conditions/columns. If fn returns
// false the node's subtree is skipped.
func Walk(op Op, fn func(Op) bool) {
	if op == nil || !fn(op) {
		return
	}
	for _, e := range OperatorExprs(op) {
		WalkExpr(e, func(x Expr) bool {
			if s, ok := x.(Sublink); ok {
				Walk(s.Query, fn)
			}
			return true
		})
	}
	for _, c := range op.Children() {
		Walk(c, fn)
	}
}

// OperatorExprs returns the scalar expressions embedded in an operator —
// the condition of a selection or join, the column expressions of a
// projection, the grouping and aggregate argument expressions of an
// aggregation, the sort keys of an ordering. Walks over plans (FreeVars,
// the executor's index planner) use it to reach every expression exactly
// once.
func OperatorExprs(op Op) []Expr {
	switch o := op.(type) {
	case *Select:
		return []Expr{o.Cond}
	case *Project:
		es := make([]Expr, len(o.Cols))
		for i, c := range o.Cols {
			es[i] = c.E
		}
		return es
	case *Join:
		return []Expr{o.Cond}
	case *LeftJoin:
		return []Expr{o.Cond}
	case *Aggregate:
		var es []Expr
		for _, g := range o.Group {
			es = append(es, g.E)
		}
		for _, a := range o.Aggs {
			if a.Arg != nil {
				es = append(es, a.Arg)
			}
		}
		return es
	case *Order:
		es := make([]Expr, len(o.Keys))
		for i, k := range o.Keys {
			es[i] = k.E
		}
		return es
	default:
		return nil
	}
}

// BaseRelations returns the scan operators of the plan in visit order,
// including scans inside sublink queries. This is Base(q) from the paper
// (the base relations accessed by a query), used to build CrossBase and the
// provenance schema.
func BaseRelations(op Op) []*Scan {
	var out []*Scan
	Walk(op, func(o Op) bool {
		if s, ok := o.(*Scan); ok {
			out = append(out, s)
		}
		return true
	})
	return out
}

// Indent renders a plan as an indented tree for debugging and the CLI's
// EXPLAIN output. A bound reference (Ref) is rendered by the name of the
// attribute it indexes.
func Indent(op Op) string {
	var b strings.Builder
	indent(&b, named(op), 0)
	return b.String()
}

func indent(b *strings.Builder, op Op, depth int) {
	pad := strings.Repeat("  ", depth)
	switch o := op.(type) {
	case *Scan:
		fmt.Fprintf(b, "%sScan %s\n", pad, o)
	case *Values:
		fmt.Fprintf(b, "%s%s\n", pad, o)
	case *Select:
		fmt.Fprintf(b, "%sSelect [%s]\n", pad, o.Cond)
		indent(b, o.Child, depth+1)
	case *Project:
		tag := "Project"
		if o.Distinct {
			tag = "ProjectDistinct"
		}
		fmt.Fprintf(b, "%s%s [%s]\n", pad, tag, exprList(o.Cols))
		indent(b, o.Child, depth+1)
	case *Cross:
		fmt.Fprintf(b, "%sCross\n", pad)
		indent(b, o.L, depth+1)
		indent(b, o.R, depth+1)
	case *Join:
		fmt.Fprintf(b, "%sJoin [%s]\n", pad, o.Cond)
		indent(b, o.L, depth+1)
		indent(b, o.R, depth+1)
	case *LeftJoin:
		fmt.Fprintf(b, "%sLeftJoin [%s]\n", pad, o.Cond)
		indent(b, o.L, depth+1)
		indent(b, o.R, depth+1)
	case *Aggregate:
		fmt.Fprintf(b, "%sAggregate [%s; %s]\n", pad, exprList(o.Group), exprList(o.Aggs))
		indent(b, o.Child, depth+1)
	case *SetOp:
		fmt.Fprintf(b, "%sSetOp %s bag=%v\n", pad, o.Kind, o.Bag)
		indent(b, o.L, depth+1)
		indent(b, o.R, depth+1)
	case *Order:
		fmt.Fprintf(b, "%sOrder [%s]\n", pad, exprList(o.Keys))
		indent(b, o.Child, depth+1)
	case *Limit:
		if o.Offset > 0 {
			fmt.Fprintf(b, "%sLimit %d offset %d\n", pad, o.N, o.Offset)
		} else {
			fmt.Fprintf(b, "%sLimit %d\n", pad, o.N)
		}
		indent(b, o.Child, depth+1)
	default:
		fmt.Fprintf(b, "%s%s\n", pad, op)
	}
}
