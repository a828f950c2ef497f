package sql

import (
	"fmt"
	"slices"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/schema"
	"perm/internal/types"
)

// Translated is the result of lowering a statement to algebra.
type Translated struct {
	// Plan is the algebra tree of the query (not provenance-rewritten).
	Plan algebra.Op
	// Provenance reports whether the statement used SELECT PROVENANCE.
	Provenance bool
	// Hidden is the number of trailing hidden sort-key columns in Plan's
	// output schema. ORDER BY may reference attributes the SELECT list does
	// not project (`SELECT a FROM r ORDER BY b`); the translator extends the
	// top-level projection with columns computing those keys so the sort and
	// any LIMIT cut can see them. The plan's Order sorts on them; the result
	// presentation layer only strips them — they are never part of the
	// query's visible result. Nested query blocks strip their hidden columns
	// themselves (their presentation order is not observable), so Hidden is
	// only ever non-zero for the top-level select.
	Hidden int
	// Relations are the names the statement resolved as relations, each once,
	// in order of first use: its FROM items that are tables or views, and
	// those of the view bodies it expanded. Besides the text, the plan
	// depends on what these names are bound to and on nothing else.
	Relations []string
}

// Translate lowers a parsed and analyzed statement to the extended
// relational algebra, resolving base table schemas against the environment's
// catalog and expanding its views.
func Translate(env Env, stmt *Stmt) (*Translated, error) {
	tr := &translator{cat: env.Catalog, views: env.Views}
	prov := stmt.Left.Provenance
	plan, err := tr.stmt(stmt, true)
	if err != nil {
		return nil, err
	}
	return &Translated{Plan: plan, Provenance: prov, Hidden: tr.hidden, Relations: tr.relations}, nil
}

// Compile parses, analyzes and translates in one step, without views.
func Compile(cat catalog.Source, query string) (*Translated, error) {
	return CompileEnv(Env{Catalog: cat}, query)
}

type translator struct {
	cat       catalog.Source
	views     *catalog.State[ViewDef]
	viewStack []string
	fresh     int
	// hidden is the number of trailing hidden sort-key columns the
	// top-level select block added to its projection (see Translated.Hidden).
	hidden int
	// relations collects Translated.Relations.
	relations []string
	// subPlans memoizes sublink subquery translation per AST node. Ordinal
	// substitution shares one AST subquery between GROUP BY and the select
	// list; translating both occurrences to the same algebra.Op pointer is
	// what lets ExprEqual (which compares sublinks by query pointer)
	// recognize them as one grouping expression. Algebra trees are immutable
	// and may share subtrees, so reuse is safe.
	subPlans map[*Stmt]algebra.Op
}

// subquery translates a sublink subquery, memoizing by AST node.
func (tr *translator) subquery(s *Stmt) (algebra.Op, error) {
	if plan, ok := tr.subPlans[s]; ok {
		return plan, nil
	}
	plan, err := tr.stmt(s, false)
	if err != nil {
		return nil, err
	}
	if tr.subPlans == nil {
		tr.subPlans = map[*Stmt]algebra.Op{}
	}
	tr.subPlans[s] = plan
	return plan, nil
}

// freshName returns an internal attribute name (grouping columns, hidden
// sort keys, aggregate results). The '#' cannot appear in a lexed
// identifier, so these names can never collide with user columns or
// aliases — `SELECT a AS ord1 … GROUP BY g1` stays unambiguous.
func (tr *translator) freshName(stem string) string {
	tr.fresh++
	return fmt.Sprintf("%s#%d", stem, tr.fresh)
}

func (tr *translator) stmt(s *Stmt, top bool) (algebra.Op, error) {
	if s.Left.Provenance && !top {
		return nil, fmt.Errorf("sql: SELECT PROVENANCE is only allowed at the top level")
	}
	// Set-operation arms are nested blocks: their presentation order is not
	// observable, so any hidden sort-key columns are stripped inside.
	left, err := tr.selectStmt(s.Left, top && s.SetOp == nil)
	if err != nil {
		return nil, err
	}
	if s.SetOp == nil {
		return left, nil
	}
	if s.SetOp.Right.Left.Provenance {
		return nil, fmt.Errorf("sql: SELECT PROVENANCE is only allowed at the top level")
	}
	right, err := tr.stmt(s.SetOp.Right, false)
	if err != nil {
		return nil, err
	}
	var kind algebra.SetOpKind
	switch s.SetOp.Kind {
	case "UNION":
		kind = algebra.Union
	case "INTERSECT":
		kind = algebra.Intersect
	case "EXCEPT":
		kind = algebra.Except
	default:
		return nil, fmt.Errorf("sql: unknown set operation %q", s.SetOp.Kind)
	}
	if left.Schema().Len() != right.Schema().Len() {
		return nil, fmt.Errorf("sql: %s of %d and %d columns", s.SetOp.Kind, left.Schema().Len(), right.Schema().Len())
	}
	return &algebra.SetOp{Kind: kind, Bag: s.SetOp.All, L: left, R: right}, nil
}

func (tr *translator) selectStmt(sel *SelectStmt, top bool) (algebra.Op, error) {
	var plan algebra.Op
	var err error
	if len(sel.From) == 0 {
		// FROM-less SELECT: the select list evaluates over one empty tuple
		// (PostgreSQL's implicit single-row source).
		if sel.Star {
			return nil, fmt.Errorf("sql: SELECT * with no tables specified is not valid")
		}
		plan = &algebra.Values{Rows: []algebra.Row{{}}}
	} else {
		plan, err = tr.fromItem(sel.From[0])
		if err != nil {
			return nil, err
		}
		for _, ref := range sel.From[1:] {
			right, err := tr.fromItem(ref)
			if err != nil {
				return nil, err
			}
			plan = &algebra.Cross{L: plan, R: right}
		}
	}

	if sel.Where != nil {
		cond, err := tr.expr(sel.Where, nil)
		if err != nil {
			return nil, err
		}
		plan = &algebra.Select{Child: plan, Cond: cond}
	}

	// Aggregation: collect aggregate calls from the output list, HAVING and
	// ORDER BY, then translate those clauses against the post-aggregation
	// schema (aggregate calls become references to aggregate columns, and
	// grouping expressions become references to grouping columns).
	aggs := &aggCollector{tr: tr}
	var groupExprs []algebra.GroupExpr
	groupNames := map[string]bool{}
	for _, g := range sel.GroupBy {
		ge, err := tr.expr(g, nil)
		if err != nil {
			return nil, err
		}
		name, qual := "", ""
		// Name the grouping column after the grouped identifier — unless two
		// grouping columns share an identifier name (GROUP BY x.a, y.a),
		// which would make the post-aggregation schema ambiguous. The source
		// qualifier is carried onto the output attribute so qualified
		// references to the grouping column resolve above the aggregation.
		if id, ok := g.(Ident); ok && !groupNames[id.Name] {
			name = id.Name
			if idx, amb := plan.Schema().Lookup(id.Qual, id.Name); idx >= 0 && !amb {
				qual = plan.Schema().Attrs[idx].Qual
			}
		}
		if name == "" {
			name = tr.freshName("g")
		}
		groupNames[name] = true
		groupExprs = append(groupExprs, algebra.GroupExpr{E: ge, As: name, Qual: qual})
	}
	// Sublinks in GROUP BY are evaluated by a projection below the
	// aggregation (§2.2 of the paper: "this can be simulated … using
	// projection on sublinks before applying aggregation"), which also
	// lets the provenance rewrite see them as ordinary projection sublinks.
	// The pre-push expressions are kept so output-clause occurrences of a
	// pushed grouping sublink (GROUP BY 1 sharing the select-list subquery)
	// can still be recognized as the grouping column.
	origGroup := make([]algebra.Expr, len(groupExprs))
	for i, g := range groupExprs {
		origGroup[i] = g.E
	}
	if plan, groupExprs, err = tr.pushGroupSublinks(plan, groupExprs); err != nil {
		return nil, err
	}

	var outCols []algebra.ProjExpr
	star := sel.Star
	if star {
		if len(sel.GroupBy) > 0 {
			return nil, fmt.Errorf("sql: SELECT * cannot be combined with GROUP BY")
		}
		for _, a := range plan.Schema().Attrs {
			outCols = append(outCols, algebra.KeepAttr(a))
		}
	} else {
		for i, c := range sel.Cols {
			e, err := tr.expr(c.E, aggs)
			if err != nil {
				return nil, err
			}
			outCols = append(outCols, algebra.Col(e, outputName(c, i)))
		}
	}
	var having algebra.Expr
	if sel.Having != nil {
		having, err = tr.expr(sel.Having, aggs)
		if err != nil {
			return nil, err
		}
	}
	var orderKeys []algebra.SortKey
	for _, k := range sel.OrderBy {
		e, err := tr.expr(k.E, aggs)
		if err != nil {
			return nil, err
		}
		orderKeys = append(orderKeys, algebra.SortKey{E: e, Desc: k.Desc})
	}

	if len(groupExprs) > 0 || len(aggs.collected) > 0 {
		if star {
			return nil, fmt.Errorf("sql: SELECT * cannot be combined with aggregation")
		}
		preAgg := plan.Schema()
		plan = &algebra.Aggregate{Child: plan, Group: groupExprs, Aggs: aggs.collected}
		// Replace grouping expressions in the output clauses with
		// references to the grouping columns. The comparison resolves
		// attribute references against the pre-aggregation schema, so
		// differently-qualified spellings of one grouping expression match
		// (SELECT a+1 … GROUP BY r.a+1), as they do in PostgreSQL.
		normGroups := make([]algebra.Expr, len(groupExprs))
		for i, g := range groupExprs {
			normGroups[i] = normalizeRefs(g.E, preAgg)
		}
		replace := func(e algebra.Expr) algebra.Expr {
			return algebra.MapExpr(e, func(x algebra.Expr) algebra.Expr {
				nx := normalizeRefs(x, preAgg)
				for i, g := range groupExprs {
					if algebra.ExprEqual(nx, normGroups[i]) || algebra.ExprEqual(x, origGroup[i]) {
						return algebra.Attr(g.As)
					}
				}
				return x
			})
		}
		for i := range outCols {
			outCols[i].E = replace(outCols[i].E)
		}
		if having != nil {
			having = replace(having)
			plan = &algebra.Select{Child: plan, Cond: having}
		}
		for i := range orderKeys {
			orderKeys[i].E = replace(orderKeys[i].E)
		}
	} else if having != nil {
		return nil, fmt.Errorf("sql: HAVING requires GROUP BY or aggregates")
	}

	childSch := plan.Schema() // pre-projection schema, for hidden sort keys
	proj := &algebra.Project{Child: plan, Cols: outCols, Distinct: sel.Distinct}
	plan = proj

	// ORDER BY keys referencing output aliases (or projected expressions)
	// resolve against the projection. A key the projection cannot express —
	// a dropped column (`SELECT a FROM r ORDER BY b`), a qualified base
	// reference (`ORDER BY r2.b`) or a sublink — is computed as a hidden
	// trailing projection column, so the sort and any LIMIT cut above can
	// evaluate it; the hidden columns are stripped after the sort (below for
	// nested blocks, by the result presentation for the top-level one).
	hidden := 0
	var hiddenCols []algebra.ProjExpr
	if len(orderKeys) > 0 {
		for i := range orderKeys {
			// A bare name that directly names an output column is that
			// output column — SQL's output-alias rule takes precedence over
			// the structural source-expression match below, which would
			// otherwise mis-resolve `SELECT a AS b, b AS a … ORDER BY a`
			// onto the source column a instead of the output alias.
			if ref, isRef := orderKeys[i].E.(algebra.AttrRef); isRef && ref.Qual == "" {
				if idx, amb := proj.Schema().Lookup("", ref.Name); idx >= 0 && !amb {
					continue
				}
			}
			mapped := aliasKeys(orderKeys[i].E, outCols)
			if keyResolves(mapped, proj.Schema()) && !algebra.HasSublink(mapped) {
				orderKeys[i].E = mapped
				continue
			}
			if !keyResolves(orderKeys[i].E, childSch) {
				// Neither schema can evaluate the key (an unknown or
				// correlated reference); leave it for the evaluator to
				// resolve against enclosing scopes or reject.
				orderKeys[i].E = mapped
				continue
			}
			if sel.Distinct {
				return nil, fmt.Errorf("sql: for SELECT DISTINCT, ORDER BY expressions must appear in the select list")
			}
			name := tr.freshName("ord")
			hiddenCols = append(hiddenCols, algebra.Col(orderKeys[i].E, name))
			orderKeys[i].E = algebra.Attr(name)
			hidden++
		}
		if len(hiddenCols) > 0 {
			// Copy-on-write: proj's column slice aliases outCols, which the
			// alias-resolution helpers above may share, and plan nodes are
			// frozen once published. Build the extended projection as a
			// fresh node instead of appending in place.
			cols := make([]algebra.ProjExpr, 0, len(proj.Cols)+len(hiddenCols))
			cols = append(cols, proj.Cols...)
			cols = append(cols, hiddenCols...)
			proj = &algebra.Project{Child: proj.Child, Cols: cols, Distinct: proj.Distinct}
			plan = proj
		}
		plan = &algebra.Order{Child: plan, Keys: orderKeys}
	}
	if sel.Limit >= 0 || sel.Offset > 0 {
		plan = &algebra.Limit{Child: plan, N: sel.Limit, Offset: sel.Offset}
	}
	if hidden > 0 {
		if top {
			tr.hidden = hidden
		} else {
			// Nested block: strip the hidden key columns above the sort and
			// limit, restoring the block's visible schema.
			visible := plan.Schema().Attrs[:len(proj.Cols)-hidden]
			strip := make([]algebra.ProjExpr, len(visible))
			for i, a := range visible {
				strip[i] = algebra.KeepAttr(a)
			}
			plan = algebra.NewProject(plan, strip...)
		}
	}
	return plan, nil
}

// normalizeRefs rewrites attribute references that resolve uniquely in sch
// to positional spellings ("#N" cannot collide with lexed identifiers), so
// differently-qualified spellings of one column compare structurally equal.
// Unresolvable or ambiguous references — e.g. correlated ones — are left
// as written.
func normalizeRefs(e algebra.Expr, sch schema.Schema) algebra.Expr {
	return algebra.MapExpr(e, func(x algebra.Expr) algebra.Expr {
		if ref, ok := x.(algebra.AttrRef); ok {
			if idx, amb := sch.Lookup(ref.Qual, ref.Name); idx >= 0 && !amb {
				return algebra.Attr(fmt.Sprintf("#%d", idx))
			}
		}
		return x
	})
}

// keyResolves reports whether a sort-key expression can be evaluated over
// sch: every attribute reference — including the free (correlated)
// references escaping any sublink queries — resolves there uniquely.
func keyResolves(e algebra.Expr, sch schema.Schema) bool {
	ok := true
	check := func(ref algebra.AttrRef) {
		if idx, amb := sch.Lookup(ref.Qual, ref.Name); idx < 0 || amb {
			ok = false
		}
	}
	algebra.WalkExpr(e, func(x algebra.Expr) bool {
		switch v := x.(type) {
		case algebra.AttrRef:
			check(v)
		case algebra.Sublink:
			for _, fv := range algebra.FreeVars(v.Query) {
				check(fv)
			}
			if v.Test != nil {
				algebra.WalkExpr(v.Test, func(y algebra.Expr) bool {
					if r, isRef := y.(algebra.AttrRef); isRef {
						check(r)
					}
					return ok
				})
			}
			return false
		}
		return ok
	})
	return ok
}

// pushGroupSublinks rewrites grouping expressions containing sublinks into
// references to a pre-aggregation projection that computes them, passing
// every input attribute through.
func (tr *translator) pushGroupSublinks(plan algebra.Op, groups []algebra.GroupExpr) (algebra.Op, []algebra.GroupExpr, error) {
	any := false
	for _, g := range groups {
		if algebra.HasSublink(g.E) {
			any = true
			break
		}
	}
	if !any {
		return plan, groups, nil
	}
	cols := make([]algebra.ProjExpr, 0, plan.Schema().Len()+len(groups))
	for _, a := range plan.Schema().Attrs {
		cols = append(cols, algebra.KeepAttr(a))
	}
	out := make([]algebra.GroupExpr, len(groups))
	for i, g := range groups {
		if !algebra.HasSublink(g.E) {
			out[i] = g
			continue
		}
		name := tr.freshName("gsub")
		cols = append(cols, algebra.Col(g.E, name))
		out[i] = algebra.GroupExpr{E: algebra.Attr(name), As: g.As, Qual: g.Qual}
	}
	return algebra.NewProject(plan, cols...), out, nil
}

// outputName derives the projected column name of select-list item i: its
// alias, a plain identifier's own name, or the positional fallback colN.
// The analyzer (ordinal resolution, output-alias typing) and the translator
// (projection naming) share this single definition so the two can never
// disagree about what an output column is called.
func outputName(c SelectCol, i int) string {
	if c.Alias != "" {
		return c.Alias
	}
	if id, ok := c.E.(Ident); ok {
		return id.Name
	}
	return fmt.Sprintf("col%d", i+1)
}

// aliasKeys maps ORDER BY references that name an output column's source
// expression onto the output attribute, so sorting happens over the
// projected schema.
func aliasKeys(e algebra.Expr, cols []algebra.ProjExpr) algebra.Expr {
	return algebra.MapExpr(e, func(x algebra.Expr) algebra.Expr {
		for _, c := range cols {
			if algebra.ExprEqual(x, c.E) {
				return algebra.Attr(c.As)
			}
		}
		return x
	})
}

func (tr *translator) fromItem(ref TableRef) (algebra.Op, error) {
	switch {
	case ref.Join != nil:
		l, err := tr.fromItem(ref.Join.Left)
		if err != nil {
			return nil, err
		}
		r, err := tr.fromItem(ref.Join.Right)
		if err != nil {
			return nil, err
		}
		on, err := tr.expr(ref.Join.On, nil)
		if err != nil {
			return nil, err
		}
		if ref.Join.LeftOuter {
			return &algebra.LeftJoin{L: l, R: r, Cond: on}, nil
		}
		return &algebra.Join{L: l, R: r, Cond: on}, nil
	case ref.Sub != nil:
		sub, err := tr.stmt(ref.Sub, false)
		if err != nil {
			return nil, err
		}
		cols := make([]algebra.ProjExpr, sub.Schema().Len())
		for i, a := range sub.Schema().Attrs {
			cols[i] = algebra.ProjExpr{E: algebra.QAttr(a.Qual, a.Name), As: a.Name, Qual: ref.Alias}
		}
		return algebra.NewProject(sub, cols...), nil
	default:
		if !slices.Contains(tr.relations, ref.Table) {
			tr.relations = append(tr.relations, ref.Table)
		}
		if def := tr.views.Get(ref.Table); def != nil {
			return tr.expandView(def, ref.Alias)
		}
		sch, err := tr.cat.Schema(ref.Table)
		if err != nil {
			return nil, err
		}
		return algebra.NewScan(ref.Table, ref.Alias, sch), nil
	}
}

// aggCollector gathers aggregate calls during expression translation,
// deduplicating structurally identical calls.
type aggCollector struct {
	tr        *translator
	collected []algebra.AggExpr
}

func (c *aggCollector) add(fn algebra.AggFn, arg algebra.Expr, distinct bool) string {
	for _, a := range c.collected {
		if a.Fn == fn && a.Distinct == distinct && algebra.ExprEqual(a.Arg, arg) {
			return a.As
		}
	}
	name := c.tr.freshName("agg")
	c.collected = append(c.collected, algebra.AggExpr{Fn: fn, Arg: arg, As: name, Distinct: distinct})
	return name
}

// aggFns maps SQL aggregate names.
var aggFns = map[string]algebra.AggFn{
	"sum": algebra.AggSum, "count": algebra.AggCount, "avg": algebra.AggAvg,
	"min": algebra.AggMin, "max": algebra.AggMax,
}

// cmpFromString maps operator spellings.
func cmpFromString(op string) (types.CmpOp, bool) {
	switch op {
	case "=":
		return types.CmpEq, true
	case "<>":
		return types.CmpNe, true
	case "<":
		return types.CmpLt, true
	case "<=":
		return types.CmpLe, true
	case ">":
		return types.CmpGt, true
	case ">=":
		return types.CmpGe, true
	default:
		return types.CmpEq, false
	}
}

// expr lowers a surface expression. aggs is non-nil in clauses where
// aggregate calls are allowed (SELECT list, HAVING, ORDER BY).
func (tr *translator) expr(e Expr, aggs *aggCollector) (algebra.Expr, error) {
	switch x := e.(type) {
	case Ident:
		return algebra.AttrRef{Qual: x.Qual, Name: x.Name}, nil
	case NumLit:
		if x.IsFlt {
			return algebra.FloatConst(x.Float), nil
		}
		return algebra.IntConst(x.Int), nil
	case StrLit:
		return algebra.StrConst(x.S), nil
	case ParamLit:
		return algebra.Param{Idx: x.Idx}, nil
	case BoolLit:
		return algebra.BoolConst(x.B), nil
	case NullLit:
		return algebra.NullConst(), nil
	case Binary:
		if x.Op == "||" {
			l, err := tr.expr(x.L, aggs)
			if err != nil {
				return nil, err
			}
			r, err := tr.expr(x.R, aggs)
			if err != nil {
				return nil, err
			}
			return algebra.Func{Name: "concat", Args: []algebra.Expr{l, r}}, nil
		}
		switch x.Op {
		case "AND", "OR":
			l, err := tr.expr(x.L, aggs)
			if err != nil {
				return nil, err
			}
			r, err := tr.expr(x.R, aggs)
			if err != nil {
				return nil, err
			}
			if x.Op == "AND" {
				return algebra.And{L: l, R: r}, nil
			}
			return algebra.Or{L: l, R: r}, nil
		}
		if op, ok := cmpFromString(x.Op); ok {
			l, err := tr.expr(x.L, aggs)
			if err != nil {
				return nil, err
			}
			r, err := tr.expr(x.R, aggs)
			if err != nil {
				return nil, err
			}
			return algebra.Cmp{Op: op, L: l, R: r}, nil
		}
		var aop types.ArithOp
		switch x.Op {
		case "+":
			aop = types.OpAdd
		case "-":
			aop = types.OpSub
		case "*":
			aop = types.OpMul
		case "/":
			aop = types.OpDiv
		case "%":
			aop = types.OpMod
		default:
			return nil, fmt.Errorf("sql: unknown operator %q", x.Op)
		}
		l, err := tr.expr(x.L, aggs)
		if err != nil {
			return nil, err
		}
		r, err := tr.expr(x.R, aggs)
		if err != nil {
			return nil, err
		}
		return algebra.Arith{Op: aop, L: l, R: r}, nil
	case Unary:
		inner, err := tr.expr(x.E, aggs)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "NOT":
			return algebra.Not{E: inner}, nil
		case "-":
			return algebra.Arith{Op: types.OpSub, L: algebra.IntConst(0), R: inner}, nil
		default:
			return nil, fmt.Errorf("sql: unknown unary operator %q", x.Op)
		}
	case IsNull:
		inner, err := tr.expr(x.E, aggs)
		if err != nil {
			return nil, err
		}
		var out algebra.Expr = algebra.IsNull{E: inner}
		if x.Not {
			out = algebra.Not{E: out}
		}
		return out, nil
	case InList:
		test, err := tr.expr(x.E, aggs)
		if err != nil {
			return nil, err
		}
		var out algebra.Expr
		for _, item := range x.List {
			it, err := tr.expr(item, aggs)
			if err != nil {
				return nil, err
			}
			eq := algebra.Cmp{Op: types.CmpEq, L: test, R: it}
			if out == nil {
				out = eq
			} else {
				out = algebra.Or{L: out, R: eq}
			}
		}
		if out == nil {
			out = algebra.BoolConst(false)
		}
		if x.Not {
			out = algebra.Not{E: out}
		}
		return out, nil
	case InSub:
		test, err := tr.expr(x.E, aggs)
		if err != nil {
			return nil, err
		}
		sub, err := tr.subquery(x.Sub)
		if err != nil {
			return nil, err
		}
		if sub.Schema().Len() != 1 {
			return nil, fmt.Errorf("sql: IN subquery must produce one column, got %d", sub.Schema().Len())
		}
		var out algebra.Expr = algebra.Sublink{Kind: algebra.AnySublink, Op: types.CmpEq, Test: test, Query: sub}
		if x.Not {
			out = algebra.Not{E: out}
		}
		return out, nil
	case Quant:
		op, ok := cmpFromString(x.Op)
		if !ok {
			return nil, fmt.Errorf("sql: invalid quantified comparison operator %q", x.Op)
		}
		test, err := tr.expr(x.E, aggs)
		if err != nil {
			return nil, err
		}
		sub, err := tr.subquery(x.Sub)
		if err != nil {
			return nil, err
		}
		if sub.Schema().Len() != 1 {
			return nil, fmt.Errorf("sql: quantified subquery must produce one column, got %d", sub.Schema().Len())
		}
		kind := algebra.AllSublink
		if x.Any {
			kind = algebra.AnySublink
		}
		return algebra.Sublink{Kind: kind, Op: op, Test: test, Query: sub}, nil
	case Exists:
		sub, err := tr.subquery(x.Sub)
		if err != nil {
			return nil, err
		}
		var out algebra.Expr = algebra.Sublink{Kind: algebra.ExistsSublink, Query: sub}
		if x.Not {
			out = algebra.Not{E: out}
		}
		return out, nil
	case ScalarSub:
		sub, err := tr.subquery(x.Sub)
		if err != nil {
			return nil, err
		}
		if sub.Schema().Len() != 1 {
			return nil, fmt.Errorf("sql: scalar subquery must produce one column, got %d", sub.Schema().Len())
		}
		return algebra.Sublink{Kind: algebra.ScalarSublink, Query: sub}, nil
	case Between:
		v, err := tr.expr(x.E, aggs)
		if err != nil {
			return nil, err
		}
		lo, err := tr.expr(x.Lo, aggs)
		if err != nil {
			return nil, err
		}
		hi, err := tr.expr(x.Hi, aggs)
		if err != nil {
			return nil, err
		}
		var out algebra.Expr = algebra.And{
			L: algebra.Cmp{Op: types.CmpGe, L: v, R: lo},
			R: algebra.Cmp{Op: types.CmpLe, L: v, R: hi},
		}
		if x.Not {
			out = algebra.Not{E: out}
		}
		return out, nil
	case Case:
		// The simple form CASE x WHEN v THEN r … compares the operand to
		// each WHEN expression with =; both forms lower to the searched
		// algebra Case.
		var operand algebra.Expr
		if x.Operand != nil {
			op, err := tr.expr(x.Operand, aggs)
			if err != nil {
				return nil, err
			}
			operand = op
		}
		whens := make([]algebra.CaseWhen, len(x.Whens))
		for i, w := range x.Whens {
			cond, err := tr.expr(w.Cond, aggs)
			if err != nil {
				return nil, err
			}
			if operand != nil {
				cond = algebra.Cmp{Op: types.CmpEq, L: operand, R: cond}
			}
			result, err := tr.expr(w.Result, aggs)
			if err != nil {
				return nil, err
			}
			whens[i] = algebra.CaseWhen{When: cond, Then: result}
		}
		var els algebra.Expr
		if x.Else != nil {
			e, err := tr.expr(x.Else, aggs)
			if err != nil {
				return nil, err
			}
			els = e
		}
		return algebra.Case{Whens: whens, Else: els}, nil
	case Like:
		e, err := tr.expr(x.E, aggs)
		if err != nil {
			return nil, err
		}
		pat, err := tr.expr(x.Pattern, aggs)
		if err != nil {
			return nil, err
		}
		var out algebra.Expr = algebra.Func{Name: "like", Args: []algebra.Expr{e, pat}}
		if x.Not {
			out = algebra.Not{E: out}
		}
		return out, nil
	case CastExpr:
		to, ok := algebra.ParseCastType(x.Type)
		if !ok {
			return nil, fmt.Errorf("sql: type %q does not exist", x.Type)
		}
		e, err := tr.expr(x.E, aggs)
		if err != nil {
			return nil, err
		}
		return algebra.Cast{E: e, To: to}, nil
	case Call:
		if def, ok := algebra.LookupFunc(x.Name); ok {
			if x.Star || x.Distinct {
				return nil, fmt.Errorf("sql: %s is not an aggregate function", x.Name)
			}
			if len(x.Args) < def.MinArgs || len(x.Args) > def.MaxArgs {
				return nil, fmt.Errorf("sql: %s takes %d to %d arguments, got %d", x.Name, def.MinArgs, def.MaxArgs, len(x.Args))
			}
			args := make([]algebra.Expr, len(x.Args))
			for i, a := range x.Args {
				arg, err := tr.expr(a, aggs)
				if err != nil {
					return nil, err
				}
				args[i] = arg
			}
			return algebra.Func{Name: x.Name, Args: args}, nil
		}
		fn, ok := aggFns[x.Name]
		if !ok {
			return nil, fmt.Errorf("sql: unknown function %q", x.Name)
		}
		if aggs == nil {
			return nil, fmt.Errorf("sql: aggregate %s not allowed in this clause", x.Name)
		}
		if x.Star {
			if fn != algebra.AggCount {
				return nil, fmt.Errorf("sql: %s(*) is not valid", x.Name)
			}
			return algebra.Attr(aggs.add(algebra.AggCountStar, nil, false)), nil
		}
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("sql: %s takes exactly one argument", x.Name)
		}
		arg, err := tr.expr(x.Args[0], nil)
		if err != nil {
			return nil, err
		}
		return algebra.Attr(aggs.add(fn, arg, x.Distinct)), nil
	default:
		return nil, fmt.Errorf("sql: unsupported expression %T", e)
	}
}
