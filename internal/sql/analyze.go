package sql

// The semantic analyzer: a typed name-resolution pass that runs between
// parsing and translation. It
//
//   - resolves column references against the FROM scopes (walking enclosing
//     scopes for correlated references) and reports unknown or ambiguous
//     names with their source position and user-visible spelling — never
//     with internal attribute names;
//   - resolves ORDER BY and GROUP BY ordinals against the select list,
//     replacing them with the referenced output column and erroring on
//     out-of-range positions, as PostgreSQL does ("ORDER BY position 5 is
//     not in select list");
//   - type-checks every expression bottom-up over types.Kind: cross-kind
//     comparisons (string vs. number), non-boolean conditions, non-numeric
//     arithmetic and ill-typed function calls are errors at analysis time
//     instead of silent three-valued Unknowns at run time;
//   - resolves function calls against the scalar function registry
//     (algebra.LookupFunc) and the aggregate set, enforcing clause
//     placement rules (no aggregates in WHERE, no nested aggregates) and
//     SQL's grouping rule (an output column of a grouped query must be a
//     grouping column or sit inside an aggregate).
//
// Base-table column kinds are inferred from the catalog data
// (catalog.Kinds); a column whose kind cannot be inferred — all NULL — is
// "unknown" and every operation over it is admitted and decided at run
// time. The analyzer mutates the statement only by substituting ordinals.

import (
	"fmt"
	"strings"

	"perm/internal/algebra"
	"perm/internal/types"
)

// Analyze runs semantic analysis over a parsed statement against an
// environment. On success the statement's GROUP BY / ORDER BY ordinals have
// been substituted with the select-list expressions they reference, and the
// statement is known to name-resolve and type-check; translation after a
// successful analysis only fails on constraints the analyzer leaves to the
// translator (e.g. subquery column counts).
//
// View bodies referenced by the statement are analyzed too, which
// substitutes any ordinals they contain in place — a write to the shared
// ViewDef AST. That write happens exactly once, at CREATE VIEW time: the DB
// layer compiles a probe query over every new view before publishing it, so
// by the time concurrent queries can see a view its body is
// ordinal-free and analysis of it is read-only.
func Analyze(env Env, stmt *Stmt) error {
	a := &analyzer{env: env, viewCols: map[string][]typedCol{}}
	_, err := a.stmt(stmt, nil)
	return err
}

// typedCol is one output column of an analyzed query block.
type typedCol struct {
	name string
	kind types.Kind // types.KindNull means "unknown"
}

// arel is one FROM item visible in a scope.
type arel struct {
	alias string
	cols  []typedCol
}

// colID identifies a column within one scope.
type colID struct{ rel, col int }

// ascope is the name environment of one query block, linked to the
// enclosing block for correlated references. While the output clauses of a
// grouped block are being checked, enforceGroups is set and resolutions
// landing here must name grouping columns (unless inside an aggregate).
type ascope struct {
	outer         *ascope
	rels          []arel
	enforceGroups bool
	groupCols     map[colID]bool
	groupExprs    []Expr
	groupKinds    []types.Kind
}

type analyzer struct {
	env       Env
	viewStack []string
	viewCols  map[string][]typedCol
}

// exprCtx carries the clause context during expression typing.
type exprCtx struct {
	sc     *ascope
	block  *ascope // the scope of the block whose clause is being typed
	clause string  // for aggregate placement errors: "WHERE", "JOIN conditions", …
	aggOK  bool    // aggregate calls allowed here
	inAgg  bool    // currently typing an aggregate argument (nested-agg detection)
}

// errAt formats an analyzer error, prefixing the source position when known.
func errAt(pos int, format string, args ...any) error {
	if pos > 0 {
		return fmt.Errorf("sql: position %d: %s", pos, fmt.Sprintf(format, args...))
	}
	return fmt.Errorf("sql: %s", fmt.Sprintf(format, args...))
}

// comparable reports whether two kinds can meet in a comparison: unknowns
// compare with anything, numerics with numerics, otherwise kinds must match.
func comparableKinds(a, b types.Kind) bool {
	if a == types.KindNull || b == types.KindNull || a == b {
		return true
	}
	numeric := func(k types.Kind) bool { return k == types.KindInt || k == types.KindFloat }
	return numeric(a) && numeric(b)
}

func isNumericKind(k types.Kind) bool {
	return k == types.KindNull || k == types.KindInt || k == types.KindFloat
}

func isStringKind(k types.Kind) bool {
	return k == types.KindNull || k == types.KindString
}

func isBoolKind(k types.Kind) bool {
	return k == types.KindNull || k == types.KindBool
}

// stmt analyzes a statement (select plus optional set-operation chain) and
// returns its output columns.
func (a *analyzer) stmt(st *Stmt, outer *ascope) ([]typedCol, error) {
	left, err := a.selectStmt(st.Left, outer)
	if err != nil {
		return nil, err
	}
	if st.SetOp == nil {
		return left, nil
	}
	right, err := a.stmt(st.SetOp.Right, outer)
	if err != nil {
		return nil, err
	}
	if len(left) != len(right) {
		return nil, fmt.Errorf("sql: %s of %d and %d columns", st.SetOp.Kind, len(left), len(right))
	}
	out := make([]typedCol, len(left))
	for i := range left {
		k, err := unifyKinds(left[i].kind, right[i].kind)
		if err != nil {
			return nil, fmt.Errorf("sql: %s types %s and %s cannot be matched",
				st.SetOp.Kind, left[i].kind, right[i].kind)
		}
		out[i] = typedCol{name: left[i].name, kind: k}
	}
	return out, nil
}

// unifyKinds merges the kinds of two expressions feeding one result column
// (set-operation arms, CASE branches).
func unifyKinds(l, r types.Kind) (types.Kind, error) {
	switch {
	case l == types.KindNull:
		return r, nil
	case r == types.KindNull || l == r:
		return l, nil
	case isNumericKind(l) && isNumericKind(r):
		return types.KindFloat, nil
	default:
		return types.KindNull, fmt.Errorf("kinds %s and %s do not unify", l, r)
	}
}

// selectStmt analyzes one SELECT block and returns its output columns.
func (a *analyzer) selectStmt(sel *SelectStmt, outer *ascope) ([]typedCol, error) {
	sc := &ascope{outer: outer}
	for _, ref := range sel.From {
		rels, err := a.fromRef(ref, outer)
		if err != nil {
			return nil, err
		}
		sc.rels = append(sc.rels, rels...)
	}

	// GROUP BY: substitute ordinals, reject aggregates.
	for i, g := range sel.GroupBy {
		if lit, val, ok := ordinalLit(g); ok {
			if sel.Star {
				return nil, fmt.Errorf("sql: SELECT * cannot be combined with GROUP BY")
			}
			if lit.IsFlt {
				return nil, errAt(lit.Pos, "non-integer constant in GROUP BY")
			}
			if val < 1 || val > int64(len(sel.Cols)) {
				return nil, errAt(lit.Pos, "GROUP BY position %d is not in select list", val)
			}
			sel.GroupBy[i] = deOrdinal(sel.Cols[val-1].E)
		}
		if hasAggCall(sel.GroupBy[i]) {
			return nil, fmt.Errorf("sql: aggregate functions are not allowed in GROUP BY")
		}
	}

	// WHERE: boolean condition, no aggregates.
	if sel.Where != nil {
		if err := a.typeCond(sel.Where, exprCtx{sc: sc, block: sc, clause: "WHERE"}, "WHERE"); err != nil {
			return nil, err
		}
	}

	// GROUP BY expressions type-check against the pre-aggregation scope.
	groupCols := map[colID]bool{}
	groupKinds := make([]types.Kind, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		k, err := a.typeExpr(g, exprCtx{sc: sc, block: sc, clause: "GROUP BY"})
		if err != nil {
			return nil, err
		}
		groupKinds[i] = k
		if id, ok := g.(Ident); ok {
			if hit, n := sc.lookup(id); n == 1 {
				groupCols[hit] = true
			}
		}
	}

	// The block is grouped if it has grouping columns or any aggregate call
	// in its output clauses; from here on, output expressions must be built
	// from grouping columns and aggregates.
	grouped := len(sel.GroupBy) > 0
	if !grouped {
		for _, c := range sel.Cols {
			grouped = grouped || hasAggCall(c.E)
		}
		if sel.Having != nil {
			grouped = grouped || hasAggCall(sel.Having)
		}
		for _, k := range sel.OrderBy {
			grouped = grouped || hasAggCall(k.E)
		}
	}
	if grouped {
		sc.enforceGroups = true
		sc.groupCols = groupCols
		sc.groupExprs = sel.GroupBy
		sc.groupKinds = groupKinds
	}

	// Output columns.
	var out []typedCol
	if sel.Star {
		for _, r := range sc.rels {
			out = append(out, r.cols...)
		}
		if len(sel.From) == 0 {
			return nil, fmt.Errorf("sql: SELECT * with no tables specified is not valid")
		}
	} else {
		for i, c := range sel.Cols {
			k, err := a.typeExpr(c.E, exprCtx{sc: sc, block: sc, clause: "the select list", aggOK: true})
			if err != nil {
				return nil, err
			}
			out = append(out, typedCol{name: outputName(c, i), kind: k})
		}
	}

	if sel.Having != nil {
		if err := a.typeCond(sel.Having, exprCtx{sc: sc, block: sc, clause: "HAVING", aggOK: true}, "HAVING"); err != nil {
			return nil, err
		}
	}

	// ORDER BY: substitute ordinals against the select list, then type the
	// keys. Keys resolve bare names against the output columns first (SQL's
	// output-alias rule), then against the block's scopes — modelled as a
	// synthetic innermost scope holding the output columns, which also gives
	// sublinks inside keys the output names the executor resolves for them.
	// Output columns that share a name but denote the same expression
	// (SELECT a, a FROM r, or SELECT a, r.a) collapse to one entry: a bare
	// ORDER BY reference to that name is unambiguous, as in PostgreSQL.
	// Different expressions under one name stay distinct, so referencing
	// the name is the ambiguity error PostgreSQL raises too.
	ordCols := out
	if !sel.Star {
		sameCol := func(x, y Ident) bool {
			xsc, xid, xn := resolveChain(sc, x)
			ysc, yid, yn := resolveChain(sc, y)
			return xn == 1 && yn == 1 && xsc == ysc && xid == yid
		}
		ordCols = make([]typedCol, 0, len(out))
		first := map[string]int{} // output name → select-list index of first bearer
		for i, c := range out {
			if j, dup := first[c.name]; dup {
				if astExprEqualFn(sel.Cols[i].E, sel.Cols[j].E, sameCol) {
					continue
				}
			} else {
				first[c.name] = i
			}
			ordCols = append(ordCols, c)
		}
	}
	scOrd := &ascope{outer: sc, rels: []arel{{cols: ordCols}}}
	for i, key := range sel.OrderBy {
		if lit, val, ok := ordinalLit(key.E); ok {
			if lit.IsFlt {
				return nil, errAt(lit.Pos, "non-integer constant in ORDER BY")
			}
			if val < 1 || val > int64(len(out)) {
				return nil, errAt(lit.Pos, "ORDER BY position %d is not in select list", val)
			}
			sub, retype := a.ordinalKey(sel, sc, int(val), lit.Pos)
			sel.OrderBy[i].E = sub
			if !retype {
				// The substitute positionally names out[pos-1] or is the
				// already-typed select-list expression; re-resolving it by
				// name could spuriously reject duplicate output names
				// (SELECT a, a FROM r ORDER BY 1), which are no ambiguity
				// for an ordinal.
				continue
			}
		}
		ctx := exprCtx{sc: scOrd, block: sc, clause: "ORDER BY", aggOK: true}
		if _, err := a.typeExpr(sel.OrderBy[i].E, ctx); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ordinalKey builds the substitute expression for an ORDER BY ordinal and
// reports whether it still needs typing. The substitute is the output
// column's alias where that is positionally sound — the alias is unique AND
// shadows no source column, so the translator cannot re-resolve it to a
// different column — the select-list expression otherwise, and for SELECT *
// the qualified source column (typed afterwards, so a star over duplicate
// unaliased tables fails at analysis with the user-facing ambiguity error
// rather than leaking internal names at run time).
func (a *analyzer) ordinalKey(sel *SelectStmt, sc *ascope, pos, litPos int) (Expr, bool) {
	if sel.Star {
		n := 0
		for _, r := range sc.rels {
			for _, c := range r.cols {
				n++
				if n == pos {
					return Ident{Qual: r.alias, Name: c.name, Pos: litPos}, true
				}
			}
		}
		// Unreachable: pos was range-checked against the output width.
	}
	col := sel.Cols[pos-1]
	if col.Alias != "" {
		dup := 0
		for _, c := range sel.Cols {
			if c.Alias == col.Alias {
				dup++
			}
		}
		if _, n := sc.lookup(Ident{Name: col.Alias}); dup == 1 && n == 0 {
			return Ident{Name: col.Alias, Pos: litPos}, false
		}
	}
	if id, ok := col.E.(Ident); ok {
		// Sorting by the source column is sorting by this output position.
		// A bare unqualified name is only positionally sound when it names
		// exactly this output column (the translator resolves bare ORDER BY
		// names against the output schema first); otherwise — the name is
		// duplicated, or another column's alias shadows it — qualify the
		// source column so the engine's hidden-key machinery sorts by it.
		// Known divergence: the qualified form under SELECT DISTINCT is a
		// loud hidden-key error where PostgreSQL sorts — never wrong order.
		if id.Qual != "" {
			return id, false
		}
		count, self := 0, false
		for j, c := range sel.Cols {
			if outputName(c, j) == id.Name {
				count++
				self = self || j == pos-1
			}
		}
		if count == 1 && self {
			return id, false
		}
		if scope, hit, n := resolveChain(sc, id); n == 1 && scope == sc {
			return Ident{Qual: sc.rels[hit.rel].alias, Name: id.Name, Pos: litPos}, false
		}
		return id, false
	}
	return deOrdinal(col.E), false
}

// ordinalLit recognizes a bare — possibly negated — numeric literal used as
// an ORDER BY or GROUP BY key, with its signed value. PostgreSQL folds the
// unary minus into the constant, so ORDER BY -1 errors as "position -1"
// rather than silently sorting by a constant.
func ordinalLit(e Expr) (lit NumLit, val int64, ok bool) {
	switch x := e.(type) {
	case NumLit:
		return x, x.Int, true
	case Unary:
		if x.Op == "-" {
			if l, isLit := x.E.(NumLit); isLit {
				return l, -l.Int, true
			}
		}
	}
	return NumLit{}, 0, false
}

// deOrdinal guards ordinal substitution against re-interpretation: if the
// select-list expression an ordinal resolves to is itself a bare (possibly
// negated) numeric literal (SELECT a, 5 FROM r ORDER BY 2), substituting it
// verbatim would leave a literal sort/group key that the NEXT analysis of
// the same AST — a view body is analyzed on every referencing query — would
// read as a new ordinal. Wrapping the literal in a semantically-identity
// CAST keeps the value and kind while making the substitution idempotent.
func deOrdinal(e Expr) Expr {
	lit, _, ok := ordinalLit(e)
	if !ok {
		return e
	}
	typ := "integer"
	if lit.IsFlt {
		typ = "float"
	}
	return CastExpr{E: e, Type: typ, Pos: lit.Pos}
}

// fromRef analyzes one FROM item into scope entries.
func (a *analyzer) fromRef(ref TableRef, outer *ascope) ([]arel, error) {
	switch {
	case ref.Join != nil:
		l, err := a.fromRef(ref.Join.Left, outer)
		if err != nil {
			return nil, err
		}
		r, err := a.fromRef(ref.Join.Right, outer)
		if err != nil {
			return nil, err
		}
		rels := append(l, r...)
		// The ON condition sees the join's own relations plus the block's
		// enclosing scopes — not sibling FROM items.
		joinSc := &ascope{outer: outer, rels: rels}
		ctx := exprCtx{sc: joinSc, block: joinSc, clause: "JOIN conditions"}
		if err := a.typeCond(ref.Join.On, ctx, "JOIN/ON"); err != nil {
			return nil, err
		}
		return rels, nil
	case ref.Sub != nil:
		cols, err := a.stmt(ref.Sub, nil) // derived tables cannot correlate
		if err != nil {
			return nil, err
		}
		return []arel{{alias: ref.Alias, cols: cols}}, nil
	default:
		cols, err := a.tableCols(ref.Table)
		if err != nil {
			return nil, err
		}
		alias := ref.Alias
		if alias == "" {
			alias = ref.Table
		}
		return []arel{{alias: alias, cols: cols}}, nil
	}
}

// tableCols returns the typed columns of a base table or view.
func (a *analyzer) tableCols(name string) ([]typedCol, error) {
	if def := a.env.Views.Get(name); def != nil {
		if cols, done := a.viewCols[name]; done {
			return cols, nil
		}
		for _, n := range a.viewStack {
			if n == name {
				return nil, fmt.Errorf("sql: cyclic view definition involving %q", name)
			}
		}
		a.viewStack = append(a.viewStack, name)
		cols, err := a.stmt(def.Body, nil)
		a.viewStack = a.viewStack[:len(a.viewStack)-1]
		if err != nil {
			return nil, fmt.Errorf("sql: expanding view %q: %w", name, err)
		}
		a.viewCols[name] = cols
		return cols, nil
	}
	sch, err := a.env.Catalog.Schema(name)
	if err != nil {
		return nil, err
	}
	kinds, err := a.env.Catalog.Kinds(name)
	if err != nil {
		return nil, err
	}
	cols := make([]typedCol, sch.Len())
	for i, attr := range sch.Attrs {
		cols[i] = typedCol{name: attr.Name, kind: kinds[i]}
	}
	return cols, nil
}

// lookup locates an identifier within this single scope, returning the
// match count (0: resolve outward; 1: found; >1: ambiguous) and, for a
// unique match, its column identity.
func (sc *ascope) lookup(id Ident) (colID, int) {
	found, n := colID{}, 0
	for ri, r := range sc.rels {
		if id.Qual != "" && id.Qual != r.alias {
			continue
		}
		for ci, c := range r.cols {
			if c.name == id.Name {
				found = colID{rel: ri, col: ci}
				n++
			}
		}
	}
	return found, n
}

// spelled renders an identifier the way the user wrote it.
func spelled(id Ident) string {
	if id.Qual != "" {
		return id.Qual + "." + id.Name
	}
	return id.Name
}

// resolve finds an identifier in the scope chain, innermost first, applying
// the grouping rule of any scope it lands in.
func (a *analyzer) resolve(id Ident, ctx exprCtx) (types.Kind, error) {
	for sc := ctx.sc; sc != nil; sc = sc.outer {
		hit, n := sc.lookup(id)
		if n == 0 {
			continue
		}
		if n > 1 {
			return types.KindNull, errAt(id.Pos, "column reference %q is ambiguous", spelled(id))
		}
		if sc.enforceGroups && !sc.groupCols[hit] {
			return types.KindNull, errAt(id.Pos,
				"column %q must appear in the GROUP BY clause or be used in an aggregate function", spelled(id))
		}
		return sc.rels[hit.rel].cols[hit.col].kind, nil
	}
	return types.KindNull, errAt(id.Pos, "column %q does not exist", spelled(id))
}

// exprMatchesGroup compares a candidate expression against one grouping
// expression of the grouped scope target: structural equality with
// identifiers compared by resolution — the candidate's identifiers resolve
// from the current chain, the grouping expression's from the grouped block
// — so qualified and unqualified spellings of one column match, and a
// shadowed inner column never matches an outer grouping column.
func (a *analyzer) exprMatchesGroup(e, g Expr, ctx exprCtx, target *ascope) bool {
	return astExprEqualFn(e, g, func(x, y Ident) bool {
		xsc, xid, xn := resolveChain(ctx.sc, x)
		ysc, yid, yn := resolveChain(target, y)
		return xn == 1 && yn == 1 && xsc == ysc && xid == yid
	})
}

// resolveChain walks a scope chain for an identifier, returning the first
// scope with any match, the column for a unique match, and the match count.
func resolveChain(start *ascope, id Ident) (*ascope, colID, int) {
	for sc := start; sc != nil; sc = sc.outer {
		if hit, n := sc.lookup(id); n > 0 {
			return sc, hit, n
		}
	}
	return nil, colID{}, 0
}

// typeCond types a clause condition and requires a boolean (or unknown)
// result.
func (a *analyzer) typeCond(e Expr, ctx exprCtx, clause string) error {
	k, err := a.typeExpr(e, ctx)
	if err != nil {
		return err
	}
	if !isBoolKind(k) {
		return fmt.Errorf("sql: argument of %s must be type boolean, not type %s", clause, k)
	}
	return nil
}

// typeExpr types an expression bottom-up, resolving names and functions and
// rejecting kind mismatches. The returned kind is types.KindNull when it
// cannot be determined statically.
func (a *analyzer) typeExpr(e Expr, ctx exprCtx) (types.Kind, error) {
	// A non-identifier expression equal to a grouping expression of an
	// enclosing grouped scope is that grouping column — admitted as a
	// whole, not descended into (SELECT a+1 FROM r GROUP BY a+1). The
	// comparison resolves identifiers rather than comparing spellings, so
	// GROUP BY r.a+1 matches a select-list a+1 (and vice versa) while an
	// inner-scope column shadowing an outer grouping column does not.
	// Plain identifiers skip the shortcut — resolve applies the grouping
	// rule via the resolved column identity.
	if _, isIdent := e.(Ident); !isIdent {
		for sc := ctx.sc; sc != nil; sc = sc.outer {
			if !sc.enforceGroups {
				continue
			}
			for i, g := range sc.groupExprs {
				if a.exprMatchesGroup(e, g, ctx, sc) {
					return sc.groupKinds[i], nil
				}
			}
		}
	}

	switch x := e.(type) {
	case Ident:
		return a.resolve(x, ctx)
	case NumLit:
		if x.IsFlt {
			return types.KindFloat, nil
		}
		return types.KindInt, nil
	case StrLit:
		return types.KindString, nil
	case ParamLit:
		return x.Kind, nil
	case BoolLit:
		return types.KindBool, nil
	case NullLit:
		return types.KindNull, nil
	case Binary:
		return a.typeBinary(x, ctx)
	case Unary:
		k, err := a.typeExpr(x.E, ctx)
		if err != nil {
			return types.KindNull, err
		}
		switch x.Op {
		case "NOT":
			if !isBoolKind(k) {
				return types.KindNull, fmt.Errorf("sql: argument of NOT must be type boolean, not type %s", k)
			}
			return types.KindBool, nil
		case "-":
			if !isNumericKind(k) {
				return types.KindNull, fmt.Errorf("sql: operator does not exist: - %s", k)
			}
			return k, nil
		default:
			return types.KindNull, fmt.Errorf("sql: unknown unary operator %q", x.Op)
		}
	case IsNull:
		if _, err := a.typeExpr(x.E, ctx); err != nil {
			return types.KindNull, err
		}
		return types.KindBool, nil
	case InList:
		k, err := a.typeExpr(x.E, ctx)
		if err != nil {
			return types.KindNull, err
		}
		for _, item := range x.List {
			ik, err := a.typeExpr(item, ctx)
			if err != nil {
				return types.KindNull, err
			}
			if !comparableKinds(k, ik) {
				return types.KindNull, fmt.Errorf("sql: operator does not exist: %s = %s", k, ik)
			}
		}
		return types.KindBool, nil
	case InSub:
		k, err := a.typeExpr(x.E, ctx)
		if err != nil {
			return types.KindNull, err
		}
		cols, err := a.stmt(x.Sub, ctx.sc)
		if err != nil {
			return types.KindNull, err
		}
		if len(cols) == 1 && !comparableKinds(k, cols[0].kind) {
			return types.KindNull, fmt.Errorf("sql: operator does not exist: %s = %s", k, cols[0].kind)
		}
		return types.KindBool, nil
	case Quant:
		k, err := a.typeExpr(x.E, ctx)
		if err != nil {
			return types.KindNull, err
		}
		cols, err := a.stmt(x.Sub, ctx.sc)
		if err != nil {
			return types.KindNull, err
		}
		if len(cols) == 1 && !comparableKinds(k, cols[0].kind) {
			return types.KindNull, fmt.Errorf("sql: operator does not exist: %s %s %s", k, x.Op, cols[0].kind)
		}
		return types.KindBool, nil
	case Exists:
		if _, err := a.stmt(x.Sub, ctx.sc); err != nil {
			return types.KindNull, err
		}
		return types.KindBool, nil
	case ScalarSub:
		cols, err := a.stmt(x.Sub, ctx.sc)
		if err != nil {
			return types.KindNull, err
		}
		if len(cols) == 1 {
			return cols[0].kind, nil
		}
		return types.KindNull, nil // width errors are the translator's
	case Between:
		k, err := a.typeExpr(x.E, ctx)
		if err != nil {
			return types.KindNull, err
		}
		for _, bound := range []Expr{x.Lo, x.Hi} {
			bk, err := a.typeExpr(bound, ctx)
			if err != nil {
				return types.KindNull, err
			}
			if !comparableKinds(k, bk) {
				return types.KindNull, fmt.Errorf("sql: operator does not exist: %s BETWEEN %s", k, bk)
			}
		}
		return types.KindBool, nil
	case Like:
		l, err := a.typeExpr(x.E, ctx)
		if err != nil {
			return types.KindNull, err
		}
		r, err := a.typeExpr(x.Pattern, ctx)
		if err != nil {
			return types.KindNull, err
		}
		if !isStringKind(l) || !isStringKind(r) {
			return types.KindNull, errAt(x.Pos, "operator does not exist: %s LIKE %s", l, r)
		}
		return types.KindBool, nil
	case CastExpr:
		to, ok := algebra.ParseCastType(x.Type)
		if !ok {
			return types.KindNull, errAt(x.Pos, "type %q does not exist", x.Type)
		}
		k, err := a.typeExpr(x.E, ctx)
		if err != nil {
			return types.KindNull, err
		}
		if !types.CanCast(k, to) {
			return types.KindNull, errAt(x.Pos, "cannot cast type %s to %s", k, to)
		}
		return to, nil
	case Case:
		return a.typeCase(x, ctx)
	case Call:
		return a.typeCall(x, ctx)
	default:
		return types.KindNull, fmt.Errorf("sql: unsupported expression %T", e)
	}
}

func (a *analyzer) typeBinary(x Binary, ctx exprCtx) (types.Kind, error) {
	l, err := a.typeExpr(x.L, ctx)
	if err != nil {
		return types.KindNull, err
	}
	r, err := a.typeExpr(x.R, ctx)
	if err != nil {
		return types.KindNull, err
	}
	switch x.Op {
	case "AND", "OR":
		for _, k := range []types.Kind{l, r} {
			if !isBoolKind(k) {
				return types.KindNull, errAt(x.Pos, "argument of %s must be type boolean, not type %s", x.Op, k)
			}
		}
		return types.KindBool, nil
	case "=", "<>", "<", "<=", ">", ">=":
		if !comparableKinds(l, r) {
			return types.KindNull, errAt(x.Pos, "operator does not exist: %s %s %s", l, x.Op, r)
		}
		return types.KindBool, nil
	case "||":
		for _, k := range []types.Kind{l, r} {
			if !isStringKind(k) {
				return types.KindNull, errAt(x.Pos, "operator does not exist: %s || %s", l, r)
			}
		}
		return types.KindString, nil
	case "+", "-", "*", "/", "%":
		if !isNumericKind(l) || !isNumericKind(r) {
			return types.KindNull, errAt(x.Pos, "operator does not exist: %s %s %s", l, x.Op, r)
		}
		if x.Op == "%" && (l == types.KindFloat || r == types.KindFloat) {
			return types.KindNull, errAt(x.Pos, "operator does not exist: %s %% %s", l, r)
		}
		switch {
		case l == types.KindFloat || r == types.KindFloat:
			return types.KindFloat, nil
		case l == types.KindInt && r == types.KindInt:
			return types.KindInt, nil
		default:
			return types.KindNull, nil
		}
	default:
		return types.KindNull, errAt(x.Pos, "unknown operator %q", x.Op)
	}
}

func (a *analyzer) typeCase(x Case, ctx exprCtx) (types.Kind, error) {
	var operandKind types.Kind
	if x.Operand != nil {
		k, err := a.typeExpr(x.Operand, ctx)
		if err != nil {
			return types.KindNull, err
		}
		operandKind = k
	}
	result := types.KindNull
	branches := make([]Expr, 0, len(x.Whens)+1)
	for _, w := range x.Whens {
		ck, err := a.typeExpr(w.Cond, ctx)
		if err != nil {
			return types.KindNull, err
		}
		if x.Operand != nil {
			if !comparableKinds(operandKind, ck) {
				return types.KindNull, fmt.Errorf("sql: operator does not exist: %s = %s", operandKind, ck)
			}
		} else if !isBoolKind(ck) {
			return types.KindNull, fmt.Errorf("sql: argument of CASE WHEN must be type boolean, not type %s", ck)
		}
		branches = append(branches, w.Result)
	}
	if x.Else != nil {
		branches = append(branches, x.Else)
	}
	for _, b := range branches {
		bk, err := a.typeExpr(b, ctx)
		if err != nil {
			return types.KindNull, err
		}
		merged, err := unifyKinds(result, bk)
		if err != nil {
			return types.KindNull, fmt.Errorf("sql: CASE types %s and %s cannot be matched", result, bk)
		}
		result = merged
	}
	return result, nil
}

func (a *analyzer) typeCall(x Call, ctx exprCtx) (types.Kind, error) {
	if def, ok := algebra.LookupFunc(x.Name); ok {
		if x.Star || x.Distinct {
			return types.KindNull, errAt(x.Pos, "%s is not an aggregate function", x.Name)
		}
		kinds := make([]types.Kind, len(x.Args))
		for i, arg := range x.Args {
			k, err := a.typeExpr(arg, ctx)
			if err != nil {
				return types.KindNull, err
			}
			kinds[i] = k
		}
		if len(x.Args) < def.MinArgs || len(x.Args) > def.MaxArgs {
			return types.KindNull, errAt(x.Pos, "function %s(%s) does not exist", x.Name, kindList(kinds))
		}
		for i, k := range kinds {
			if k != types.KindNull && def.Args[i] != types.KindNull && k != def.Args[i] {
				return types.KindNull, errAt(x.Pos, "function %s(%s) does not exist", x.Name, kindList(kinds))
			}
		}
		return def.Result, nil
	}
	if _, ok := aggFns[x.Name]; ok {
		if !ctx.aggOK {
			return types.KindNull, errAt(x.Pos, "aggregate functions are not allowed in %s", ctx.clause)
		}
		if ctx.inAgg {
			return types.KindNull, errAt(x.Pos, "aggregate function calls cannot be nested")
		}
		if x.Star {
			if x.Name != "count" {
				return types.KindNull, errAt(x.Pos, "%s(*) is not valid", x.Name)
			}
			return types.KindInt, nil
		}
		if len(x.Args) != 1 {
			return types.KindNull, errAt(x.Pos, "%s takes exactly one argument", x.Name)
		}
		argCtx := ctx
		argCtx.inAgg = true
		// The aggregate's argument is computed below the aggregation — and
		// below the projection — of the aggregate's own block: it resolves
		// from the real block scope (an ORDER BY aggregate cannot see
		// output aliases, matching PostgreSQL), and that block's grouping
		// rule does not apply inside it — including for correlated
		// references made from subqueries nested in the argument, which
		// carry their own contexts. Enforcement is suspended only for the
		// owning block: references escaping further, to an outer grouped
		// block, stay enforced (the engine evaluates this aggregate above
		// that block's aggregation, where ungrouped columns no longer
		// exist).
		if ctx.block != nil {
			argCtx.sc = ctx.block
		}
		suspended := ctx.block != nil && ctx.block.enforceGroups
		if suspended {
			ctx.block.enforceGroups = false
		}
		k, err := a.typeExpr(x.Args[0], argCtx)
		if suspended {
			ctx.block.enforceGroups = true
		}
		if err != nil {
			return types.KindNull, err
		}
		switch x.Name {
		case "count":
			return types.KindInt, nil
		case "avg":
			if !isNumericKind(k) {
				return types.KindNull, errAt(x.Pos, "function avg(%s) does not exist", k)
			}
			return types.KindFloat, nil
		case "sum":
			if !isNumericKind(k) {
				return types.KindNull, errAt(x.Pos, "function sum(%s) does not exist", k)
			}
			return k, nil
		default: // min, max: any comparable kind, result follows the argument
			return k, nil
		}
	}
	kinds := make([]types.Kind, len(x.Args))
	for i, arg := range x.Args {
		k, err := a.typeExpr(arg, ctx)
		if err != nil {
			return types.KindNull, err
		}
		kinds[i] = k
	}
	return types.KindNull, errAt(x.Pos, "function %s(%s) does not exist", x.Name, kindList(kinds))
}

func kindList(kinds []types.Kind) string {
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = k.String()
	}
	return strings.Join(parts, ", ")
}

// hasAggCall reports an aggregate call in the expression, not descending
// into subqueries (their aggregates belong to the inner block).
func hasAggCall(e Expr) bool {
	found := false
	WalkExprs(e, func(n Expr) bool {
		if c, ok := n.(Call); ok {
			if _, isScalar := algebra.LookupFunc(c.Name); !isScalar {
				if _, isAgg := aggFns[c.Name]; isAgg {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// astExprEqualFn is structural equality over surface expressions with a
// pluggable identifier comparison (spelling-based for plain equality,
// resolution-based for grouping-expression matching). Subquery-bearing
// nodes compare by statement pointer — exactly what ordinal substitution
// produces when it shares a select-list expression into GROUP BY.
func astExprEqualFn(a, b Expr, identEq func(Ident, Ident) bool) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case Ident:
		y, ok := b.(Ident)
		return ok && identEq(x, y)
	case NumLit:
		y, ok := b.(NumLit)
		return ok && x.IsFlt == y.IsFlt && x.Int == y.Int && x.Float == y.Float
	case StrLit:
		y, ok := b.(StrLit)
		return ok && x.S == y.S
	case ParamLit:
		y, ok := b.(ParamLit)
		return ok && x.Idx == y.Idx
	case BoolLit:
		y, ok := b.(BoolLit)
		return ok && x.B == y.B
	case NullLit:
		_, ok := b.(NullLit)
		return ok
	case Binary:
		y, ok := b.(Binary)
		return ok && x.Op == y.Op && astExprEqualFn(x.L, y.L, identEq) && astExprEqualFn(x.R, y.R, identEq)
	case Unary:
		y, ok := b.(Unary)
		return ok && x.Op == y.Op && astExprEqualFn(x.E, y.E, identEq)
	case IsNull:
		y, ok := b.(IsNull)
		return ok && x.Not == y.Not && astExprEqualFn(x.E, y.E, identEq)
	case InList:
		y, ok := b.(InList)
		if !ok || x.Not != y.Not || len(x.List) != len(y.List) || !astExprEqualFn(x.E, y.E, identEq) {
			return false
		}
		for i := range x.List {
			if !astExprEqualFn(x.List[i], y.List[i], identEq) {
				return false
			}
		}
		return true
	case InSub:
		y, ok := b.(InSub)
		return ok && x.Not == y.Not && x.Sub == y.Sub && astExprEqualFn(x.E, y.E, identEq)
	case Quant:
		y, ok := b.(Quant)
		return ok && x.Op == y.Op && x.Any == y.Any && x.Sub == y.Sub && astExprEqualFn(x.E, y.E, identEq)
	case Exists:
		y, ok := b.(Exists)
		return ok && x.Not == y.Not && x.Sub == y.Sub
	case ScalarSub:
		y, ok := b.(ScalarSub)
		return ok && x.Sub == y.Sub
	case Between:
		y, ok := b.(Between)
		return ok && x.Not == y.Not && astExprEqualFn(x.E, y.E, identEq) && astExprEqualFn(x.Lo, y.Lo, identEq) && astExprEqualFn(x.Hi, y.Hi, identEq)
	case Like:
		y, ok := b.(Like)
		return ok && x.Not == y.Not && astExprEqualFn(x.E, y.E, identEq) && astExprEqualFn(x.Pattern, y.Pattern, identEq)
	case CastExpr:
		y, ok := b.(CastExpr)
		return ok && x.Type == y.Type && astExprEqualFn(x.E, y.E, identEq)
	case Call:
		y, ok := b.(Call)
		if !ok || x.Name != y.Name || x.Star != y.Star || x.Distinct != y.Distinct || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !astExprEqualFn(x.Args[i], y.Args[i], identEq) {
				return false
			}
		}
		return true
	case Case:
		y, ok := b.(Case)
		if !ok || len(x.Whens) != len(y.Whens) || !astExprEqualFn(x.Operand, y.Operand, identEq) || !astExprEqualFn(x.Else, y.Else, identEq) {
			return false
		}
		for i := range x.Whens {
			if !astExprEqualFn(x.Whens[i].Cond, y.Whens[i].Cond, identEq) || !astExprEqualFn(x.Whens[i].Result, y.Whens[i].Result, identEq) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
