package fuzz

import (
	"strconv"

	"perm"
	"perm/internal/sql"
	"perm/internal/types"
)

// fcol is one generatable column with its value kind. The generator is
// kind-aware: every comparison, function argument and subquery column it
// emits is well-typed, so the semantic analyzer must accept every generated
// query — an analyzer rejection is a fuzz failure.
type fcol struct {
	name string
	kind types.Kind
}

// The fixed fuzz schema: three small integer tables plus a string-typed
// table (u), appended last so the shared rng keeps the seed-stable contents
// of r, s and t that the checked-in corpus is stated over. Distinct column
// names across tables keep unqualified references unambiguous; the
// generator still qualifies most references through always-fresh aliases,
// so self-joins are safe too. Values are drawn from tiny domains with NULLs
// and duplicate rows mixed in — the regime where bag semantics,
// three-valued logic and sublink edge cases (empty subquery results, NULL
// probes) are all exercised.
var fuzzTables = []struct {
	name string
	cols []fcol
}{
	{"r", []fcol{{"a", types.KindInt}, {"b", types.KindInt}}},
	{"s", []fcol{{"c", types.KindInt}, {"d", types.KindInt}}},
	{"t", []fcol{{"e", types.KindInt}, {"f", types.KindInt}}},
	{"u", []fcol{{"g", types.KindString}, {"h", types.KindInt}}},
}

// strDomain is the string value domain: small, duplicate-prone, free of
// digits (so rendered cells never parse as numbers and the order checker
// compares them lexically, like the engine) and free of the row-rendering
// separators '|' and '∅'.
var strDomain = []string{"a", "b", "ab", "ba", "bb", ""}

// likePatterns are the LIKE patterns the generator draws from.
var likePatterns = []string{"%a%", "a%", "%b", "_", "__", "%", "a_%", "%b%a%"}

// splitmix-style deterministic rng (no package state, replayable by seed).
type rng struct{ state uint64 }

func newRng(seed int64) *rng { return &rng{state: uint64(seed)*0x9E3779B9 + 0x2545F4914F6CDD1D} }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
func (r *rng) chance(p float64) bool {
	return float64(r.next()>>11)/float64(1<<53) < p
}

// NewDB builds the fuzz database for one seed: the tables filled with
// NULL-rich, duplicate-rich rows over tiny domains. Tables are kept small
// (4–6 rows) so even the Gen strategy's CrossBase products over nested
// sublinks stay cheap enough for thousands of differential runs.
func NewDB(seed int64) *perm.DB {
	r := newRng(seed ^ 0x5EED)
	db := perm.Open()
	for _, tb := range fuzzTables {
		n := 3 + r.intn(3)
		cols := make([]string, len(tb.cols))
		for j, c := range tb.cols {
			cols[j] = c.name
		}
		rows := make([][]any, 0, n)
		for i := 0; i < n; i++ {
			row := make([]any, len(tb.cols))
			for j, c := range tb.cols {
				switch {
				case r.chance(0.15):
					row[j] = nil
				case c.kind == types.KindString:
					row[j] = strDomain[r.intn(len(strDomain))]
				default:
					row[j] = r.intn(6) - 1 // domain [-1, 4]
				}
			}
			rows = append(rows, row)
			if r.chance(0.25) { // duplicate row: bag multiplicities > 1
				rows = append(rows, row)
			}
		}
		if err := db.Register(tb.name, cols, rows); err != nil {
			panic(err) // fixed schema; cannot fail
		}
	}
	return db
}

// OrderCheck describes one top-level ORDER BY key that is a visible output
// column, so the oracle can verify the presented row order semantically.
type OrderCheck struct {
	Col  int // result column index
	Desc bool
}

// Query is one generated (or shrunk) query with the metadata the oracle
// needs.
type Query struct {
	Stmt *sql.Stmt
	SQL  string
	// UsesLimit reports a LIMIT or OFFSET anywhere in the tree; the
	// provenance rewrite rejects those, so the oracle skips the strategy
	// matrix for them.
	UsesLimit bool
	// Ordered reports a top-level ORDER BY: only then is the presented row
	// sequence defined, and the oracle compares sequences rather than bags
	// across executor modes.
	Ordered bool
	// OrderChecks are the top-level ORDER BY keys resolvable to visible
	// output columns (hidden-key and expression keys are exercised but not
	// semantically order-checked).
	OrderChecks []OrderCheck
	// Scans counts base-table references anywhere in the query. The Gen
	// strategy's CrossBase is a product over all sublink base relations, so
	// the oracle bounds the provenance matrix by this count.
	Scans int
}

// Finalize derives a Query from a statement AST: renders it and recomputes
// the oracle metadata. The shrinker calls it after every reduction.
func Finalize(st *sql.Stmt) *Query {
	return &Query{
		Stmt:        st,
		SQL:         Render(st),
		UsesLimit:   stmtUsesLimit(st),
		Ordered:     st.SetOp == nil && len(st.Left.OrderBy) > 0,
		OrderChecks: orderChecks(st),
		Scans:       stmtScans(st),
	}
}

// stmtScans counts base-table references anywhere in the statement.
func stmtScans(st *sql.Stmt) int {
	n := 0
	visitSelects(st, func(sel *sql.SelectStmt) {
		for _, ref := range sel.From {
			n += refBases(ref)
		}
	})
	return n
}

// refBases counts the base tables of one FROM item; derived tables count
// through their own select blocks (visited separately by visitSelects).
func refBases(ref sql.TableRef) int {
	switch {
	case ref.Join != nil:
		return refBases(ref.Join.Left) + refBases(ref.Join.Right)
	case ref.Sub != nil:
		return 0
	default:
		return 1
	}
}

// stmtUsesLimit reports a LIMIT or OFFSET on any block of the statement.
func stmtUsesLimit(st *sql.Stmt) bool {
	found := false
	visitSelects(st, func(sel *sql.SelectStmt) {
		if sel.Limit >= 0 || sel.Offset > 0 {
			found = true
		}
	})
	return found
}

// visitSelects calls fn for every select block of the statement — set
// operation arms, derived tables and the subqueries nested anywhere in its
// expressions. The single traversal keeps the oracle metadata (scan
// counts, limit detection) in one place: a new expression node needs
// exactly one new arm here.
func visitSelects(st *sql.Stmt, fn func(*sql.SelectStmt)) {
	if st == nil {
		return
	}
	sel := st.Left
	fn(sel)
	for _, ref := range sel.From {
		visitRefSelects(ref, fn)
	}
	for _, e := range collectExprs(sel) {
		visitExprSelects(e, fn)
	}
	if st.SetOp != nil {
		visitSelects(st.SetOp.Right, fn)
	}
}

func visitRefSelects(ref sql.TableRef, fn func(*sql.SelectStmt)) {
	switch {
	case ref.Join != nil:
		visitRefSelects(ref.Join.Left, fn)
		visitRefSelects(ref.Join.Right, fn)
		visitExprSelects(ref.Join.On, fn)
	case ref.Sub != nil:
		visitSelects(ref.Sub, fn)
	}
}

// collectExprs gathers the clause expressions of one select block.
func collectExprs(sel *sql.SelectStmt) []sql.Expr {
	var out []sql.Expr
	for _, c := range sel.Cols {
		out = append(out, c.E)
	}
	if sel.Where != nil {
		out = append(out, sel.Where)
	}
	out = append(out, sel.GroupBy...)
	if sel.Having != nil {
		out = append(out, sel.Having)
	}
	for _, k := range sel.OrderBy {
		out = append(out, k.E)
	}
	return out
}

// visitExprSelects descends into the subqueries embedded in an expression,
// riding the shared sql.WalkExprs traversal (which visits test expressions
// but leaves subquery statements to this hook).
func visitExprSelects(e sql.Expr, fn func(*sql.SelectStmt)) {
	sql.WalkExprs(e, func(n sql.Expr) bool {
		switch x := n.(type) {
		case sql.InSub:
			visitSelects(x.Sub, fn)
		case sql.Quant:
			visitSelects(x.Sub, fn)
		case sql.Exists:
			visitSelects(x.Sub, fn)
		case sql.ScalarSub:
			visitSelects(x.Sub, fn)
		}
		return true
	})
}

// containsCast reports whether the expression contains any CAST — a cast of
// a number to string renders as a digit string, which the order checker
// would wrongly compare numerically, so such keys are not order-checked.
func containsCast(e sql.Expr) bool {
	found := false
	sql.WalkExprs(e, func(n sql.Expr) bool {
		if _, ok := n.(sql.CastExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

// orderChecks maps the top-level ORDER BY keys onto visible result column
// indexes where possible: an ordinal, a key naming a select-list alias, or
// a key structurally equal to a select-list expression. Set operations have
// no statement-level ORDER BY in this dialect, so they contribute no
// checks.
func orderChecks(st *sql.Stmt) []OrderCheck {
	if st == nil || st.SetOp != nil {
		return nil
	}
	sel := st.Left
	if sel.Star || len(sel.OrderBy) == 0 {
		return nil
	}
	// A CAST anywhere in the statement can surface digit-strings in the
	// result (possibly laundered through a derived-table column the key
	// references), which compareCells would wrongly compare numerically
	// while the engine sorts them lexically. Quarantine the whole
	// statement: the differential row-sequence comparison still covers its
	// ordering.
	castFound := false
	visitSelects(st, func(s *sql.SelectStmt) {
		for _, e := range collectExprs(s) {
			if containsCast(e) {
				castFound = true
			}
		}
	})
	if castFound {
		return nil
	}
	var out []OrderCheck
	for _, k := range sel.OrderBy {
		found := -1
		switch key := k.E.(type) {
		case sql.NumLit:
			// ORDER BY ordinal: position n is column n-1.
			if key.IsFlt || key.Int < 1 || key.Int > int64(len(sel.Cols)) {
				return out
			}
			found = int(key.Int) - 1
		case sql.Ident:
			if key.Qual != "" {
				// Qualified keys may be hidden-column keys; the differential
				// comparison still covers them.
				return out
			}
			for i, c := range sel.Cols {
				if c.Alias == key.Name {
					found = i
					break
				}
				if cid, isID := c.E.(sql.Ident); isID && c.Alias == "" && cid.Name == key.Name {
					found = i
					break
				}
			}
		default:
			return out
		}
		if found < 0 {
			return out
		}
		out = append(out, OrderCheck{Col: found, Desc: k.Desc})
	}
	return out
}

// Gen is a deterministic random query generator over the fuzz schema.
type Gen struct {
	rng      *rng
	aliasSeq int
	colSeq   int
}

// NewGen returns a generator for one seed.
func NewGen(seed int64) *Gen { return &Gen{rng: newRng(seed)} }

// scopeRel is one FROM item visible in a scope: its alias and typed
// columns.
type scopeRel struct {
	alias string
	cols  []fcol
}

// scope is the name environment of one query block, linked to the enclosing
// block for correlated references.
type scope struct {
	rels  []scopeRel
	outer *scope
}

// colRef is one referencable column with its kind.
type colRef struct {
	qual, name string
	kind       types.Kind
}

func (s *scope) ownCols() []colRef {
	var out []colRef
	for _, r := range s.rels {
		for _, c := range r.cols {
			out = append(out, colRef{qual: r.alias, name: c.name, kind: c.kind})
		}
	}
	return out
}

// colsOfKind filters a scope's columns by kind.
func colsOfKind(cols []colRef, kind types.Kind) []colRef {
	var out []colRef
	for _, c := range cols {
		if c.kind == kind {
			out = append(out, c)
		}
	}
	return out
}

func (g *Gen) freshAlias() string {
	g.aliasSeq++
	return "f" + strconv.Itoa(g.aliasSeq)
}

func (g *Gen) freshCol() string {
	g.colSeq++
	return "x" + strconv.Itoa(g.colSeq)
}

// pickKind draws an output column kind, biased towards integers so the
// engine's numeric core keeps most of the coverage.
func (g *Gen) pickKind() types.Kind {
	if g.rng.chance(0.3) {
		return types.KindString
	}
	return types.KindInt
}

// Next generates one random query. Alias and column counters reset per
// query so rendered SQL is stable under replay of the same seed sequence.
func (g *Gen) Next() *Query {
	g.aliasSeq, g.colSeq = 0, 0
	var st *sql.Stmt
	if g.rng.chance(0.10) {
		st = g.genSetOp()
	} else {
		sel, _ := g.genSelect(2, nil, nil, true)
		st = &sql.Stmt{Left: sel}
	}
	return Finalize(st)
}

// genSetOp builds a set operation of two or three arms with one shared
// column shape (widths and kinds must match across arms — the analyzer
// rejects UNION of string and integer columns, as PostgreSQL does). Arms
// carry no ORDER BY or LIMIT.
func (g *Gen) genSetOp() *sql.Stmt {
	shape := make([]types.Kind, 1+g.rng.intn(2))
	for i := range shape {
		shape[i] = g.pickKind()
	}
	kinds := []string{"UNION", "INTERSECT", "EXCEPT"}
	left, _ := g.genSelect(1, nil, shape, false)
	right, _ := g.genSelect(1, nil, shape, false)
	st := &sql.Stmt{Left: left}
	st.SetOp = &sql.SetOpClause{
		Kind:  kinds[g.rng.intn(len(kinds))],
		All:   g.rng.chance(0.5),
		Right: &sql.Stmt{Left: right},
	}
	if g.rng.chance(0.25) {
		third, _ := g.genSelect(1, nil, shape, false)
		st.SetOp.Right.SetOp = &sql.SetOpClause{
			Kind:  kinds[g.rng.intn(len(kinds))],
			All:   g.rng.chance(0.5),
			Right: &sql.Stmt{Left: third},
		}
	}
	return st
}

// genSelect builds one SELECT block and reports its output columns. depth
// bounds subquery nesting; outer is the enclosing scope chain for
// correlated sublinks (nil for derived tables, which cannot correlate);
// shape forces the output column kinds (nil = free); orderable allows
// ORDER BY/LIMIT on this block.
func (g *Gen) genSelect(depth int, outer *scope, shape []types.Kind, orderable bool) (*sql.SelectStmt, []fcol) {
	sel := &sql.SelectStmt{Limit: -1}

	// FROM: one or two items, each a base table, derived table or join.
	// Nested blocks stay light: every base relation inside a sublink
	// multiplies the Gen strategy's CrossBase, so breadth lives at the top
	// level and depth in the nesting.
	sc := &scope{outer: outer}
	nFrom := 1
	if depth >= 2 && g.rng.chance(0.3) {
		nFrom = 2
	}
	for i := 0; i < nFrom; i++ {
		ref, rels := g.genFromItem(depth)
		sel.From = append(sel.From, ref)
		sc.rels = append(sc.rels, rels...)
	}

	// WHERE.
	if g.rng.chance(0.7) {
		sel.Where = g.genPred(depth, sc, 2)
	}

	grouped := shape == nil && g.rng.chance(0.18) && len(sc.ownCols()) > 0
	if grouped {
		return sel, g.genGroupedOutput(sel, sc, orderable)
	}

	// Plain output list.
	kinds := shape
	if kinds == nil {
		kinds = make([]types.Kind, 1+g.rng.intn(3))
		for i := range kinds {
			kinds[i] = g.pickKind()
		}
	}
	out := make([]fcol, len(kinds))
	for i, k := range kinds {
		if k == types.KindNull {
			k = g.pickKind()
		}
		e := g.genScalar(depth, sc, 2, k)
		alias := g.freshCol()
		sel.Cols = append(sel.Cols, sql.SelectCol{E: e, Alias: alias})
		out[i] = fcol{name: alias, kind: k}
	}
	if shape == nil && g.rng.chance(0.12) {
		sel.Distinct = true
	}

	if orderable {
		g.genOrderLimit(sel, sc, out)
	}
	return sel, out
}

// genFromItem builds one FROM item and the scope entries it contributes.
func (g *Gen) genFromItem(depth int) (sql.TableRef, []scopeRel) {
	roll := g.rng.intn(100)
	derivedCut, joinCut := 20, 45
	if depth < 2 {
		derivedCut, joinCut = 10, 22 // inside subqueries, prefer plain base tables
	}
	switch {
	case roll < derivedCut && depth > 0:
		// Derived table; cannot correlate outward, may order internally
		// (exercising order propagation and hidden-key LIMIT cuts).
		sub, cols := g.genSelect(depth-1, nil, nil, true)
		alias := g.freshAlias()
		return sql.TableRef{Sub: &sql.Stmt{Left: sub}, Alias: alias}, []scopeRel{{alias: alias, cols: cols}}
	case roll < joinCut:
		// Join of two base tables on a same-kind column equality; about one
		// in three adds a second comparison across the sides, which the
		// executors run as a residual on each key's candidates unless it
		// is a second =.
		l, lrels := g.genBaseRef()
		r, rrels := g.genBaseRef()
		lc, rc := lrels[0], rrels[0]
		cmp := func(op string) sql.Expr {
			lcol, rcol := g.pickPair(lc.cols, rc.cols)
			return sql.Binary{
				Op: op,
				L:  sql.Ident{Qual: lc.alias, Name: lcol.name},
				R:  sql.Ident{Qual: rc.alias, Name: rcol.name},
			}
		}
		on := cmp("=")
		if g.rng.chance(0.33) {
			on = sql.Binary{Op: "AND", L: on, R: cmp(cmpOp(g.rng))}
		}
		return sql.TableRef{Join: &sql.JoinRef{
			Left: l, Right: r, LeftOuter: g.rng.chance(0.35), On: on,
		}}, append(lrels, rrels...)
	default:
		return g.genBaseRef()
	}
}

// pickPair picks a column of l and a column of r of the same kind.
func (g *Gen) pickPair(l, r []fcol) (fcol, fcol) {
	lcol := l[g.rng.intn(len(l))]
	rcands := make([]fcol, 0, len(r))
	for _, c := range r {
		if c.kind == lcol.kind {
			rcands = append(rcands, c)
		}
	}
	if len(rcands) == 0 {
		// No kind-matching pair: fall back to the integer columns both
		// tables are guaranteed to have.
		for _, c := range l {
			if c.kind == types.KindInt {
				lcol = c
				break
			}
		}
		for _, c := range r {
			if c.kind == types.KindInt {
				rcands = append(rcands, c)
			}
		}
	}
	return lcol, rcands[g.rng.intn(len(rcands))]
}

func (g *Gen) genBaseRef() (sql.TableRef, []scopeRel) {
	tb := fuzzTables[g.rng.intn(len(fuzzTables))]
	alias := g.freshAlias()
	return sql.TableRef{Table: tb.name, Alias: alias}, []scopeRel{{alias: alias, cols: tb.cols}}
}

// stringTable returns the fuzz table holding a string column, with that
// column's name — looked up from the schema so reordering or renaming
// fuzzTables cannot silently desynchronize the generator.
func stringTable() (name string, cols []fcol, strCol string) {
	for _, tb := range fuzzTables {
		for _, c := range tb.cols {
			if c.kind == types.KindString {
				return tb.name, tb.cols, c.name
			}
		}
	}
	panic("fuzz: no string-typed table in the schema")
}

// genGroupedOutput turns the block into a GROUP BY query: grouping columns
// plus aggregates in the select list (GROUP BY sometimes spelled as a
// select-list ordinal), optional HAVING, ORDER BY over the output —
// including aliases, ordinals and, sometimes, an aggregate not in the
// select list (a hidden-key sort over the aggregation schema).
func (g *Gen) genGroupedOutput(sel *sql.SelectStmt, sc *scope, orderable bool) []fcol {
	cols := sc.ownCols()
	var out []fcol
	nGroup := 1 + g.rng.intn(2)
	seen := map[string]bool{}
	for i := 0; i < nGroup; i++ {
		c := cols[g.rng.intn(len(cols))]
		key := c.qual + "." + c.name
		if seen[key] {
			continue
		}
		seen[key] = true
		id := sql.Ident{Qual: c.qual, Name: c.name}
		alias := g.freshCol()
		sel.Cols = append(sel.Cols, sql.SelectCol{E: id, Alias: alias})
		out = append(out, fcol{name: alias, kind: c.kind})
		if g.rng.chance(0.3) {
			// GROUP BY ordinal referencing the select-list position.
			sel.GroupBy = append(sel.GroupBy, sql.NumLit{Int: int64(len(sel.Cols))})
		} else {
			sel.GroupBy = append(sel.GroupBy, id)
		}
	}
	nAgg := 1 + g.rng.intn(2)
	for i := 0; i < nAgg; i++ {
		agg, kind := g.genAggCall(sc)
		alias := g.freshCol()
		sel.Cols = append(sel.Cols, sql.SelectCol{E: agg, Alias: alias})
		out = append(out, fcol{name: alias, kind: kind})
	}
	if g.rng.chance(0.4) {
		agg, kind := g.genAggCall(sc)
		sel.Having = sql.Binary{Op: cmpOp(g.rng), L: agg, R: g.genLit(kind)}
	}
	if orderable && g.rng.chance(0.5) {
		n := 1 + g.rng.intn(2)
		for i := 0; i < n; i++ {
			var key sql.Expr
			switch roll := g.rng.intn(100); {
			case roll < 45:
				key = sql.Ident{Name: sel.Cols[g.rng.intn(len(sel.Cols))].Alias}
			case roll < 70:
				key = sql.NumLit{Int: int64(1 + g.rng.intn(len(sel.Cols)))}
			default:
				key, _ = g.genAggCall(sc) // possibly not in the select list
			}
			sel.OrderBy = append(sel.OrderBy, sql.OrderKey{E: key, Desc: g.rng.chance(0.5)})
		}
		g.maybeLimit(sel)
	}
	return out
}

// genAggCall builds an aggregate call over the scope and reports its result
// kind. sum and avg only apply to integer columns; min/max/count take any.
func (g *Gen) genAggCall(sc *scope) (sql.Expr, types.Kind) {
	cols := sc.ownCols()
	intCols := colsOfKind(cols, types.KindInt)
	fns := []string{"count", "sum", "min", "max", "avg"}
	fn := fns[g.rng.intn(len(fns))]
	if (fn == "sum" || fn == "avg") && len(intCols) == 0 {
		fn = "count"
	}
	if fn == "count" && (g.rng.chance(0.3) || len(cols) == 0) {
		return sql.Call{Name: "count", Star: true}, types.KindInt
	}
	pool := cols
	if fn == "sum" || fn == "avg" {
		pool = intCols
	}
	c := pool[g.rng.intn(len(pool))]
	call := sql.Call{
		Name:     fn,
		Args:     []sql.Expr{sql.Ident{Qual: c.qual, Name: c.name}},
		Distinct: g.rng.chance(0.15),
	}
	switch fn {
	case "count":
		return call, types.KindInt
	case "avg":
		return call, types.KindFloat
	case "sum":
		return call, types.KindInt
	default: // min, max follow the argument
		return call, c.kind
	}
}

// genOrderLimit adds ORDER BY (over aliases, ordinals, scope columns — the
// hidden-key path — or expressions) and, only under an order, LIMIT/OFFSET
// (an unordered limit's row choice is unspecified, so the differential
// would false-positive on it).
func (g *Gen) genOrderLimit(sel *sql.SelectStmt, sc *scope, out []fcol) {
	if !g.rng.chance(0.5) {
		return
	}
	n := 1 + g.rng.intn(2)
	for i := 0; i < n; i++ {
		var key sql.Expr
		switch roll := g.rng.intn(100); {
		case roll < 35:
			key = sql.Ident{Name: sel.Cols[g.rng.intn(len(sel.Cols))].Alias}
		case roll < 55:
			key = sql.NumLit{Int: int64(1 + g.rng.intn(len(sel.Cols)))}
		case roll < 80 && !sel.Distinct:
			// A scope column, usually not projected: the hidden-key path.
			cols := sc.ownCols()
			c := cols[g.rng.intn(len(cols))]
			key = sql.Ident{Qual: c.qual, Name: c.name}
		default:
			// An expression over an output alias; || for string outputs,
			// + for numeric ones.
			idx := g.rng.intn(len(sel.Cols))
			alias := sql.Ident{Name: sel.Cols[idx].Alias}
			if out[idx].kind == types.KindString {
				key = sql.Binary{Op: "||", L: alias, R: g.genStrLit()}
			} else {
				key = sql.Binary{Op: "+", L: alias, R: g.genIntLit()}
			}
		}
		sel.OrderBy = append(sel.OrderBy, sql.OrderKey{E: key, Desc: g.rng.chance(0.5)})
	}
	g.maybeLimit(sel)
}

func (g *Gen) maybeLimit(sel *sql.SelectStmt) {
	if len(sel.OrderBy) == 0 || !g.rng.chance(0.4) {
		return
	}
	sel.Limit = g.rng.intn(5)
	if g.rng.chance(0.3) {
		sel.Offset = g.rng.intn(3)
	}
}

func cmpOp(r *rng) string {
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	return ops[r.intn(len(ops))]
}

func (g *Gen) genIntLit() sql.Expr {
	n := int64(g.rng.intn(6) - 1)
	return sql.NumLit{Int: n}
}

func (g *Gen) genStrLit() sql.Expr {
	return sql.StrLit{S: strDomain[g.rng.intn(len(strDomain))]}
}

func (g *Gen) genLit(kind types.Kind) sql.Expr {
	if kind == types.KindString {
		return g.genStrLit()
	}
	return g.genIntLit()
}

// genColRef picks a column reference of the wanted kind: usually from the
// current scope, sometimes (when enclosing scopes exist) a correlated outer
// reference. ok is false when no column of the kind is in reach.
// References are always alias-qualified — aliases are generation-unique, so
// qualification is never ambiguous.
func (g *Gen) genColRef(sc *scope, kind types.Kind) (sql.Expr, bool) {
	pick := sc
	if pick.outer != nil && g.rng.chance(0.3) {
		pick = pick.outer
		if pick.outer != nil && g.rng.chance(0.2) {
			pick = pick.outer
		}
	}
	cols := colsOfKind(pick.ownCols(), kind)
	if len(cols) == 0 {
		cols = colsOfKind(sc.ownCols(), kind)
	}
	if len(cols) == 0 {
		return nil, false
	}
	c := cols[g.rng.intn(len(cols))]
	return sql.Ident{Qual: c.qual, Name: c.name}, true
}

// genColRefOr picks a column reference of the kind or falls back to a
// literal of the kind.
func (g *Gen) genColRefOr(sc *scope, kind types.Kind) sql.Expr {
	if ref, ok := g.genColRef(sc, kind); ok {
		return ref
	}
	return g.genLit(kind)
}

// genScalar builds an expression of the wanted kind over the scope.
func (g *Gen) genScalar(depth int, sc *scope, complexity int, kind types.Kind) sql.Expr {
	if kind == types.KindString {
		return g.genStrScalar(depth, sc, complexity)
	}
	roll := g.rng.intn(100)
	switch {
	case complexity <= 0 || roll < 50:
		return g.genColRefOr(sc, types.KindInt)
	case roll < 60:
		return g.genIntLit()
	case roll < 74:
		ops := []string{"+", "-", "*"}
		return sql.Binary{
			Op: ops[g.rng.intn(len(ops))],
			L:  g.genScalar(depth, sc, complexity-1, types.KindInt),
			R:  g.genScalar(depth, sc, complexity-1, types.KindInt),
		}
	case roll < 80:
		// length bridges the string family into integer expressions.
		return sql.Call{Name: "length", Args: []sql.Expr{g.genStrScalar(depth, sc, complexity-1)}}
	case roll < 92:
		c := sql.Case{}
		n := 1 + g.rng.intn(2)
		for i := 0; i < n; i++ {
			c.Whens = append(c.Whens, sql.CaseWhen{
				Cond:   g.genPred(depth, sc, complexity-1),
				Result: g.genScalar(depth, sc, complexity-1, types.KindInt),
			})
		}
		if g.rng.chance(0.7) {
			c.Else = g.genScalar(depth, sc, complexity-1, types.KindInt)
		}
		return c
	default:
		if depth > 0 {
			return g.genScalarSub(depth, sc, types.KindInt)
		}
		return g.genColRefOr(sc, types.KindInt)
	}
}

// genStrScalar builds a string-kinded expression: column references, string
// literals, || concatenation, upper/lower/substr, CAST to string, CASE with
// string results, and string-valued scalar subqueries (min/max).
func (g *Gen) genStrScalar(depth int, sc *scope, complexity int) sql.Expr {
	roll := g.rng.intn(100)
	switch {
	case complexity <= 0 || roll < 40:
		return g.genColRefOr(sc, types.KindString)
	case roll < 52:
		return g.genStrLit()
	case roll < 66:
		return sql.Binary{
			Op: "||",
			L:  g.genStrScalar(depth, sc, complexity-1),
			R:  g.genStrScalar(depth, sc, complexity-1),
		}
	case roll < 76:
		fn := []string{"upper", "lower"}[g.rng.intn(2)]
		return sql.Call{Name: fn, Args: []sql.Expr{g.genStrScalar(depth, sc, complexity-1)}}
	case roll < 84:
		args := []sql.Expr{
			g.genStrScalar(depth, sc, complexity-1),
			sql.NumLit{Int: int64(g.rng.intn(3))},
		}
		if g.rng.chance(0.6) {
			args = append(args, sql.NumLit{Int: int64(1 + g.rng.intn(3))})
		}
		return sql.Call{Name: "substr", Args: args}
	case roll < 90:
		return sql.CastExpr{E: g.genScalar(depth, sc, complexity-1, types.KindInt), Type: "string"}
	case roll < 96 || depth <= 0:
		c := sql.Case{}
		n := 1 + g.rng.intn(2)
		for i := 0; i < n; i++ {
			c.Whens = append(c.Whens, sql.CaseWhen{
				Cond:   g.genPred(depth, sc, complexity-1),
				Result: g.genStrScalar(depth, sc, complexity-1),
			})
		}
		if g.rng.chance(0.7) {
			c.Else = g.genStrScalar(depth, sc, complexity-1)
		}
		return c
	default:
		return g.genScalarSub(depth, sc, types.KindString)
	}
}

// genScalarSub builds a scalar subquery guaranteed to yield exactly one
// row: a global aggregate (no GROUP BY) over one table, optionally
// correlated with the enclosing scope. A string-kinded subquery aggregates
// min/max over the string table.
func (g *Gen) genScalarSub(depth int, sc *scope, kind types.Kind) sql.Expr {
	var ref sql.TableRef
	var rels []scopeRel
	var strCol string
	if kind == types.KindString {
		// Scan a table that has a string column (derived from the schema,
		// not a fixed position).
		name, cols, col := stringTable()
		strCol = col
		alias := g.freshAlias()
		ref = sql.TableRef{Table: name, Alias: alias}
		rels = []scopeRel{{alias: alias, cols: cols}}
	} else {
		ref, rels = g.genBaseRef()
	}
	inner := &scope{rels: rels, outer: sc}
	sub := &sql.SelectStmt{Limit: -1, From: []sql.TableRef{ref}}
	if g.rng.chance(0.25) {
		sub.Where, _ = g.keyedCond(rels[0], sc)
	}
	if sub.Where == nil && g.rng.chance(0.6) {
		sub.Where = g.genPred(depth-1, inner, 1)
	}
	var agg sql.Expr
	if kind == types.KindString {
		fn := []string{"min", "max"}[g.rng.intn(2)]
		agg = sql.Call{Name: fn, Args: []sql.Expr{sql.Ident{Qual: rels[0].alias, Name: strCol}}}
	} else {
		for {
			var k types.Kind
			agg, k = g.genAggCall(inner)
			if k != types.KindString {
				break
			}
		}
	}
	sub.Cols = []sql.SelectCol{{E: agg, Alias: g.freshCol()}}
	return sql.ScalarSub{Sub: &sql.Stmt{Left: sub}}
}

// genSub builds a subquery for IN/ANY/ALL (shape of one column of the
// wanted kind) or EXISTS (shape nil = free), possibly correlated with the
// enclosing scope chain.
func (g *Gen) genSub(depth int, sc *scope, shape []types.Kind) *sql.Stmt {
	var outer *scope
	if g.rng.chance(0.55) {
		outer = sc // correlation allowed
	}
	sel, _ := g.genSelect(depth-1, outer, shape, g.rng.chance(0.15))
	return &sql.Stmt{Left: sel}
}

// keyedCond correlates a subquery over the base table inner with the
// enclosing scope sc: inner.x = outer.y over integer columns, sometimes with
// a comparison over inner alone as a residual. The fuzz tables repeat
// values in every column, so outer rows share bindings, and a condition
// like this one, which cannot raise, is what the streaming executor answers
// from a hash index on x from the selection's second call on. ok is false
// when sc has no integer column.
func (g *Gen) keyedCond(inner scopeRel, sc *scope) (cond sql.Expr, ok bool) {
	outs := colsOfKind(sc.ownCols(), types.KindInt)
	ins := colsOfKind((&scope{rels: []scopeRel{inner}}).ownCols(), types.KindInt)
	if len(outs) == 0 || len(ins) == 0 {
		return nil, false
	}
	o, i := outs[g.rng.intn(len(outs))], ins[g.rng.intn(len(ins))]
	cond = sql.Binary{Op: "=", L: sql.Ident{Qual: i.qual, Name: i.name}, R: sql.Ident{Qual: o.qual, Name: o.name}}
	if g.rng.chance(0.4) {
		cond = sql.Binary{Op: "AND", L: cond, R: g.genPred(0, &scope{rels: []scopeRel{inner}}, 0)}
	}
	return cond, true
}

// genKeyedExists builds [NOT] EXISTS over one base table whose WHERE is a
// keyedCond.
func (g *Gen) genKeyedExists(sc *scope) (sql.Expr, bool) {
	ref, rels := g.genBaseRef()
	cond, ok := g.keyedCond(rels[0], sc)
	if !ok {
		return nil, false
	}
	sel := &sql.SelectStmt{Limit: -1, From: []sql.TableRef{ref}, Where: cond,
		Cols: []sql.SelectCol{{E: sql.Ident{Qual: rels[0].alias, Name: rels[0].cols[0].name}, Alias: g.freshCol()}}}
	return sql.Exists{Sub: &sql.Stmt{Left: sel}, Not: g.rng.chance(0.35)}, true
}

// genPred builds a boolean predicate over the scope. All comparisons are
// kind-consistent: the analyzer rejects string-vs-number operands, so the
// generator never produces them.
func (g *Gen) genPred(depth int, sc *scope, complexity int) sql.Expr {
	roll := g.rng.intn(100)
	sub := depth > 0 && complexity > 0
	// predKind chooses which family a comparison works in.
	predKind := types.KindInt
	if g.rng.chance(0.3) {
		predKind = types.KindString
	}
	switch {
	case complexity <= 0 || roll < 24:
		r := g.genLit(predKind)
		if g.rng.chance(0.5) {
			r = g.genColRefOr(sc, predKind)
		}
		return sql.Binary{Op: cmpOp(g.rng), L: g.genColRefOr(sc, predKind), R: r}
	case roll < 31:
		// LIKE over a string expression and a pattern from the fixed pool.
		pat := sql.Expr(sql.StrLit{S: likePatterns[g.rng.intn(len(likePatterns))]})
		return sql.Like{
			E:       g.genStrScalar(depth, sc, complexity-1),
			Pattern: pat,
			Not:     g.rng.chance(0.3),
		}
	case roll < 39:
		return sql.Binary{Op: "AND", L: g.genPred(depth, sc, complexity-1), R: g.genPred(depth, sc, complexity-1)}
	case roll < 46:
		return sql.Binary{Op: "OR", L: g.genPred(depth, sc, complexity-1), R: g.genPred(depth, sc, complexity-1)}
	case roll < 51:
		return sql.Unary{Op: "NOT", E: g.genPred(depth, sc, complexity-1)}
	case roll < 57:
		return sql.IsNull{E: g.genColRefOr(sc, predKind), Not: g.rng.chance(0.4)}
	case roll < 62:
		return sql.Between{
			E:   g.genColRefOr(sc, predKind),
			Lo:  g.genLit(predKind),
			Hi:  g.genLit(predKind),
			Not: g.rng.chance(0.3),
		}
	case roll < 68:
		n := 1 + g.rng.intn(3)
		list := make([]sql.Expr, n)
		for i := range list {
			list[i] = g.genLit(predKind)
		}
		return sql.InList{E: g.genColRefOr(sc, predKind), List: list, Not: g.rng.chance(0.3)}
	case roll < 77 && sub:
		return sql.InSub{
			E:   g.genScalar(0, sc, 1, predKind),
			Sub: g.genSub(depth, sc, []types.Kind{predKind}),
			Not: g.rng.chance(0.3),
		}
	case roll < 85 && sub:
		return sql.Quant{
			Op:  cmpOp(g.rng),
			Any: g.rng.chance(0.5),
			E:   g.genScalar(0, sc, 1, predKind),
			Sub: g.genSub(depth, sc, []types.Kind{predKind}),
		}
	case roll < 94 && sub:
		if g.rng.chance(0.4) {
			if e, ok := g.genKeyedExists(sc); ok {
				return e
			}
		}
		return sql.Exists{Sub: g.genSub(depth, sc, nil), Not: g.rng.chance(0.35)}
	default:
		return sql.Binary{
			Op: cmpOp(g.rng),
			L:  g.genScalar(0, sc, 1, predKind),
			R:  g.genScalar(0, sc, 1, predKind),
		}
	}
}
