// Package perm is a pure-Go reproduction of the Perm provenance management
// system as extended by Glavic & Alonso, "Provenance for Nested Subqueries"
// (EDBT 2009): a relational engine that computes the Why-provenance of SQL
// queries — including correlated and nested subqueries (sublinks) — purely
// by query rewriting.
//
// A DB is an in-memory database. Queries use a SQL subset with the Perm
// language extension SELECT PROVENANCE, which returns every result tuple
// extended with the contributing tuples of each base relation:
//
//	db := perm.Open()
//	db.Register("r", []string{"a", "b"}, [][]any{{1, 1}, {2, 1}, {3, 2}})
//	db.Register("s", []string{"c"}, [][]any{{1}, {2}})
//	res, err := db.Query(`SELECT PROVENANCE * FROM r WHERE a = ANY (SELECT c FROM s)`)
//
// The rewrite strategy (Gen, Left, Move, Unn or Auto — see the package
// documentation of internal/rewrite and §3 of the paper) is selectable per
// query with WithStrategy.
//
// The executor memoizes correlated sublink results per parameter binding —
// see the package documentation of internal/eval.
package perm

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/eval"
	"perm/internal/rel"
	"perm/internal/rewrite"
	"perm/internal/schema"
	"perm/internal/sql"
	"perm/internal/types"
)

// Strategy selects the sublink rewrite strategy for provenance queries.
type Strategy string

// The rewrite strategies of the paper. Auto picks Unn where its patterns
// match, then UnnX (including its decorrelation of equality-correlated
// EXISTS), then Move for uncorrelated sublinks, then Gen.
const (
	Gen  Strategy = "Gen"
	Left Strategy = "Left"
	Move Strategy = "Move"
	Unn  Strategy = "Unn"
	// UnnX extends Unn to ALL, negated and scalar sublinks — this
	// reproduction's implementation of the paper's future-work unnesting
	// direction.
	UnnX Strategy = "UnnX"
	Auto Strategy = "Auto"
)

func (s Strategy) internal() (rewrite.Strategy, error) {
	return rewrite.ParseStrategy(string(s))
}

// DB is an in-memory database with provenance support: the root statement
// scope. Every statement runs against one immutable snapshot of the catalog
// and the views, so queries may run concurrently with each other and with
// DDL: a query sees a table version or a view completely — with its body
// already analyzed — or not at all. DDL statements serialise among
// themselves.
//
// Compiled plans are cached per statement shape and shared with the DB's
// sessions (see planCache and the README's "Plan cache" section).
type DB struct{ scope }

// Open returns an empty database.
func Open() *DB {
	return &DB{scope{cat: catalog.New(), views: catalog.NewLayer[sql.ViewDef](nil), plans: newPlanCache()}}
}

// Session is an isolated statement scope over a shared DB: its DDL —
// CREATE TABLE, INSERT, CREATE VIEW, DROP — lands in a private copy-on-write
// layer that shadows the base without ever writing to it. Any number of
// sessions run concurrently against one DB; a session's writes are invisible
// to every other session, and every statement executes against one immutable
// snapshot of (base + session layer), so long-running provenance queries
// neither block nor observe concurrent DDL — not the base's and not even
// their own session's.
//
// A Session's methods are safe for concurrent use.
type Session struct{ scope }

// NewSession opens a session layered over db's current and future base
// state: base DDL performed after the session is created is visible to the
// session's next statement unless shadowed by the session's own layer.
func (db *DB) NewSession() *Session {
	return &Session{scope{cat: catalog.NewOverlay(db.cat), views: catalog.NewLayer(db.views), plans: db.plans}}
}

// scope is the one implementation of statement execution behind DB and
// Session: a catalog layer paired with a view layer of the same
// copy-on-write type (see catalog.Layer). A DB's layers are roots, a
// Session's are children of its DB's, and a Session shares its DB's plan
// cache; nothing else differs. Queries load the two published states and
// never lock. The published states a snapshot pins
// — the scope's own and, in a session, the DB's beneath — are the scope's
// version: one of them is replaced exactly when DDL the scope can see is
// published.
type scope struct {
	// mu serialises the scope's DDL. Every read-modify-write cycle — INSERT
	// appending to the current version, CREATE checking the name is free, a
	// view probed before it is published — runs under it from the read to
	// the publish, so concurrent writers cannot lose each other's updates.
	// Blind writes (Register, LoadCSV, Drop) take it too, so that an INSERT
	// in flight cannot publish over them.
	//
	// Lock order: mu is acquired before catalog.Layer.mu. Drop, Register,
	// LoadCSV and the table and view DDL publish into a Layer while holding
	// mu. The reverse cannot happen: a Layer never calls out while holding
	// its mutex (it clones a map, reads lock-free snapshots and stores a
	// pointer), and internal/catalog cannot import perm.
	mu    sync.Mutex
	cat   *catalog.Catalog
	views *catalog.Layer[sql.ViewDef]
	plans *planCache
}

// Exec runs any statement: queries return a Result; CREATE TABLE / CREATE
// VIEW / INSERT / DROP change only this scope's layer and return nil. Views
// are stored queries that may be used like relations — including under
// SELECT PROVENANCE, which rewrites through the view body (the Perm
// capability of §3.1).
func (sc *scope) Exec(statement string, opts ...Option) (*Result, error) {
	if sql.IsQuery(statement) {
		return sc.snapshot().query(statement, newQueryConfig(opts))
	}
	st, err := sql.ParseStatement(statement)
	if err != nil {
		return nil, err
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sn := sc.snapshot()
	switch {
	case st.CreateView != nil:
		// Validate the body now so errors surface at definition time. The
		// probe compiles against a private state that already shows the view:
		// analysis substitutes any ordinals in the body in place (see
		// sql.Analyze), and publishing only afterwards guarantees concurrent
		// queries never see, or race with, that one-time write.
		def := st.CreateView
		sn.views = sn.views.With(def.Name, def)
		if _, err := sql.CompileEnv(sn.env(), "SELECT * FROM "+def.Name); err != nil {
			return nil, err
		}
		sc.views.Put(def.Name, def)
		return nil, nil
	case st.DropView != "":
		if !sc.views.Drop(st.DropView) {
			return nil, fmt.Errorf("perm: unknown view %q", st.DropView)
		}
		return nil, nil
	case st.CreateTable != nil:
		def := st.CreateTable
		if sn.views.Get(def.Name) != nil {
			return nil, fmt.Errorf("perm: relation %q already exists (as a view)", def.Name)
		}
		r, kinds := tableDefRelation(def)
		return nil, sc.cat.Create(def.Name, r, kinds)
	case st.Insert != nil:
		// Copy-on-write: build the appended copy of the current version and
		// publish it. Snapshots taken before the publish keep the old one.
		ins := st.Insert
		if sn.views.Get(ins.Table) != nil {
			return nil, fmt.Errorf("perm: cannot INSERT into view %q", ins.Table)
		}
		old, err := sn.src.Relation(ins.Table)
		if err != nil {
			return nil, err
		}
		kinds, err := sn.src.Kinds(ins.Table)
		if err != nil {
			return nil, err
		}
		next, merged, err := appendRows(old, kinds, ins)
		if err != nil {
			return nil, err
		}
		sc.cat.RegisterWithKinds(ins.Table, next, merged)
		return nil, nil
	default: // DROP TABLE
		return nil, sc.cat.Drop(st.DropTable)
	}
}

// tableDefRelation materializes a CREATE TABLE definition: an empty
// relation plus the declared column kinds (which inference could never
// recover from zero rows).
func tableDefRelation(def *sql.TableDef) (*rel.Relation, []types.Kind) {
	cols := make([]string, len(def.Cols))
	kinds := make([]types.Kind, len(def.Cols))
	for i, c := range def.Cols {
		cols[i] = c.Name
		kinds[i] = c.Kind
	}
	return rel.New(schema.New("", cols...)), kinds
}

// appendRows builds the next copy-on-write version of a relation with an
// INSERT's rows appended, type-checking values against the column kinds
// and widening unknown (all-NULL) columns to the kinds the new values
// establish. The new rows are appended as slots of their own, never merged
// with equal rows, so the cost is one copy of the slot slices. The old
// relation is never mutated: snapshots that hold it keep observing the
// pre-INSERT state.
func appendRows(old *rel.Relation, kinds []types.Kind, ins *sql.InsertStmt) (*rel.Relation, []types.Kind, error) {
	cols := make([]string, old.Schema.Len())
	for i, a := range old.Schema.Attrs {
		cols[i] = a.Name
	}
	if err := sql.CheckInsertKinds(ins, cols, kinds); err != nil {
		return nil, nil, err
	}
	merged := make([]types.Kind, len(kinds))
	copy(merged, kinds)
	next := old.Clone(len(ins.Rows))
	for _, row := range ins.Rows {
		t := make(rel.Tuple, len(row))
		copy(t, row)
		next.Add(t, 1)
		for j, v := range row {
			if j < len(merged) && merged[j] == types.KindNull && v.Kind() != types.KindNull {
				merged[j] = v.Kind()
			}
		}
	}
	return next, merged, nil
}

// CreateView stores a named query.
func (db *DB) CreateView(name, query string) error {
	_, err := db.Exec(fmt.Sprintf("CREATE VIEW %s AS %s", name, query))
	return err
}

// Views lists the view names visible to the scope.
func (sc *scope) Views() []string { return sc.views.Snapshot().Names() }

// Register installs a base relation into the scope's layer — in a session,
// shadowing any base relation of the same name. Row values may be int,
// int64, float64, string, bool or nil (NULL).
func (sc *scope) Register(name string, columns []string, rows [][]any) error {
	r := rel.New(schema.New("", columns...))
	for i, row := range rows {
		if len(row) != len(columns) {
			return fmt.Errorf("perm: row %d has %d values, want %d", i, len(row), len(columns))
		}
		t := make(rel.Tuple, len(row))
		for j, v := range row {
			val, err := toValue(v)
			if err != nil {
				return fmt.Errorf("perm: row %d column %q: %w", i, columns[j], err)
			}
			t[j] = val
		}
		r.Add(t, 1)
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.cat.Register(name, r)
	return nil
}

// LoadCSV installs a base relation from CSV (header row of column names;
// values type-inferred; "NULL" and empty fields become NULL).
func (db *DB) LoadCSV(name string, r io.Reader) error {
	relation, err := catalog.ReadCSV(r)
	if err != nil {
		return err
	}
	db.scope.mu.Lock()
	defer db.scope.mu.Unlock()
	db.cat.Register(name, relation)
	return nil
}

// Relations lists the relation names visible to the scope.
func (sc *scope) Relations() []string { return sc.cat.Names() }

// Drop removes a relation; dropping an absent relation is a no-op.
func (db *DB) Drop(name string) {
	db.scope.mu.Lock()
	defer db.scope.mu.Unlock()
	_ = db.cat.Drop(name) // the only error is "unknown relation"
}

// Catalog exposes the underlying catalog for tools inside this module.
// Writes through it publish like any DDL but do not take the statement
// lock: a tool that loads data this way does so before it serves statements.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

func toValue(v any) (types.Value, error) {
	switch x := v.(type) {
	case nil:
		return types.Null(), nil
	case int:
		return types.NewInt(int64(x)), nil
	case int64:
		return types.NewInt(x), nil
	case float64:
		return types.NewFloat(x), nil
	case string:
		return types.NewString(x), nil
	case bool:
		return types.NewBool(x), nil
	default:
		return types.Null(), fmt.Errorf("unsupported value type %T", v)
	}
}

func fromValue(v types.Value) any {
	switch v.Kind() {
	case types.KindNull:
		return nil
	case types.KindBool:
		return v.Bool()
	case types.KindInt:
		return v.Int()
	case types.KindFloat:
		return v.Float()
	case types.KindString:
		return v.Str()
	default:
		return nil
	}
}

// Option configures one Query call.
type Option func(*queryConfig)

type queryConfig struct {
	strategy    Strategy
	ctx         context.Context
	noOptimize  bool
	materialize bool
	planCheck   bool
	noPlanCache bool
}

// WithStrategy selects the sublink rewrite strategy for PROVENANCE queries
// (default Auto).
func WithStrategy(s Strategy) Option {
	return func(c *queryConfig) { c.strategy = s }
}

// WithContext attaches a context; cancellation aborts evaluation.
func WithContext(ctx context.Context) Option {
	return func(c *queryConfig) { c.ctx = ctx }
}

// WithoutOptimizer disables the logical optimizer — for ablation
// experiments that measure the raw rewritten plans.
func WithoutOptimizer() Option {
	return func(c *queryConfig) { c.noOptimize = true }
}

// WithoutStreaming switches the query to the materializing
// operator-at-a-time executor (every operator's output built as a full
// counted bag), which always runs sequentially. Like the streaming pipeline
// it evaluates an uncorrelated sublink once, hashes an uncorrelated = ANY
// and memoizes a correlated sublink per binding of its free variables. The
// default streaming pipeline produces identical result bags; this executor
// is the reference that differential tests and the benchmark check the
// pipeline against.
func WithoutStreaming() Option {
	return func(c *queryConfig) { c.materialize = true }
}

// WithoutPlanCache compiles the statement as written — no literal lifted,
// no cached plan used or stored. Like WithoutOptimizer and WithoutStreaming
// it is an ablation switch: differential tests run every statement both
// ways.
func WithoutPlanCache() Option {
	return func(c *queryConfig) { c.noPlanCache = true }
}

// ProvGroup describes the provenance columns contributed by one base
// relation access of a PROVENANCE query.
type ProvGroup struct {
	// Relation is the base relation name.
	Relation string
	// Columns are the provenance column names, in result order.
	Columns []string
}

// Result is a materialized query result.
type Result struct {
	// Columns are all result column names; for PROVENANCE queries the
	// original query's columns come first, provenance columns after.
	Columns []string
	// Rows hold the data in the order the plan's output comes in: an
	// ORDER BY, the query's own or a derived table's that a projection or
	// filter passes through, sorts them (ties broken deterministically).
	// Without one they come in engine order, which may differ between
	// executor modes (WithoutStreaming): sort in the caller, or add ORDER
	// BY, where order matters. Values are int64, float64, string, bool or
	// nil. The rows share one backing array, but each is capped at its own
	// length: appending to a row copies it and never writes into the next
	// row. Rows is nil for an empty result.
	Rows [][]any
	// DataColumns is the number of original (non-provenance) columns.
	DataColumns int
	// Provenance describes the provenance column groups (empty for plain
	// queries).
	Provenance []ProvGroup
	// PeakRows is the executor's high-water mark of resident rows for this
	// query (see eval.Stats) — the service layer's /stats endpoint
	// aggregates it.
	PeakRows int64
	// IndexBuilds counts the correlated-selection indexes this statement
	// built, and IndexProbes the selection calls it answered from one (see
	// eval.Stats). An index over a base table is kept with that table
	// version, so a statement that finds one built by an earlier statement
	// probes it without building: IndexBuilds 0, IndexProbes > 0. Both are
	// 0 under WithoutStreaming.
	IndexBuilds, IndexProbes int64
	// Generated counts the input rows of selections the statement answered
	// by generating their Gen strategy CrossBase witnesses instead of
	// enumerating the product (see eval.Stats). 0 under WithoutStreaming.
	Generated int64
}

// snapshot is one consistent (catalog, views) state that a single statement
// compiles and executes against: the whole pipeline (parse, analyze,
// translate, rewrite, optimize, evaluate) observes exactly one version of
// every layer, unaffected by concurrent DDL.
type snapshot struct {
	src   catalog.Snapshot
	views *catalog.State[sql.ViewDef]
	plans *planCache
}

func (sn snapshot) env() sql.Env { return sql.Env{Catalog: sn.src, Views: sn.views} }

func (sc *scope) snapshot() snapshot {
	return snapshot{src: sc.cat.Snapshot(), views: sc.views.Snapshot(), plans: sc.plans}
}

func newQueryConfig(opts []Option) queryConfig {
	// cfg.ctx stays nil unless WithContext supplies one: a bare Query call
	// is not cancelable, and the evaluator treats a nil context as "never
	// canceled" rather than minting a root context here.
	cfg := queryConfig{strategy: Auto, planCheck: DefaultPlanCheck}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Query parses, plans and executes a SQL statement against the scope's
// current snapshot. SELECT PROVENANCE statements are rewritten with the
// configured strategy before execution.
func (sc *scope) Query(query string, opts ...Option) (*Result, error) {
	return sc.snapshot().query(query, newQueryConfig(opts))
}

// QueryContext is Query under a context: cancellation or deadline expiry
// aborts evaluation with an error wrapping eval.ErrCanceled and the
// context's error. It is equivalent to passing WithContext(ctx).
func (sc *scope) QueryContext(ctx context.Context, query string, opts ...Option) (*Result, error) {
	return sc.Query(query, append([]Option{WithContext(ctx)}, opts...)...)
}

// ExecContext is Exec under a context (see QueryContext).
func (sc *scope) ExecContext(ctx context.Context, statement string, opts ...Option) (*Result, error) {
	return sc.Exec(statement, append([]Option{WithContext(ctx)}, opts...)...)
}

// reading is what reading one statement fills: its shape and parameter
// vector (sql.Lexed) and the plan-cache key. Readings are pooled, so that a
// cache hit allocates none of them; one is held until the statement's
// result is made, since its parameters are read until then.
type reading struct {
	lx  sql.Lexed
	key []byte
}

var readings = sync.Pool{New: func() any { return new(reading) }}

// planFor returns the statement's compiled plan and the parameter vector to
// run it with, from the plan cache when it holds a plan of the statement's
// shape that is valid in this snapshot. The hot path is shape, look up,
// validate; a miss parses the lifted statement, compiles it — the plan
// carries algebra.Param leaves where literals were lifted — and admits the
// plan. cached reports a hit. params is rd's, valid while rd is held.
func (sn snapshot) planFor(rd *reading, text string, cfg queryConfig) (p *planned, params []types.Value, cached bool, err error) {
	// An unknown strategy is compile's to report, or to ignore.
	strat, stratErr := cfg.strategy.internal()
	if cfg.noPlanCache || stratErr != nil {
		stmt, err := sql.Parse(text)
		if err != nil {
			return nil, nil, false, err
		}
		if p, err = sn.compile(stmt, cfg); err != nil {
			return nil, nil, false, err
		}
		p.phys = eval.Lower(p.plan)
		return p, nil, false, nil
	}
	family := append(rd.key[:0], byte(strat), '0', '+')
	if cfg.planCheck {
		family[1] = '1'
	}
	if cfg.noOptimize {
		family[2] = '-'
	}
	family, pattern, params, err := rd.lx.Shape(text, family)
	if err != nil {
		return nil, nil, false, err
	}
	rd.key = family[:0]
	if p := sn.plans.lookup(family, pattern, sn); p != nil {
		return p, params, true, nil
	}
	stmt, err := rd.lx.Query()
	if err != nil {
		return nil, nil, false, err
	}
	if p, err = sn.compile(stmt, cfg); err != nil {
		return nil, nil, false, err
	}
	// The statement runs the plan as the cache keeps it, so that a miss and
	// a hit execute the same plan.
	p.pattern = string(pattern)
	return sn.plans.admit(string(family), p, cfg.planCheck), params, false, nil
}

// query runs the full pipeline against one snapshot.
func (sn snapshot) query(text string, cfg queryConfig) (out *Result, err error) {
	rd := readings.Get().(*reading)
	defer readings.Put(rd)
	p, params, _, err := sn.planFor(rd, text, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.planCheck {
		defer func() {
			if p.frozen != 0 && p.fingerprint() != p.frozen {
				out, err = nil, fmt.Errorf("plancheck: frozen: the cached plan changed after the plan cache published it")
			}
		}()
	}
	out = &Result{DataColumns: p.dataCols}
	ev := eval.New(sn.src)
	if cfg.ctx != nil {
		ev = ev.WithContext(cfg.ctx)
	}
	ev.DisableStreaming = cfg.materialize
	ev.Params = params
	relOut, err := ev.Run(p.phys)
	if err != nil {
		return nil, err
	}
	st := ev.LastStats()
	out.PeakRows, out.IndexBuilds, out.IndexProbes, out.Generated = st.PeakRows, st.IndexBuilds, st.IndexProbes, st.Generated
	// Hidden ORDER BY key columns (Translated.Hidden) sit between the
	// visible data columns and any provenance columns. They exist so the
	// plan's Order can evaluate keys the SELECT list does not project; they
	// are stripped from the presented result.
	hiddenStart, hiddenEnd := p.dataCols, p.dataCols+p.hidden
	for i, a := range relOut.Schema.Attrs {
		if i >= hiddenStart && i < hiddenEnd {
			continue
		}
		out.Columns = append(out.Columns, a.Name)
	}
	provCols := out.Columns[p.dataCols:]
	for _, g := range p.prov {
		out.Provenance = append(out.Provenance, ProvGroup{Relation: g.relation, Columns: slices.Clone(provCols[:g.width])})
		provCols = provCols[g.width:]
	}
	tuples := relOut.Tuples()
	if len(tuples) == 0 {
		return out, nil
	}
	// One backing array holds every cell; each row is capped at its end, so
	// an append to a row copies it instead of overwriting the next one.
	cells := make([]any, 0, len(tuples)*len(out.Columns))
	out.Rows = make([][]any, len(tuples))
	for r, t := range tuples {
		start := len(cells)
		for i, v := range t {
			if i >= hiddenStart && i < hiddenEnd {
				continue
			}
			cells = append(cells, fromValue(v))
		}
		out.Rows[r] = cells[start:len(cells):len(cells)]
	}
	return out, nil
}

// StrategyAdvice is the cost model's estimate for one strategy.
type StrategyAdvice struct {
	// Strategy is the rewrite strategy being estimated.
	Strategy Strategy
	// Applicable reports whether the strategy can rewrite this query.
	Applicable bool
	// Cost is a unitless work estimate; lower is better. Comparable only
	// across strategies for the same query.
	Cost float64
	// Reason names the dominant cost term, or why the strategy is
	// inapplicable.
	Reason string
}

// Advise ranks the rewrite strategies for a query using a provenance-aware
// cost model over the catalog's relation cardinalities (the paper's
// future-work direction of making the optimizer cost model
// provenance-aware). The query must not use the PROVENANCE keyword — pass
// the plain query you intend to ask provenance for.
func (sc *scope) Advise(query string) ([]StrategyAdvice, error) {
	return sc.snapshot().advise(query)
}

func (sn snapshot) advise(query string) ([]StrategyAdvice, error) {
	tr, err := sql.CompileEnv(sn.env(), query)
	if err != nil {
		return nil, err
	}
	if tr.Provenance {
		return nil, fmt.Errorf("perm: Advise takes the plain query, without PROVENANCE")
	}
	stats := rewrite.StatsFunc(func(rel string) int {
		r, err := sn.src.Relation(rel)
		if err != nil {
			return 1000
		}
		return r.Card()
	})
	var out []StrategyAdvice
	for _, a := range rewrite.Advise(tr.Plan, stats) {
		out = append(out, StrategyAdvice{
			Strategy:   Strategy(a.Strategy.String()),
			Applicable: a.Applicable,
			Cost:       a.Cost,
			Reason:     a.Reason,
		})
	}
	return out, nil
}

// Explain returns the (optimized) algebra plan of a statement, after the
// provenance rewrite for PROVENANCE queries. The first line says whether the
// plan came from the plan cache ("-- cached") or was compiled for this call
// ("-- compiled"), followed by the values of the parameters that stand for
// lifted literals in it ($1, $2, …), if any.
func (sc *scope) Explain(query string, opts ...Option) (string, error) {
	rd := readings.Get().(*reading)
	defer readings.Put(rd)
	p, params, cached, err := sc.snapshot().planFor(rd, query, newQueryConfig(opts))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if cached {
		b.WriteString("-- cached")
	} else {
		b.WriteString("-- compiled")
	}
	for i, v := range params {
		sep := ", "
		if i == 0 {
			sep = ": "
		}
		fmt.Fprintf(&b, "%s%s = %s", sep, algebra.Param{Idx: i}, algebra.Const{Val: v})
	}
	b.WriteByte('\n')
	b.WriteString(algebra.Indent(p.plan))
	return b.String(), nil
}

// FormatTable renders the result as an aligned text table for CLI output.
func (r *Result) FormatTable() string {
	var b strings.Builder
	widths := make([]int, len(r.Columns))
	cell := func(v any) string {
		if v == nil {
			return "NULL"
		}
		return fmt.Sprintf("%v", v)
	}
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, v := range row {
			if l := len(cell(v)); l > widths[i] {
				widths[i] = l
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	sep := make([]string, len(r.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range r.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = cell(v)
		}
		writeRow(cells)
	}
	return b.String()
}
