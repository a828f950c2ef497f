package fuzz

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"perm"
	"perm/internal/sql"
	"perm/internal/types"
)

// Mode is one executor configuration of the differential matrix.
type Mode struct {
	Name string
	Opts []perm.Option
}

// Modes is the executor matrix every query runs under: the streaming
// pipeline, the materializing reference executor, and the reference
// executor on the plan as translated and rewritten, before the optimizer —
// the one mode an optimizer rule that is wrong for every executor alike
// disagrees with.
var Modes = []Mode{
	{"stream/seq", nil},
	{"mat/seq", []perm.Option{perm.WithoutStreaming()}},
	{"mat/noopt", []perm.Option{perm.WithoutStreaming(), perm.WithoutOptimizer()}},
}

// Strategies is the provenance rewrite matrix.
var Strategies = []perm.Strategy{perm.Gen, perm.Left, perm.Move, perm.Unn, perm.UnnX, perm.Auto}

// MaxProvScans bounds the base-relation accesses of queries that enter the
// provenance strategy matrix (see Check). Variable so the long-budget
// fuzzer can raise it.
var MaxProvScans = 5

// outcome is one (query, strategy, mode) execution result.
type outcome struct {
	err  string   // "" on success
	rows []string // rendered rows in presentation order
	data int      // visible data columns (before provenance columns)
}

// run executes one query of the matrix with the frozen-plan check on
// (perm.WithPlanCheck), so "no run writes into a cached plan" is an oracle
// assertion: a write surfaces as a non-rewrite error and fails the check.
func run(db *perm.DB, q string, opts ...perm.Option) outcome {
	res, err := db.Query(q, append([]perm.Option{perm.WithPlanCheck(true)}, opts...)...)
	if err != nil {
		return outcome{err: err.Error()}
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = renderRow(r)
	}
	return outcome{rows: rows, data: res.DataColumns}
}

func renderRow(r []any) string {
	parts := make([]string, len(r))
	for i, v := range r {
		if v == nil {
			parts[i] = "∅"
		} else {
			parts[i] = fmt.Sprintf("%v", v)
		}
	}
	return strings.Join(parts, "|")
}

// setFingerprint canonicalizes an outcome's distinct rows. Strategies are
// compared as witness sets: the multiplicity of an identical provenance row
// is a rewrite artifact (Gen's CrossBase keeps duplicate base tuples that a
// DISTINCT inside the sublink collapses in Left/Move), but which witness
// tuples appear is the paper's correctness claim. Executor modes of one
// strategy still compare exactly, multiplicities included (see sameRows).
func setFingerprint(rows []string) string {
	return strings.Join(setList(distinctSet(rows)), "\n")
}

// sameRows compares two presented results of one query: as row sequences
// when the query has a top-level ORDER BY, as bags otherwise — SQL defines
// no order without one, and the engine's order differs between executor
// modes.
func sameRows(a, b []string, ordered bool) bool {
	if ordered {
		return slices.Equal(a, b)
	}
	return slices.Equal(slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b)))
}

// isRewriteErr classifies errors raised by the provenance rewrite itself —
// the one legitimate per-strategy failure class (a strategy may be
// inapplicable to a sublink shape, and LIMIT has no provenance semantics).
// Anything else (parse, translate, evaluation) counts as a defect when the
// generator guarantees the query is valid.
func isRewriteErr(msg string) bool { return strings.HasPrefix(msg, "rewrite: ") }

// Check runs one generated query through the full differential matrix and
// returns an error describing the first disagreement (or illegal outcome),
// or nil when every combination agrees.
//
// Assertions, in order:
//  1. The plain query succeeds under every executor mode with the identical
//     presented rows: the identical sequence under a top-level ORDER BY
//     (ties are broken deterministically), the identical bag otherwise
//     (without ORDER BY rows come in engine order, which differs between
//     modes).
//  2. Where top-level ORDER BY keys are visible output columns, the
//     presented sequence is actually sorted by them (NULLs last ascending,
//     first descending).
//  3. For each strategy, SELECT PROVENANCE under every executor mode yields
//     identical outcomes, compared as in 1; rewrite-stage errors are
//     allowed (inapplicable strategy) but must be identical across modes,
//     and no mode may fail where another succeeds.
//  4. Every strategy that succeeds yields the identical provenance witness
//     set (multiplicities of identical provenance rows are rewrite
//     artifacts; see setFingerprint).
//  5. The distinct visible rows of every provenance result equal the
//     distinct rows of the plain result (the rewrite preserves the original
//     result set).
//  6. The plan cache is invisible: the query, a sibling of it — the same
//     statement shape with every lifted literal changed to another value of
//     its kind — and a variant that spells values in both numeric kinds (see
//     MixedKinds) each yield, run twice through the cache (a miss or a hit,
//     then a hit), the presented row sequence or the error they yield
//     WithoutPlanCache — exactly, since the executor mode is the same.
//     Everything above ran through the cache as well, the default, so plans
//     admitted under one executor mode were run by the others.
func Check(db *perm.DB, q *Query) error {
	if err := checkPlanCache(db, q); err != nil {
		return err
	}

	// 1: plain query across executor modes.
	plain := make([]outcome, len(Modes))
	for i, m := range Modes {
		plain[i] = run(db, q.SQL, m.Opts...)
		if plain[i].err != "" {
			return fmt.Errorf("plain/%s failed on a generator-valid query: %s", m.Name, plain[i].err)
		}
	}
	for i := 1; i < len(plain); i++ {
		if !sameRows(plain[0].rows, plain[i].rows, q.Ordered) {
			return fmt.Errorf("plain rows disagree: %s vs %s\n<<< %s\n>>> %s",
				Modes[0].Name, Modes[i].Name, strings.Join(plain[0].rows, " ; "), strings.Join(plain[i].rows, " ; "))
		}
	}

	// 2: semantic order check on the visible keys.
	if len(q.OrderChecks) > 0 {
		if err := checkSorted(plain[0].rows, q.OrderChecks); err != nil {
			return fmt.Errorf("plain result violates ORDER BY: %w", err)
		}
	}

	// 3–5: the provenance matrix. LIMIT/OFFSET queries are excluded up
	// front (the rewrite rejects them for every strategy), and so are
	// queries with more than MaxProvScans base-relation accesses — the Gen
	// strategy's CrossBase cost is exponential in that count, and the
	// matrix must stay cheap enough to run thousands of times per test run.
	// This is a cost cap, not a correctness statement: raise it in the
	// long-budget fuzzer (cmd/permfuzz) to widen coverage.
	if q.UsesLimit || q.Scans > MaxProvScans {
		return nil
	}
	provQ := "SELECT PROVENANCE" + strings.TrimPrefix(q.SQL, "SELECT")
	plainSet := distinctSet(plain[0].rows)
	type stratResult struct {
		strategy perm.Strategy
		bag      string
	}
	var succeeded []stratResult
	for _, s := range Strategies {
		outs := make([]outcome, len(Modes))
		for i, m := range Modes {
			opts := append([]perm.Option{perm.WithStrategy(s)}, m.Opts...)
			outs[i] = run(db, provQ, opts...)
		}
		for i := 1; i < len(outs); i++ {
			if outs[0].err != outs[i].err {
				return fmt.Errorf("%s: error class disagrees: %s says %q, %s says %q",
					s, Modes[0].Name, outs[0].err, Modes[i].Name, outs[i].err)
			}
		}
		if outs[0].err != "" {
			if !isRewriteErr(outs[0].err) {
				return fmt.Errorf("%s failed beyond the rewrite stage: %s", s, outs[0].err)
			}
			continue // strategy legitimately inapplicable
		}
		for i := 1; i < len(outs); i++ {
			if !sameRows(outs[0].rows, outs[i].rows, q.Ordered) {
				return fmt.Errorf("%s: provenance rows disagree between %s and %s\n<<< %s\n>>> %s",
					s, Modes[0].Name, Modes[i].Name, strings.Join(outs[0].rows, " ; "), strings.Join(outs[i].rows, " ; "))
			}
		}
		if len(q.OrderChecks) > 0 {
			if err := checkSorted(outs[0].rows, q.OrderChecks); err != nil {
				return fmt.Errorf("%s: provenance result violates ORDER BY: %w", s, err)
			}
		}
		if got := dataSet(outs[0].rows, outs[0].data); !maps.Equal(plainSet, got) {
			return fmt.Errorf("%s: provenance result's visible rows differ from the plain result\nplain: %v\nprov:  %v",
				s, setList(plainSet), setList(got))
		}
		succeeded = append(succeeded, stratResult{strategy: s, bag: setFingerprint(outs[0].rows)})
	}
	for i := 1; i < len(succeeded); i++ {
		if succeeded[i].bag != succeeded[0].bag {
			return fmt.Errorf("provenance bags disagree: %s vs %s\n<<< %s\n>>> %s",
				succeeded[0].strategy, succeeded[i].strategy, succeeded[0].bag, succeeded[i].bag)
		}
	}
	return nil
}

// checkPlanCache is assertion 6 of Check, over the plain query and, where
// the provenance matrix applies, its SELECT PROVENANCE form under Auto.
func checkPlanCache(db *perm.DB, q *Query) error {
	texts := []string{q.SQL}
	if !q.UsesLimit && q.Scans <= MaxProvScans {
		texts = append(texts, "SELECT PROVENANCE"+strings.TrimPrefix(q.SQL, "SELECT"))
	}
	for _, text := range texts {
		sibling, err := Sibling(text)
		if err != nil {
			return fmt.Errorf("plan cache: %w", err)
		}
		for _, stmt := range []string{text, sibling, MixedKinds(text)} {
			want := run(db, stmt, perm.WithoutPlanCache())
			for _, pass := range []string{"first", "second"} {
				got := run(db, stmt)
				if got.err != want.err || !slices.Equal(got.rows, want.rows) {
					return fmt.Errorf("plan cache: %s run through the cache differs from the run without it: %s\n<<< %s %s\n>>> %s %s",
						pass, stmt, got.err, strings.Join(got.rows, " ; "), want.err, strings.Join(want.rows, " ; "))
				}
			}
		}
	}
	return nil
}

// Sibling returns a statement of the same shape as query (see
// sql.Lexed.Shape) whose lifted literals all have other values: numbers grow
// by one and a half times their slot, strings by a letter per slot — the same
// value for equal literals, and small enough for predicates to stay
// selective.
func Sibling(query string) (string, error) {
	family, pattern, params, err := new(sql.Lexed).Shape(query, nil)
	if err != nil {
		return "", err
	}
	changed := make([]types.Value, len(params))
	for i, v := range params {
		switch v.Kind() {
		case types.KindInt:
			changed[i] = types.NewInt(v.Int() + int64(i+1))
		case types.KindFloat:
			changed[i] = types.NewFloat(v.Float() + 1.5*float64(i+1))
		default:
			changed[i] = types.NewString(v.Str() + strings.Repeat("z", i+1))
		}
	}
	return sql.Unlift(family, pattern, changed), nil
}

// MixedKinds returns query with every second of its lifted numeric literals
// replaced by the one before it in the other numeric kind: `a / 2 … b > 7`
// becomes `a / 2 … b > 2.0`. A value spelled in both kinds is one the plan
// cache must keep apart although the engine compares the two equal. The
// result is another statement, possibly one the analyzer rejects; the oracle
// only compares its outcome with and without the cache. A query that does
// not lex comes back as it is.
func MixedKinds(query string) string {
	family, pattern, params, err := new(sql.Lexed).Shape(query, nil)
	if err != nil {
		return query
	}
	// Every occurrence gets a slot of its own.
	var each []types.Value
	var slots []byte
	var prev *types.Value // the numeric literal waiting for its twin
	for len(pattern) > 0 {
		slot, n := binary.Uvarint(pattern)
		pattern = pattern[n:]
		v := params[slot-1]
		switch {
		case !v.IsNumeric():
		case prev == nil:
			prev = &v
		case prev.Kind() == types.KindInt:
			v, prev = types.NewFloat(prev.Float()), nil
		default:
			v, prev = types.NewInt(prev.Int()), nil
		}
		each = append(each, v)
		slots = binary.AppendUvarint(slots, uint64(len(each)))
	}
	return sql.Unlift(family, slots, each)
}

func distinctSet(rows []string) map[string]bool {
	out := map[string]bool{}
	for _, r := range rows {
		out[r] = true
	}
	return out
}

// dataSet projects rendered provenance rows onto their first data columns.
func dataSet(rows []string, data int) map[string]bool {
	out := map[string]bool{}
	for _, r := range rows {
		parts := strings.Split(r, "|")
		if data < len(parts) {
			parts = parts[:data]
		}
		out[strings.Join(parts, "|")] = true
	}
	return out
}

func setList(s map[string]bool) []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkSorted verifies rendered rows are ordered by the checked key
// columns: NULLs sort last ascending and first descending (the engine's
// documented PostgreSQL-default behaviour). Rendered rows are re-split;
// numeric cells compare numerically.
func checkSorted(rows []string, checks []OrderCheck) error {
	for i := 1; i < len(rows); i++ {
		prev := strings.Split(rows[i-1], "|")
		cur := strings.Split(rows[i], "|")
		for _, c := range checks {
			if c.Col >= len(prev) || c.Col >= len(cur) {
				break
			}
			cmp, ok := compareCells(prev[c.Col], cur[c.Col], c.Desc)
			if !ok {
				break // non-numeric or unparseable: skip the check
			}
			if cmp < 0 {
				break // strictly ordered by this key
			}
			if cmp > 0 {
				return fmt.Errorf("row %d (%s) sorts after row %d (%s) on column %d", i-1, rows[i-1], i, rows[i], c.Col)
			}
			// equal on this key: consult the next one
		}
	}
	return nil
}

// compareCells compares two rendered cells under one sort key: negative
// when a correctly precedes b. NULL handling follows the engine: last for
// ascending keys, first for descending.
func compareCells(a, b string, desc bool) (int, bool) {
	an, bn := a == "∅", b == "∅"
	switch {
	case an && bn:
		return 0, true
	case an:
		if desc {
			return -1, true
		}
		return 1, true
	case bn:
		if desc {
			return 1, true
		}
		return -1, true
	}
	af, aok := parseNum(a)
	bf, bok := parseNum(b)
	cmp := 0
	switch {
	case aok && bok:
		if af < bf {
			cmp = -1
		} else if af > bf {
			cmp = 1
		}
	case !aok && !bok:
		// Neither cell is numeric: compare as strings, matching the
		// engine's lexical string order. The generator's string domain is
		// digit-free, so a string-kinded cell never parses as a number.
		cmp = strings.Compare(a, b)
	default:
		return 0, false // mixed numeric/string cells: skip the check
	}
	if desc {
		cmp = -cmp
	}
	return cmp, true
}

func parseNum(s string) (float64, bool) {
	var f float64
	n, err := fmt.Sscanf(s, "%g", &f)
	return f, err == nil && n == 1
}
