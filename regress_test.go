package perm

import (
	"fmt"
	"strings"
	"testing"

	"perm/internal/tpch"
)

// Regression tests for the bugs fixed alongside the differential fuzzer
// (their minimized fuzz-corpus twins live under
// internal/fuzz/testdata/fuzz-corpus/). Each test fails on the pre-fix
// engine.

// bothEngines runs a subtest under the streaming and the materializing
// executor.
func bothEngines(t *testing.T, fn func(t *testing.T, opts ...Option)) {
	t.Helper()
	t.Run("stream", func(t *testing.T) { fn(t) })
	t.Run("mat", func(t *testing.T) { fn(t, WithoutStreaming()) })
}

func intColumn(t *testing.T, res *Result, col int) []any {
	t.Helper()
	out := make([]any, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r[col]
	}
	return out
}

func wantColumn(t *testing.T, res *Result, col int, want ...any) {
	t.Helper()
	got := intColumn(t, res, col)
	if len(got) != len(want) {
		t.Fatalf("rows = %v, want column %d = %v", res.Rows, col, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rows = %v, want column %d = %v", res.Rows, col, want)
		}
	}
}

// TestOrderByHiddenColumn: `SELECT a FROM r ORDER BY b` must sort by the
// non-projected column (and not leak it into the result). The pre-fix
// engine silently returned canonical (unsorted-by-b) order.
func TestOrderByHiddenColumn(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 30}, {2, 20}, {3, 10}}); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		for _, tc := range []struct {
			q    string
			want []any
		}{
			{`SELECT a FROM r ORDER BY b`, []any{int64(3), int64(2), int64(1)}},
			{`SELECT a FROM r ORDER BY b DESC`, []any{int64(1), int64(2), int64(3)}},
			// Qualified hidden key.
			{`SELECT a FROM r ORDER BY r.b`, []any{int64(3), int64(2), int64(1)}},
			// Hidden key expression.
			{`SELECT a FROM r ORDER BY b + a DESC`, []any{int64(1), int64(2), int64(3)}},
			// Mixed visible and hidden keys.
			{`SELECT a FROM r ORDER BY a < 3, b`, []any{int64(3), int64(2), int64(1)}},
		} {
			res, err := db.Query(tc.q, opts...)
			if err != nil {
				t.Fatalf("%s: %v", tc.q, err)
			}
			if len(res.Columns) != 1 || res.Columns[0] != "a" {
				t.Fatalf("%s: hidden key leaked into columns %v", tc.q, res.Columns)
			}
			wantColumn(t, res, 0, tc.want...)
		}
	})
}

// TestOrderByHiddenColumnLimit: the same hidden key under LIMIT
// hard-errored before the fix ("eval: unknown attribute b").
func TestOrderByHiddenColumnLimit(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 30}, {2, 20}, {3, 10}}); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		res, err := db.Query(`SELECT a FROM r ORDER BY b LIMIT 2`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, int64(3), int64(2))
		res, err = db.Query(`SELECT a FROM r ORDER BY r.b DESC LIMIT 1 OFFSET 1`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, int64(2))
	})
}

// TestOrderByHiddenColumnProvenance: hidden sort keys must work under
// SELECT PROVENANCE — the hidden column sits between the data and the
// provenance columns and is stripped from the result.
func TestOrderByHiddenColumnProvenance(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 30}, {2, 20}, {3, 10}}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT PROVENANCE a FROM r ORDER BY b`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(res.Columns, ",") != "a,prov_r_a,prov_r_b" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if res.DataColumns != 1 {
		t.Fatalf("DataColumns = %d, want 1", res.DataColumns)
	}
	wantColumn(t, res, 0, int64(3), int64(2), int64(1))
	// The provenance columns track the rows, sorted by the hidden key.
	wantColumn(t, res, 2, int64(10), int64(20), int64(30))
}

// TestOrderByAllTiesKeyOrder: when every ORDER BY key ties, the tie-break
// is rel.Tuple.Compare, the order of the tuples' key strings — non-integral
// floats first, then integers with negatives after positives, then NULL —
// under every executor mode, whichever way the key sorts. It is the
// sequence the engine returned when the tie-break built the key strings.
func TestOrderByAllTiesKeyOrder(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{3, 0}, {nil, 0}, {-1, 0}, {1, 0}, {-7, 0}, {2.5, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("s", []string{"c"}, [][]any{{1}, {-1}, {-1}}); err != nil {
		t.Fatal(err)
	}
	want := []any{2.5, int64(1), int64(3), int64(-7), int64(-1), nil}
	for _, mode := range diffModes {
		t.Run(mode.name, func(t *testing.T) {
			for _, q := range []string{
				`SELECT a, b FROM r ORDER BY b`,
				`SELECT a FROM r ORDER BY b DESC`,
				`SELECT a, (SELECT count(*) FROM s WHERE c = a) AS n FROM r ORDER BY b`,
			} {
				res, err := db.Query(q, mode.opts...)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				wantColumn(t, res, 0, want...)
			}
		})
	}
}

// TestOrderByHiddenAggregate: ORDER BY over an aggregate that is not in
// the select list sorts via a hidden column over the aggregation schema.
func TestOrderByHiddenAggregate(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 1}, {2, 1}, {5, 2}}); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		res, err := db.Query(`SELECT b FROM r GROUP BY b ORDER BY sum(a) DESC`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, int64(2), int64(1))
	})
}

// TestOrderByDistinctHiddenErrors: SELECT DISTINCT cannot sort by a
// dropped column (extending the projection would change the distinct
// result) — PostgreSQL's error, at translation time.
func TestOrderByDistinctHiddenErrors(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	_, err := db.Query(`SELECT DISTINCT a FROM r ORDER BY b`)
	if err == nil || !strings.Contains(err.Error(), "DISTINCT") {
		t.Fatalf("err = %v, want the SELECT DISTINCT ORDER BY error", err)
	}
}

// TestSortKeyErrorPropagates: a failing sort-key expression is the query's
// failure. Before the fix, division by zero yielded NULL and the
// presentation sort swallowed evaluation errors, returning rows in
// arbitrary order.
func TestSortKeyErrorPropagates(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a"}, [][]any{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		for _, q := range []string{
			`SELECT a FROM r ORDER BY a / 0`,         // presentation sort path
			`SELECT a FROM r ORDER BY a / 0 LIMIT 1`, // top-k heap / sort-under-limit path
			`SELECT a FROM r ORDER BY a % 0`,
		} {
			_, err := db.Query(q, opts...)
			if err == nil || !strings.Contains(err.Error(), "division by zero") {
				t.Fatalf("%s: err = %v, want division by zero", q, err)
			}
		}
	})
}

// TestCaseWhen: CASE end-to-end — searched and simple forms, missing
// ELSE, nesting, predicate position, aggregation arguments.
func TestCaseWhen(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 10}, {2, 20}, {nil, 30}}); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		for _, tc := range []struct {
			q    string
			want []any
		}{
			{`SELECT CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'other' END AS x FROM r ORDER BY b`,
				[]any{"one", "two", "other"}},
			// Simple form: operand compared with =; NULL operand matches no
			// branch.
			{`SELECT CASE a WHEN 1 THEN b ELSE 0 END AS x FROM r ORDER BY b`,
				[]any{int64(10), int64(0), int64(0)}},
			// No ELSE: NULL.
			{`SELECT CASE WHEN a IS NULL THEN 1 END AS x FROM r ORDER BY b`,
				[]any{nil, nil, int64(1)}},
			// Predicate position, three-valued conditions (NULL > 1 is
			// unknown, so the branch does not fire).
			{`SELECT b FROM r WHERE CASE WHEN a > 1 THEN TRUE ELSE FALSE END ORDER BY b`,
				[]any{int64(20)}},
			// Nested CASE inside an aggregate argument.
			{`SELECT sum(CASE WHEN a IS NULL THEN 0 ELSE CASE WHEN a > 1 THEN a ELSE 0 END END) AS s FROM r`,
				[]any{int64(2)}},
		} {
			res, err := db.Query(tc.q, opts...)
			if err != nil {
				t.Fatalf("%s: %v", tc.q, err)
			}
			wantColumn(t, res, 0, tc.want...)
		}
	})
	// Parse error shape: missing END.
	if _, err := db.Query(`SELECT CASE WHEN a = 1 THEN 2 FROM r`); err == nil {
		t.Fatal("CASE without END should be a parse error")
	}
}

// TestGroupByDuplicateColumnNames: GROUP BY over equally-named columns of
// two relations (fuzzer-found): the post-aggregation schema was ambiguous
// ("eval: ambiguous attribute reference a in (a, a, …)").
func TestGroupByDuplicateColumnNames(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 1}, {1, 2}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		res, err := db.Query(
			`SELECT x.a AS xa, y.a AS ya, count(*) AS n FROM r AS x, r AS y GROUP BY x.a, y.a ORDER BY xa, ya`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 2, int64(4), int64(2), int64(2), int64(1))
	})
}

// TestInternalNamesCannotCollide: translator-internal attribute names
// (grouping columns, hidden sort keys, aggregate results) contain '#',
// which the lexer rejects in identifiers — so user columns or aliases
// spelled like the old internal names ("g1", "ord1") stay unambiguous.
func TestInternalNamesCannotCollide(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"g1", "ord1"}, [][]any{{1, 10}, {1, 20}, {2, 30}}); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		// Hidden sort key alongside an alias spelled like the old fresh name.
		res, err := db.Query(`SELECT g1 AS ord1 FROM r ORDER BY ord1 DESC, r.ord1`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, int64(2), int64(1), int64(1))
		// Two grouping columns both named g1 next to a user column g1.
		res, err = db.Query(
			`SELECT x.g1 AS p, y.g1 AS q, count(*) AS n FROM r AS x, r AS y GROUP BY x.g1, y.g1 ORDER BY p, q`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 2, int64(4), int64(2), int64(2), int64(1))
	})
}

// TestGenProjectionSublinkUnknown: a projected sublink whose value is
// Unknown (NULL test value) must keep its row with NULL provenance under
// the Gen strategy, exactly as Left and Move do (fuzzer-found: Gen dropped
// the row because the paper's ¬EXISTS(Tsub) empty-case never fired).
func TestGenProjectionSublinkUnknown(t *testing.T) {
	db := Open()
	if err := db.Register("t", []string{"e", "f"}, [][]any{{1, 2}, {7, nil}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("s", []string{"c", "d"}, [][]any{{2, 0}}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT PROVENANCE e, f = ANY (SELECT c FROM s) AS m FROM t`,
		`SELECT PROVENANCE e, CASE WHEN f IN (SELECT c FROM s) THEN 1 ELSE 0 END AS m FROM t`,
		`SELECT PROVENANCE e FROM t WHERE e = 7 OR f = ANY (SELECT c FROM s)`,
	} {
		checkDifferential(t, db, q)
	}
	// The Unknown row is present, with NULL sublink provenance.
	res, err := db.Query(`SELECT PROVENANCE e, f = ANY (SELECT c FROM s) AS m FROM t`, WithStrategy(Gen))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Rows {
		if row[0] == int64(7) && row[1] == nil && row[4] == nil && row[5] == nil {
			found = true
		}
	}
	if !found {
		t.Fatalf("Gen dropped the Unknown-sublink row: %v", res.Rows)
	}
}

// TestOrderByOrdinal: `ORDER BY 1` must sort by the first projected column.
// Before the semantic-analysis pass the ordinal parsed as the constant 1 —
// a no-op sort key — and the query silently returned unsorted rows.
func TestOrderByOrdinal(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{2, 20}, {1, 30}, {3, 10}}); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		for _, tc := range []struct {
			q    string
			want []any
		}{
			{`SELECT a FROM r ORDER BY 1 DESC`, []any{int64(3), int64(2), int64(1)}},
			{`SELECT a FROM r ORDER BY 1`, []any{int64(1), int64(2), int64(3)}},
			{`SELECT a, b FROM r ORDER BY 2`, []any{int64(3), int64(2), int64(1)}},
			{`SELECT a + 10 AS x FROM r ORDER BY 1 DESC`, []any{int64(13), int64(12), int64(11)}},
			{`SELECT * FROM r ORDER BY 2 DESC`, []any{int64(1), int64(2), int64(3)}},
			{`SELECT a FROM r ORDER BY 1 DESC LIMIT 2`, []any{int64(3), int64(2)}},
		} {
			res, err := db.Query(tc.q, opts...)
			if err != nil {
				t.Fatalf("%s: %v", tc.q, err)
			}
			wantColumn(t, res, 0, tc.want...)
		}
	})
}

// TestOrderByOrdinalRange: an out-of-range ordinal must be an error, as in
// PostgreSQL — before the fix `ORDER BY 5` was silently ignored.
func TestOrderByOrdinalRange(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		for q, want := range map[string]string{
			`SELECT a FROM r ORDER BY 5`:    "ORDER BY position 5 is not in select list",
			`SELECT a FROM r ORDER BY 0`:    "ORDER BY position 0 is not in select list",
			`SELECT a FROM r ORDER BY 1.5`:  "non-integer constant in ORDER BY",
			`SELECT a, b FROM r GROUP BY 3`: "GROUP BY position 3 is not in select list",
		} {
			_, err := db.Query(q, opts...)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error = %v, want %q", q, err, want)
			}
		}
	})
}

// TestGroupByOrdinal: `GROUP BY 1` must group by the first projected column.
// Before the fix it grouped by the constant 1 and the projection of b then
// hard-errored with a leaked internal name ("unknown attribute b (scope
// (g#1, agg#2), …)").
func TestGroupByOrdinal(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 10}, {2, 10}, {3, 20}}); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		res, err := db.Query(`SELECT b, sum(a) FROM r GROUP BY 1 ORDER BY 1`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, int64(10), int64(20))
		wantColumn(t, res, 1, int64(3), int64(3))
		res, err = db.Query(`SELECT b AS g, count(*) AS n FROM r GROUP BY 1 ORDER BY 2 DESC, 1`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, int64(10), int64(20))
	})
}

// TestIntOverflow: int64 arithmetic and sum must raise PostgreSQL's
// "bigint out of range" instead of silently wrapping around.
func TestIntOverflow(t *testing.T) {
	db := Open()
	max := int64(9223372036854775807)
	if err := db.Register("big", []string{"v"}, [][]any{{max}, {1}}); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		for _, q := range []string{
			`SELECT v + 1 FROM big`,
			`SELECT sum(v) FROM big`,
			`SELECT v * 3 FROM big`,
			`SELECT 0 - v - 2 FROM big`,
			`SELECT 9223372036854775807 + 1`,
		} {
			_, err := db.Query(q, opts...)
			if err == nil || !strings.Contains(err.Error(), "bigint out of range") {
				t.Fatalf("%s: error = %v, want bigint out of range", q, err)
			}
		}
		// Non-overflowing paths still work, and float sums do not overflow.
		res, err := db.Query(`SELECT sum(v - 1) FROM big`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, max-1)
	})
	// sum overflow is decided by the exact total, not by intermediate
	// prefixes: {max, 1, -2} sums to max-1 regardless of the accumulation
	// order the executor happens to use.
	if err := db.Register("mixed", []string{"v"}, [][]any{{max}, {1}, {-2}}); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		res, err := db.Query(`SELECT sum(v) FROM mixed`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, max-1)
	})
}

// TestCrossTypeComparison: comparing a string column against a number was
// silently Unknown (filtering every row); it must be a typed error, and the
// same error under both executors and every provenance strategy.
func TestCrossTypeComparison(t *testing.T) {
	db := Open()
	if err := db.Register("u", []string{"n"}, [][]any{{"x"}, {"y"}}); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		for _, q := range []string{
			`SELECT n FROM u WHERE n = 1`,
			`SELECT n FROM u WHERE n > 1`,
			`SELECT n FROM u WHERE 'x' > 1`,
			`SELECT n FROM u WHERE n IN (1, 2)`,
			`SELECT n FROM u WHERE n BETWEEN 1 AND 2`,
		} {
			_, err := db.Query(q, opts...)
			if err == nil || !strings.Contains(err.Error(), "operator does not exist") {
				t.Fatalf("%s: error = %v, want operator does not exist", q, err)
			}
		}
	})
	// The error is raised at analysis, so every strategy × executor agrees.
	for _, s := range []Strategy{Gen, Left, Move, Unn, UnnX, Auto} {
		_, err := db.Query(`SELECT PROVENANCE n FROM u WHERE n > 1`, WithStrategy(s))
		if err == nil || !strings.Contains(err.Error(), "operator does not exist: string > integer") {
			t.Fatalf("%s: error = %v, want operator does not exist", s, err)
		}
	}
}

// TestAnalyzerErrorsNameUserColumns: analyzer errors must name the column
// the user wrote, with a source position — never translator-internal
// attribute names (which contain '#').
func TestAnalyzerErrorsNameUserColumns(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	for q, want := range map[string]string{
		`SELECT b, sum(a) FROM r`:                           `column "b" must appear in the GROUP BY clause or be used in an aggregate function`,
		`SELECT b, sum(a) FROM r GROUP BY a`:                `column "b" must appear in the GROUP BY clause`,
		`SELECT a FROM r GROUP BY a ORDER BY r.b`:           `column "r.b" must appear in the GROUP BY clause`,
		`SELECT missing FROM r`:                             `column "missing" does not exist`,
		`SELECT r.missing FROM r`:                           `column "r.missing" does not exist`,
		`SELECT x.a FROM r AS x, r AS y WHERE c=1`:          `column "c" does not exist`,
		`SELECT a FROM r AS x, r AS y`:                      `column reference "a" is ambiguous`,
		`SELECT sum(a) FROM r WHERE sum(a) > 0`:             `aggregate functions are not allowed in WHERE`,
		`SELECT sum(sum(a)) FROM r`:                         `aggregate function calls cannot be nested`,
		`SELECT nosuch(a) FROM r`:                           `function nosuch(integer) does not exist`,
		`SELECT upper(a) FROM r`:                            `function upper(integer) does not exist`,
		`SELECT CAST(a AS nosuchtype) FROM r`:               `type "nosuchtype" does not exist`,
		`SELECT a FROM r WHERE a`:                           `argument of WHERE must be type boolean, not type integer`,
		`SELECT a FROM r WHERE a AND TRUE`:                  `argument of AND must be type boolean, not type integer`,
		`SELECT a || b FROM r`:                              `operator does not exist: integer || integer`,
		`SELECT a FROM r WHERE a LIKE 'x'`:                  `operator does not exist: integer LIKE`,
		`SELECT CASE WHEN a = 1 THEN 1 ELSE 'x' END FROM r`: `CASE types integer and string cannot be matched`,
		`SELECT a FROM r UNION SELECT 'x'`:                  `UNION types integer and string cannot be matched`,
	} {
		_, err := db.Query(q)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error = %v, want %q", q, err, want)
		}
		if strings.Contains(err.Error(), "#") {
			t.Fatalf("%s: error leaks internal names: %v", q, err)
		}
	}
	// Positions are reported where the offending token sits.
	_, err := db.Query(`SELECT missing FROM r`)
	if err == nil || !strings.Contains(err.Error(), "position 8") {
		t.Fatalf("error should carry position 8, got %v", err)
	}
}

// TestStringExpressions: the string operator/function surface — ||, LIKE,
// upper/lower/length/substr, CAST — end to end, including NULL propagation
// and FROM-less SELECT.
func TestStringExpressions(t *testing.T) {
	db := Open()
	if err := db.Register("u", []string{"g", "h"}, [][]any{{"ab", 1}, {"cd", 2}, {nil, 3}}); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		for _, tc := range []struct {
			q    string
			want []any
		}{
			{`SELECT 'a' || 'b' || 'c'`, []any{"abc"}},
			{`SELECT upper('ab') || lower('CD')`, []any{"ABcd"}},
			{`SELECT length('hello')`, []any{int64(5)}},
			{`SELECT substr('hello', 2, 3)`, []any{"ell"}},
			{`SELECT substr('hello', 0, 2)`, []any{"h"}},
			{`SELECT substr('hello', 4)`, []any{"lo"}},
			{`SELECT CAST(12 AS string) || '!'`, []any{"12!"}},
			{`SELECT CAST('42' AS integer) + 1`, []any{int64(43)}},
			{`SELECT CAST('1.5' AS float) * 2`, []any{2 * 1.5}},
			{`SELECT CAST(TRUE AS integer)`, []any{int64(1)}},
			{`SELECT CAST('t' AS boolean)`, []any{true}},
			{`SELECT g || 'x' AS gx FROM u WHERE h = 1`, []any{"abx"}},
			{`SELECT g FROM u WHERE g LIKE 'a%'`, []any{"ab"}},
			{`SELECT g FROM u WHERE g LIKE '_b'`, []any{"ab"}},
			{`SELECT g FROM u WHERE g NOT LIKE '%b%' ORDER BY 1`, []any{"cd"}},
			{`SELECT h FROM u WHERE g IS NULL`, []any{int64(3)}},
			{`SELECT upper(g) FROM u WHERE h = 2`, []any{"CD"}},
			{`SELECT g || 'x' AS e FROM u WHERE h = 3`, []any{nil}},
			{`SELECT h FROM u ORDER BY g DESC LIMIT 1`, []any{int64(3)}},
			{`SELECT min(g) FROM u`, []any{"ab"}},
			{`SELECT max(g) || '!' FROM u`, []any{"cd!"}},
		} {
			res, err := db.Query(tc.q, opts...)
			if err != nil {
				t.Fatalf("%s: %v", tc.q, err)
			}
			wantColumn(t, res, 0, tc.want...)
		}
		// Runtime cast errors carry PostgreSQL's message.
		_, err := db.Query(`SELECT CAST(g AS integer) FROM u`, opts...)
		if err == nil || !strings.Contains(err.Error(), "invalid input syntax for type integer") {
			t.Fatalf("cast error = %v", err)
		}
	})
}

// TestStringProvenance: string functions, CAST and LIKE under SELECT
// PROVENANCE yield identical witness sets across every strategy and
// executor mode.
func TestStringProvenance(t *testing.T) {
	db := Open()
	if err := db.Register("u", []string{"g", "h"}, [][]any{{"ab", 1}, {"cd", 2}, {"ae", 2}, {nil, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 1}, {2, 1}, {3, 2}}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT PROVENANCE upper(g) AS s FROM u WHERE g LIKE 'a%'`,
		`SELECT PROVENANCE g || 'x' AS s FROM u WHERE h = ANY (SELECT a FROM r)`,
		`SELECT PROVENANCE g FROM u WHERE EXISTS (SELECT a FROM r WHERE a = length(g))`,
		`SELECT PROVENANCE CAST(h AS string) || g AS s FROM u WHERE h IN (SELECT b FROM r)`,
		`SELECT PROVENANCE substr(g, 1, 1) AS s, count(*) AS n FROM u GROUP BY 1 ORDER BY 1`,
	} {
		checkDifferential(t, db, q)
	}
}

// TestFromlessSelect: SELECT without FROM evaluates over one empty tuple.
func TestFromlessSelect(t *testing.T) {
	db := Open()
	bothEngines(t, func(t *testing.T, opts ...Option) {
		res, err := db.Query(`SELECT 1 + 2 AS x, 'a' || 'b' AS s`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != int64(3) || res.Rows[0][1] != "ab" {
			t.Fatalf("rows = %v", res.Rows)
		}
		// A FROM-less subquery works as a scalar and in set operations.
		if err := db.Register("r", []string{"a"}, [][]any{{1}, {2}}); err != nil {
			t.Fatal(err)
		}
		res, err = db.Query(`SELECT a FROM r WHERE a = (SELECT 2)`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, int64(2))
		res, err = db.Query(`SELECT a FROM r UNION SELECT 5 ORDER BY 1`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, int64(1), int64(2), int64(5))
	})
}

// TestGroupingShadowedColumn: an inner-scope column that shadows an outer
// grouping column must type as the inner column — the analyzer's grouping
// shortcut must not capture it (review-found).
func TestGroupingShadowedColumn(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a"}, [][]any{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("s", []string{"a"}, [][]any{{"x"}, {"yy"}}); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		// The inner a is s.a (string): LIKE over it is well-typed even
		// though the outer block groups by the integer r.a.
		res, err := db.Query(
			`SELECT count(*) AS n FROM r GROUP BY a HAVING EXISTS (SELECT a FROM s WHERE a LIKE 'x%')`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, int64(1), int64(1))
		// Conversely, integer arithmetic over the shadowed string column
		// must be the error.
		_, err = db.Query(
			`SELECT count(*) AS n FROM r GROUP BY a HAVING EXISTS (SELECT a FROM s WHERE a + 1 > 0)`, opts...)
		if err == nil || !strings.Contains(err.Error(), "operator does not exist") {
			t.Fatalf("err = %v, want operator does not exist", err)
		}
	})
}

// TestOrderByOrdinalDuplicateNames: an ordinal names a position, so
// duplicate output column names are no ambiguity (review-found).
func TestOrderByOrdinalDuplicateNames(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{2, 1}, {1, 2}}); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		res, err := db.Query(`SELECT a, a FROM r ORDER BY 1`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, int64(1), int64(2))
		res, err = db.Query(`SELECT * FROM r AS x, r AS y ORDER BY 1 DESC, 4`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, int64(2), int64(2), int64(1), int64(1))
	})
}

// TestOrdinalOverLiteralColumn: an ordinal resolving to a literal select
// column must stay stable under re-analysis — views analyze their stored
// body on every referencing query, so a naive substitution would turn
// `SELECT a, 5 ... ORDER BY 2` into `ORDER BY 5` and break the view
// forever (review-found).
func TestOrdinalOverLiteralColumn(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a"}, [][]any{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("v", `SELECT a, 5 FROM r ORDER BY 2`); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("w", `SELECT 5, count(*) FROM r GROUP BY 1`); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		for i := 0; i < 3; i++ { // every use re-analyzes the stored body
			res, err := db.Query(`SELECT * FROM v ORDER BY 1`, opts...)
			if err != nil {
				t.Fatalf("use %d: %v", i, err)
			}
			wantColumn(t, res, 0, int64(1), int64(2))
			res, err = db.Query(`SELECT * FROM w`, opts...)
			if err != nil {
				t.Fatalf("use %d: %v", i, err)
			}
			wantColumn(t, res, 1, int64(2))
		}
	})
}

// TestOrderByOrdinalDuplicateAliases: an ordinal over duplicate output
// aliases keeps its positional meaning (review-found).
func TestOrderByOrdinalDuplicateAliases(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 2}, {2, 1}}); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		res, err := db.Query(`SELECT a AS x, b AS x FROM r ORDER BY 2`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, int64(2), int64(1))
	})
}

// TestSubstrHugeCount: substr with a count near int64 max must clamp to
// the string instead of overflowing into an empty result (review-found).
func TestSubstrHugeCount(t *testing.T) {
	db := Open()
	bothEngines(t, func(t *testing.T, opts ...Option) {
		res, err := db.Query(`SELECT substr('hello', 2, 9223372036854775807) AS s`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, "ello")
	})
}

// TestOrderByOrdinalAliasShadowsColumn: an ordinal whose target's alias
// shadows a source column name must still sort by the output position —
// substituting the alias verbatim re-resolved to the wrong column
// (review-found).
func TestOrderByOrdinalAliasShadowsColumn(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 30}, {2, 20}, {3, 10}}); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		res, err := db.Query(`SELECT a AS b, b AS a FROM r ORDER BY 1`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, int64(1), int64(2), int64(3))
		res, err = db.Query(`SELECT a AS b, b AS a FROM r ORDER BY 1 DESC`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, int64(3), int64(2), int64(1))
	})
}

// TestStarOrdinalDuplicateTables: a star ordinal over a duplicated
// unaliased table is a clean analysis-time ambiguity error (PostgreSQL
// rejects the FROM list outright) instead of a runtime error leaking
// internal scope names (review-found).
func TestStarOrdinalDuplicateTables(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	_, err := db.Query(`SELECT * FROM r, r ORDER BY 3`)
	if err == nil || !strings.Contains(err.Error(), `column reference "r.a" is ambiguous`) ||
		!strings.Contains(err.Error(), "position") || strings.Contains(err.Error(), "#") {
		t.Fatalf("err = %v, want a positioned ambiguity error without internal names", err)
	}
}

// TestGroupingAggArgSubquery: correlated references made from inside an
// aggregate argument — including via nested subqueries — are exempt from
// the grouping rule, and qualified/unqualified spellings of one grouping
// expression match (review-found).
func TestGroupingAggArgSubquery(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 1}, {2, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("s", []string{"c", "d"}, [][]any{{10, 1}, {20, 2}}); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		// b is ungrouped but appears only inside the aggregate's argument,
		// correlated through a subquery.
		res, err := db.Query(
			`SELECT a, sum(a + (SELECT max(c) FROM s WHERE d = b)) AS x FROM r GROUP BY a ORDER BY 1`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 1, int64(11), int64(22))
		// Qualified GROUP BY expression, unqualified select-list spelling —
		// and the converse.
		res, err = db.Query(`SELECT a + 1 AS x FROM r GROUP BY r.a + 1 ORDER BY 1`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, int64(2), int64(3))
		res, err = db.Query(`SELECT r.a + 1 AS x FROM r GROUP BY a + 1 ORDER BY 1`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, int64(2), int64(3))
		// The rule still fires for genuinely ungrouped references.
		_, err = db.Query(`SELECT b + 1 FROM r GROUP BY a + 1`, opts...)
		if err == nil || !strings.Contains(err.Error(), "must appear in the GROUP BY clause") {
			t.Fatalf("err = %v, want grouping error", err)
		}
	})
}

// TestGroupedSublinkReferences: output-clause sublinks of a grouped query —
// qualified correlated references to a grouping column, and a GROUP BY
// ordinal sharing the select-list subquery — execute instead of failing
// with leaked internal names (review-found).
func TestGroupedSublinkReferences(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 1}, {2, 1}, {3, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("u", []string{"g", "h"}, [][]any{{"x", 1}, {"y", 1}, {"z", 2}}); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		// Qualified correlated reference to the grouping column.
		res, err := db.Query(
			`SELECT b, (SELECT count(*) FROM u WHERE h = r.b) AS n FROM r GROUP BY b ORDER BY 1`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 1, int64(2), int64(1))
		// GROUP BY ordinal sharing the select-list subquery expression.
		res, err = db.Query(
			`SELECT (SELECT count(*) FROM u WHERE h = r.a) AS k FROM r GROUP BY 1 ORDER BY 1`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, int64(0), int64(1), int64(2))
		// An aggregate over only outer columns inside an output sublink is
		// beyond the engine (PostgreSQL treats it as an outer aggregate);
		// it must be a clean analysis error, not an internal-name leak.
		_, err = db.Query(`SELECT b, (SELECT sum(r.a) FROM u) FROM r GROUP BY b`, opts...)
		if err == nil || !strings.Contains(err.Error(), "must appear in the GROUP BY clause") ||
			strings.Contains(err.Error(), "#") {
			t.Fatalf("err = %v, want clean grouping error", err)
		}
	})
}

// TestNegativeOrdinal: ORDER BY -1 / GROUP BY -1 must error like any other
// out-of-range position — the unary minus folds into the constant, as in
// PostgreSQL (review-found silent no-op).
func TestNegativeOrdinal(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a"}, [][]any{{1}}); err != nil {
		t.Fatal(err)
	}
	for q, want := range map[string]string{
		`SELECT a FROM r ORDER BY -1`: "ORDER BY position -1 is not in select list",
		`SELECT a FROM r GROUP BY -2`: "GROUP BY position -2 is not in select list",
	} {
		_, err := db.Query(q)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: err = %v, want %q", q, err, want)
		}
	}
	// A negated literal as a select column survives re-analysis in a view.
	if err := db.CreateView("nv", `SELECT a, -5 FROM r ORDER BY 2`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := db.Query(`SELECT * FROM nv`)
		if err != nil {
			t.Fatalf("use %d: %v", i, err)
		}
		wantColumn(t, res, 1, int64(-5))
	}
}

// TestConcurrentViewDDL: queries racing with CREATE/DROP VIEW must be safe
// — the views map is replaced under a lock, never mutated in place (run
// under -race in CI).
func TestConcurrentViewDDL(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a"}, [][]any{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("v0", `SELECT a FROM r ORDER BY 1`); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			name := fmt.Sprintf("v%d", i+1)
			if err := db.CreateView(name, `SELECT a, 5 FROM r GROUP BY 1 ORDER BY 1`); err != nil {
				t.Error(err)
				return
			}
			if _, err := db.Exec("DROP VIEW " + name); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
			if _, err := db.Query(`SELECT * FROM v0`); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestOrderByAggregateOverAlias: an ORDER BY aggregate's argument is
// computed below the projection, so output aliases are not visible in it —
// a clean analysis error, as in PostgreSQL, not a leaked internal name at
// run time (review-found).
func TestOrderByAggregateOverAlias(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	_, err := db.Query(`SELECT a AS x FROM r GROUP BY a ORDER BY sum(x)`)
	if err == nil || !strings.Contains(err.Error(), `column "x" does not exist`) ||
		strings.Contains(err.Error(), "#") {
		t.Fatalf("err = %v, want a clean unknown-column error", err)
	}
	// The source column itself stays fine.
	if _, err := db.Query(`SELECT a AS x FROM r GROUP BY a ORDER BY sum(b)`); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentCreateViews: concurrent CREATE VIEWs must not lose each
// other's registrations (review-found lost update).
func TestConcurrentCreateViews(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a"}, [][]any{{1}}); err != nil {
		t.Fatal(err)
	}
	const n = 20
	errs := make(chan error, 2*n)
	for w := 0; w < 2; w++ {
		go func(w int) {
			for i := 0; i < n; i++ {
				errs <- db.CreateView(fmt.Sprintf("w%dv%d", w, i), `SELECT a FROM r`)
			}
		}(w)
	}
	for i := 0; i < 2*n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := len(db.Views()); got != 2*n {
		t.Fatalf("views = %d, want %d (lost concurrent registrations)", got, 2*n)
	}
}

// TestOrderByDuplicateIdenticalColumns: duplicate output columns that
// denote the same expression are no ambiguity for a bare ORDER BY name
// (review-found regression against the pre-analyzer engine).
func TestOrderByDuplicateIdenticalColumns(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a"}, [][]any{{2}, {1}}); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		for _, q := range []string{
			`SELECT a, a FROM r ORDER BY a`,
			`SELECT a, r.a FROM r ORDER BY a`,
		} {
			res, err := db.Query(q, opts...)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			wantColumn(t, res, 0, int64(1), int64(2))
		}
	})
	// Different expressions under one name stay ambiguous, as in PostgreSQL.
	if err := db.Register("s", []string{"a", "b"}, [][]any{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	_, err := db.Query(`SELECT a AS x, b AS x FROM s ORDER BY x`)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("err = %v, want ambiguity error", err)
	}
}

// TestOrderByAliasPrecedence: a bare ORDER BY name that is both an output
// alias and a source column resolves to the output alias, as in PostgreSQL
// (review-found silent wrong order under swapped aliases).
func TestOrderByAliasPrecedence(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 30}, {2, 20}, {3, 10}}); err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		res, err := db.Query(`SELECT a AS b, b AS a FROM r ORDER BY a`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		// ORDER BY a names the output alias (source b values ascending).
		wantColumn(t, res, 0, int64(3), int64(2), int64(1))
		// Inside an expression the name resolves to the source column.
		res, err = db.Query(`SELECT a AS b, b AS a FROM r ORDER BY a + 0`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, int64(1), int64(2), int64(3))
	})
	// Narrow numeric type spellings are rejected rather than silently
	// widened to 64 bits.
	for _, q := range []string{
		`SELECT CAST(70000 AS smallint)`,
		`SELECT CAST(5000000000 AS int4)`,
		`SELECT CAST(1 AS real)`,
	} {
		if _, err := db.Query(q); err == nil || !strings.Contains(err.Error(), "does not exist") {
			t.Fatalf("%s: err = %v, want type-does-not-exist", q, err)
		}
	}
}

// --- plan cache ---
//
// Every statement below runs three times — through the cache (a miss or a
// hit), through it again (a hit), and WithoutPlanCache — and must come out
// the same each way: columns, rows in order, or the error text. The
// statements of a test run in order against one database, so a later one
// meets whatever plans the earlier ones left in the cache.

// sameWithAndWithoutPlanCache runs one statement the three ways and returns
// the outcome all of them agreed on.
func sameWithAndWithoutPlanCache(t *testing.T, r interface {
	Query(string, ...Option) (*Result, error)
}, q string, opts ...Option) (*Result, error) {
	t.Helper()
	render := func(res *Result, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("%v %d %v %v", res.Columns, res.DataColumns, res.Provenance, res.Rows)
	}
	want, wantErr := r.Query(q, append([]Option{WithoutPlanCache()}, opts...)...)
	for _, pass := range []string{"first", "second"} {
		got, err := r.Query(q, opts...)
		if render(got, err) != render(want, wantErr) {
			t.Fatalf("%s\n%s run through the plan cache: %s\nwithout the plan cache:        %s", q, pass, render(got, err), render(want, wantErr))
		}
	}
	return want, wantErr
}

func planCacheFixture(t *testing.T) *DB {
	t.Helper()
	db := Open()
	if err := db.Register("r", []string{"a", "b", "s"}, [][]any{{1, 30, "x"}, {2, 20, "y"}, {3, 10, "x"}, {4, 20, nil}}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestPlanCacheKeepsSteeringLiterals: a literal whose value steers
// compilation is part of the shape, so two statements that differ in one
// never share a plan — ordinals, LIMIT and OFFSET, NULL/TRUE/FALSE,
// select-list literals, CAST targets.
func TestPlanCacheKeepsSteeringLiterals(t *testing.T) {
	db := planCacheFixture(t)
	for _, tc := range []struct {
		q    string
		col  int
		want []any // column col of the result; nil when wantErr is set
		err  string
	}{
		{q: `SELECT a, b FROM r ORDER BY 1`, want: []any{int64(1), int64(2), int64(3), int64(4)}},
		{q: `SELECT a, b FROM r ORDER BY 2, 1`, want: []any{int64(3), int64(2), int64(4), int64(1)}},
		{q: `SELECT a, b FROM r ORDER BY (2), (1)`, want: []any{int64(3), int64(2), int64(4), int64(1)}},
		{q: `SELECT a, b FROM r ORDER BY 3`, err: "ORDER BY position 3 is not in select list"},
		{q: `SELECT a, b FROM r ORDER BY -1`, err: "ORDER BY position -1 is not in select list"},
		{q: `SELECT b, count(*) FROM r GROUP BY 1 ORDER BY 1`, want: []any{int64(10), int64(20), int64(30)}},
		{q: `SELECT b, count(*) FROM r GROUP BY 2 ORDER BY 1`, err: "aggregate functions are not allowed in GROUP BY"},
		{q: `SELECT a FROM r ORDER BY a LIMIT 1`, want: []any{int64(1)}},
		{q: `SELECT a FROM r ORDER BY a LIMIT 2`, want: []any{int64(1), int64(2)}},
		{q: `SELECT a FROM r ORDER BY a LIMIT 2 OFFSET 1`, want: []any{int64(2), int64(3)}},
		{q: `SELECT a FROM r ORDER BY a LIMIT 2 OFFSET 2`, want: []any{int64(3), int64(4)}},
		{q: `SELECT a FROM r WHERE (s = 'x') = TRUE ORDER BY a`, want: []any{int64(1), int64(3)}},
		{q: `SELECT a FROM r WHERE (s = 'x') = FALSE ORDER BY a`, want: []any{int64(2)}},
		{q: `SELECT a FROM r WHERE (s = 'x') IS NULL ORDER BY a`, want: []any{int64(4)}},
		{q: `SELECT CASE WHEN a = 1 THEN NULL ELSE a END FROM r ORDER BY a`, want: []any{nil, int64(2), int64(3), int64(4)}},
		{q: `SELECT a, 5 FROM r ORDER BY 2, 1`, col: 1, want: []any{int64(5), int64(5), int64(5), int64(5)}},
		{q: `SELECT a, 7 FROM r ORDER BY 2, 1`, col: 1, want: []any{int64(7), int64(7), int64(7), int64(7)}},
		{q: `SELECT 'k', a FROM r ORDER BY 1, 2`, want: []any{"k", "k", "k", "k"}},
		{q: `SELECT 'm', a FROM r ORDER BY 1, 2`, want: []any{"m", "m", "m", "m"}},
		{q: `SELECT 1`, want: []any{int64(1)}},
		{q: `SELECT 2`, want: []any{int64(2)}},
		{q: `SELECT -2`, want: []any{int64(-2)}},
		{q: `SELECT CAST(a AS text) FROM r ORDER BY a`, want: []any{"1", "2", "3", "4"}},
		{q: `SELECT CAST(a AS float) FROM r ORDER BY a`, want: []any{1.0, 2.0, 3.0, 4.0}},
		{q: `SELECT CAST(a AS blob) FROM r ORDER BY a`, err: `type "blob" does not exist`},
	} {
		res, err := sameWithAndWithoutPlanCache(t, db, tc.q)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: err = %v, want one containing %q", tc.q, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		wantColumn(t, res, tc.col, tc.want...)
	}
}

// TestPlanCacheLiftedLiterals: the literals that are lifted bind per run —
// in conditions, projections, IN lists, LIKE patterns, sort-key expressions,
// sublinks and provenance rewrites.
func TestPlanCacheLiftedLiterals(t *testing.T) {
	db := planCacheFixture(t)
	for _, tc := range []struct {
		q    string
		want []any
	}{
		{`SELECT a FROM r WHERE b = 20 ORDER BY a`, []any{int64(2), int64(4)}},
		{`SELECT a FROM r WHERE b = 30 ORDER BY a`, []any{int64(1)}},
		{`SELECT a FROM r WHERE b = 20.0 ORDER BY a`, []any{int64(2), int64(4)}},
		{`SELECT a FROM r WHERE s = 'x' ORDER BY a`, []any{int64(1), int64(3)}},
		{`SELECT a FROM r WHERE s = 'y' ORDER BY a`, []any{int64(2)}},
		{`SELECT a + 10 FROM r WHERE a IN (1, 3) ORDER BY a`, []any{int64(11), int64(13)}},
		{`SELECT a + 20 FROM r WHERE a IN (2, 2) ORDER BY a`, []any{int64(22)}},
		{`SELECT a FROM r WHERE s LIKE 'x%' ORDER BY a`, []any{int64(1), int64(3)}},
		{`SELECT a FROM r WHERE s LIKE 'y%' ORDER BY a`, []any{int64(2)}},
		{`SELECT a FROM r ORDER BY b * 1 + a * 100`, []any{int64(1), int64(2), int64(3), int64(4)}},
		{`SELECT a FROM r ORDER BY b * 100 + a * 1`, []any{int64(3), int64(2), int64(4), int64(1)}},
		{`SELECT a FROM r WHERE a > (SELECT min(b) / 5 FROM r AS r2 WHERE r2.b > 10) ORDER BY a`, nil},
		{`SELECT a FROM r WHERE a > (SELECT min(b) / 10 FROM r AS r2 WHERE r2.b > 20) ORDER BY a`, []any{int64(4)}},
		{`SELECT a FROM r WHERE a > (SELECT min(b) / 10 FROM r AS r2 WHERE r2.b > 5) ORDER BY a`, []any{int64(2), int64(3), int64(4)}},
		{`SELECT PROVENANCE a FROM r WHERE b = ANY (SELECT b FROM r AS r2 WHERE r2.a = 4) ORDER BY a`, []any{int64(2), int64(4)}},
		{`SELECT PROVENANCE a FROM r WHERE b = ANY (SELECT b FROM r AS r2 WHERE r2.a = 3) ORDER BY a`, []any{int64(3)}},
	} {
		res, err := sameWithAndWithoutPlanCache(t, db, tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		wantColumn(t, res, 0, tc.want...)
	}
	if st := db.PlanCacheStats(); st.Hits < 20 || st.Entries > 12 {
		t.Errorf("stats %+v: the statements above have 10 families", st)
	}
}

// TestPlanCacheEqualityPattern: a decision compilation takes because two
// literals are equal — a select-list expression matching a GROUP BY or
// ORDER BY expression — holds for every statement that shares the plan,
// because statements whose literals are equal elsewhere do not share it.
func TestPlanCacheEqualityPattern(t *testing.T) {
	const groupErr = "must appear in the GROUP BY clause"
	const distinctErr = "ORDER BY expressions must appear in the select list"
	for _, order := range [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8}, {8, 7, 6, 5, 4, 3, 2, 1, 0}} {
		db := planCacheFixture(t)
		steps := []struct {
			q    string
			want []any
			err  string
		}{
			{q: `SELECT b+1, count(*) FROM r GROUP BY b+1 ORDER BY 1`, want: []any{int64(11), int64(21), int64(31)}},
			{q: `SELECT b+1, count(*) FROM r GROUP BY b+2 ORDER BY 1`, err: groupErr},
			{q: `SELECT b+2, count(*) FROM r GROUP BY b+2 ORDER BY 1`, want: []any{int64(12), int64(22), int64(32)}},
			{q: `SELECT DISTINCT b+1 FROM r ORDER BY b+1`, want: []any{int64(11), int64(21), int64(31)}},
			{q: `SELECT DISTINCT b+1 FROM r ORDER BY b+3`, err: distinctErr},
			// An integer equals a float of the same value, and - b is 0 - b.
			{q: `SELECT DISTINCT b+1 FROM r ORDER BY b+1.0`, want: []any{int64(11), int64(21), int64(31)}},
			{q: `SELECT DISTINCT b+1 FROM r ORDER BY b+3.0`, err: distinctErr},
			{q: `SELECT DISTINCT b * (0 - b) FROM r ORDER BY b * (-b)`, want: []any{int64(-900), int64(-400), int64(-100)}},
			{q: `SELECT DISTINCT b * (1 - b) FROM r ORDER BY b * (-b)`, err: distinctErr},
		}
		for _, i := range order {
			step := steps[i]
			res, err := sameWithAndWithoutPlanCache(t, db, step.q)
			if step.err != "" {
				if err == nil || !strings.Contains(err.Error(), step.err) {
					t.Errorf("%s: err = %v, want one containing %q", step.q, err, step.err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", step.q, err)
			}
			wantColumn(t, res, 0, step.want...)
		}
	}
}

// TestPlanCacheKindChange: a literal's kind is part of the shape, so the
// plan of `a = 1` is not the plan of `a = 'x'`, which stays the analyzer's
// error.
func TestPlanCacheKindChange(t *testing.T) {
	db := planCacheFixture(t)
	res, err := sameWithAndWithoutPlanCache(t, db, `SELECT a FROM r WHERE a = 1`)
	if err != nil {
		t.Fatal(err)
	}
	wantColumn(t, res, 0, int64(1))
	for _, q := range []string{`SELECT a FROM r WHERE a = 'x'`, `SELECT a FROM r WHERE s = 1`} {
		if _, err := sameWithAndWithoutPlanCache(t, db, q); err == nil || !strings.Contains(err.Error(), "operator does not exist") {
			t.Errorf("%s: err = %v, want the analyzer's operator-does-not-exist", q, err)
		}
	}
	res, err = sameWithAndWithoutPlanCache(t, db, `SELECT a FROM r WHERE a = 2.0`)
	if err != nil {
		t.Fatal(err)
	}
	wantColumn(t, res, 0, int64(2))
}

// TestPlanCacheNumericKinds: 2 and 2.0 compare equal and compute
// differently. A value that a statement spells in both numeric kinds stays
// in its plan (see sql.Lexed.Shape), each time in the kind it was written in
// — the cache once kept one constant for the two — in the select list, in
// conditions, and for an integer beside the float it rounds to.
func TestPlanCacheNumericKinds(t *testing.T) {
	db := planCacheFixture(t)
	for _, tc := range []struct {
		q    string
		col  int
		want []any
	}{
		{`SELECT a / 2, a / 2.0 FROM r ORDER BY a`, 0, []any{int64(0), int64(1), int64(1), int64(2)}},
		{`SELECT a / 2, a / 2.0 FROM r ORDER BY a`, 1, []any{0.5, 1.0, 1.5, 2.0}},
		{`SELECT a / 2.0, a / 2 FROM r ORDER BY a`, 0, []any{0.5, 1.0, 1.5, 2.0}},
		{`SELECT a / 4, a / 4.0 FROM r ORDER BY a`, 1, []any{0.25, 0.5, 0.75, 1.0}},
		{`SELECT a FROM r WHERE a / 2 = 1 AND a / 2.0 > 1.2`, 0, []any{int64(3)}},
		{`SELECT a FROM r WHERE a / 2.0 > 1.2 AND a / 2 = 1`, 0, []any{int64(3)}},
		{`SELECT 7 / 2, 7 / 2.0`, 1, []any{3.5}},
		{`SELECT a FROM r WHERE a + 9007199254740993 = 9007199254740994 AND a + 9007199254740992.0 > 0`, 0, []any{int64(1)}},
		{`SELECT PROVENANCE a / 2, a / 2.0 FROM r WHERE b / 20 = 1 AND b / 20.0 = 1.5`, 1, []any{0.5}},
	} {
		res, err := sameWithAndWithoutPlanCache(t, db, tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		wantColumn(t, res, tc.col, tc.want...)
	}
}

// TestPlanCacheInsert: INSERT leaves a table's plans valid — unless it
// establishes the kind of a column that was all NULL, which can turn a
// statement the analyzer admitted into one it rejects.
func TestPlanCacheInsert(t *testing.T) {
	db := Open()
	if err := db.Register("n", []string{"k", "v"}, [][]any{{1, nil}, {2, nil}}); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT k FROM n WHERE v = 'x' OR k = 2`
	res, err := sameWithAndWithoutPlanCache(t, db, q)
	if err != nil {
		t.Fatal(err)
	}
	wantColumn(t, res, 0, int64(2))
	before := db.PlanCacheStats()
	if _, err := db.Exec(`INSERT INTO n VALUES (3, NULL)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if after := db.PlanCacheStats(); after.Hits != before.Hits+1 || after.Entries != before.Entries {
		t.Errorf("an INSERT that changes no kind cost the cache something: %+v -> %+v", before, after)
	}
	if _, err := db.Exec(`INSERT INTO n VALUES (4, 7)`); err != nil {
		t.Fatal(err)
	}
	if _, err := sameWithAndWithoutPlanCache(t, db, q); err == nil || !strings.Contains(err.Error(), "operator does not exist: integer = string") {
		t.Errorf("after v became integer: err = %v, want the analyzer's error", err)
	}
	if st := db.PlanCacheStats(); st.Stale == 0 {
		t.Errorf("the widened column's plan was not found stale: %+v", st)
	}
}

// TestPlanCacheViewDDL: one statement text, run between view DDL, always
// means what the views of the moment make it mean.
func TestPlanCacheViewDDL(t *testing.T) {
	db := planCacheFixture(t)
	const q = `SELECT x FROM v WHERE x > 1 ORDER BY x`
	run := func(want ...any) {
		t.Helper()
		res, err := sameWithAndWithoutPlanCache(t, db, q)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, want...)
	}
	exec := func(stmt string) {
		t.Helper()
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	if _, err := sameWithAndWithoutPlanCache(t, db, q); err == nil {
		t.Fatal("no view v yet")
	}
	exec(`CREATE VIEW v AS SELECT a AS x FROM r`)
	run(int64(2), int64(3), int64(4))
	exec(`DROP VIEW v`)
	if _, err := sameWithAndWithoutPlanCache(t, db, q); err == nil || !strings.Contains(err.Error(), `unknown relation "v"`) {
		t.Fatalf("after DROP VIEW: err = %v", err)
	}
	exec(`CREATE VIEW v AS SELECT b AS x FROM r`)
	run(int64(10), int64(20), int64(20), int64(30))
	// A view over a view: redefining the inner one reaches the outer one.
	exec(`CREATE VIEW inner_v AS SELECT a FROM r WHERE a < 3`)
	exec(`DROP VIEW v`)
	exec(`CREATE VIEW v AS SELECT a AS x FROM inner_v`)
	run(int64(2))
	exec(`DROP VIEW inner_v`)
	exec(`CREATE VIEW inner_v AS SELECT a FROM r WHERE a > 2`)
	run(int64(3), int64(4))
	// A table of the name, then a view in its way.
	exec(`DROP VIEW v`)
	exec(`CREATE TABLE v (x int)`)
	exec(`INSERT INTO v VALUES (7), (8)`)
	run(int64(7), int64(8))
	exec(`DROP TABLE v`)
	exec(`CREATE VIEW v AS SELECT a * 100 AS x FROM r WHERE a = 1`)
	run(int64(100))
}

// TestPlanCacheSessionShadow: sessions share the DB's cache, and a session
// whose table shadows a base table of another shape is never served the
// base's plan, nor the base the session's.
func TestPlanCacheSessionShadow(t *testing.T) {
	db := planCacheFixture(t)
	s1, s2 := db.NewSession(), db.NewSession()
	for _, stmt := range []string{`DROP TABLE r`, `CREATE TABLE r (a text, b int)`, `INSERT INTO r VALUES ('x', 1), ('y', 2)`} {
		if _, err := s1.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	// s2's r has the base's columns and kinds but other rows.
	if err := s2.Register("r", []string{"a", "b", "s"}, [][]any{{9, 90, "z"}}); err != nil {
		t.Fatal(err)
	}
	const byText, all = `SELECT b FROM r WHERE a = 'x'`, `SELECT a FROM r WHERE b > 0 ORDER BY a`
	for round := 0; round < 3; round++ {
		if _, err := sameWithAndWithoutPlanCache(t, db, byText); err == nil || !strings.Contains(err.Error(), "operator does not exist") {
			t.Fatalf("base, round %d: err = %v, want the analyzer's error", round, err)
		}
		res, err := sameWithAndWithoutPlanCache(t, s1, byText)
		if err != nil {
			t.Fatalf("session, round %d: %v", round, err)
		}
		wantColumn(t, res, 0, int64(1))
		for _, tc := range []struct {
			r interface {
				Query(string, ...Option) (*Result, error)
			}
			want []any
		}{
			{db, []any{int64(1), int64(2), int64(3), int64(4)}},
			{s1, []any{"x", "y"}},
			{s2, []any{int64(9)}},
		} {
			res, err := sameWithAndWithoutPlanCache(t, tc.r, all)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			wantColumn(t, res, 0, tc.want...)
		}
	}
	// Two plans of the shared statement — s2's table has the base table's
	// shape and runs the base's plan — and one of the session-only one.
	if st := db.PlanCacheStats(); st.Entries != 3 || st.Evictions != 0 {
		t.Errorf("stats %+v, want 3 entries and no evictions", st)
	}
	// Private tables the base knows nothing of: the sessions whose w has the
	// same columns and kinds run one plan, the one whose w differs its own.
	before := db.PlanCacheStats()
	for i, def := range []string{`k int`, `k int`, `k text`, `k int`} {
		s := db.NewSession()
		for _, stmt := range []string{`CREATE TABLE w (` + def + `)`, `INSERT INTO w VALUES (` + []string{`1`, `2`, `'x'`, `4`}[i] + `)`} {
			if _, err := s.Exec(stmt); err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
		}
		res, err := sameWithAndWithoutPlanCache(t, s, `SELECT k FROM w WHERE k IS NOT NULL`)
		if err != nil {
			t.Fatal(err)
		}
		wantColumn(t, res, 0, []any{int64(1), int64(2), "x", int64(4)}[i])
	}
	if st := db.PlanCacheStats(); st.Entries != 5 || st.Misses != before.Misses+2 || st.Stale != before.Stale+1 {
		t.Errorf("stats %+v after %+v, want two more plans, and the one for the text table compiled past a stale one", st, before)
	}
}

// TestCorrelatedSharedColumnName: inside a correlated sublink whose relation
// shares a column name with the outer one, the bare name is the inner
// column and the qualified one reaches out — the binder's innermost-first
// order — under every executor mode. A binder that searched outermost first
// would answer c < a against r.a and return none of these rows.
func TestCorrelatedSharedColumnName(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 10}, {2, 20}, {3, 30}, {4, 40}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("s", []string{"a", "c"}, [][]any{{10, 1}, {20, 5}, {30, 3}, {99, 4}}); err != nil {
		t.Fatal(err)
	}
	for _, mode := range diffModes {
		t.Run(mode.name, func(t *testing.T) {
			for _, tc := range []struct {
				q    string
				want []any
			}{
				{`SELECT a FROM r WHERE EXISTS (SELECT c FROM s WHERE s.a = r.b AND c < a) ORDER BY a`,
					[]any{int64(1), int64(2), int64(3)}},
				{`SELECT (SELECT max(c) FROM s WHERE s.a >= b AND c < a) AS m FROM r ORDER BY a`,
					[]any{int64(5), int64(5), int64(4), int64(4)}},
				{`SELECT a FROM r WHERE b = ANY (SELECT a FROM s WHERE c < a) ORDER BY a`,
					[]any{int64(1), int64(2), int64(3)}},
			} {
				res, err := db.Query(tc.q, mode.opts...)
				if err != nil {
					t.Fatalf("%s: %v", tc.q, err)
				}
				wantColumn(t, res, 0, tc.want...)
			}
		})
	}
}

// TestCorrelatedIndexProbes: a selection inside a sublink whose condition
// correlates its input with the outer query (s.x = r.b) is answered from a
// hash index from its second binding on, in the streaming executor. Every
// executor mode must keep exactly the rows the literal filter keeps: NULL
// keys, 1 = 1.0, two keys, a key two scopes up, every sublink kind, and
// Gen's =n keys over an input with a free slot of its own.
func TestCorrelatedIndexProbes(t *testing.T) {
	db := Open()
	for _, r := range []struct {
		name string
		cols []string
		rows [][]any
	}{
		{"r", []string{"a", "b"}, [][]any{{10, 1}, {20, 2}, {30, 1}, {40, nil}, {50, 3}, {60, 2}}},
		{"s", []string{"x", "y"}, [][]any{{1, 5}, {2.0, 25}, {1.0, 35}, {nil, 45}, {3, nil}, {4, 1}}},
		{"u", []string{"k", "j"}, [][]any{{1, 10}, {2, 20}, {1, 30}, {nil, 40}, {3, 50}}},
	} {
		if err := db.Register(r.name, r.cols, r.rows); err != nil {
			t.Fatal(err)
		}
	}
	for _, mode := range diffModes {
		t.Run(mode.name, func(t *testing.T) {
			for _, tc := range []struct {
				q    string
				col  int
				want []any
			}{
				// A NULL binding and a NULL input key match nothing under =;
				// x = 1.0 and x = 2.0 match b = 1 and b = 2.
				{`SELECT a FROM r WHERE EXISTS (SELECT 1 FROM s WHERE s.x = r.b) ORDER BY a`,
					0, []any{int64(10), int64(20), int64(30), int64(50), int64(60)}},
				{`SELECT a, (SELECT y FROM s WHERE s.x = r.b AND s.y < r.a) AS m FROM r ORDER BY a`,
					1, []any{int64(5), nil, int64(5), nil, nil, int64(25)}},
				{`SELECT a FROM r WHERE a > ANY (SELECT y FROM s WHERE s.x = r.b) ORDER BY a`,
					0, []any{int64(10), int64(30), int64(60)}},
				{`SELECT a FROM r WHERE a < ALL (SELECT y FROM s WHERE s.x = r.b) ORDER BY a`,
					0, []any{int64(20), int64(40)}},
				{`SELECT a FROM r WHERE EXISTS (SELECT 1 FROM u WHERE u.k = r.b AND u.j = r.a) ORDER BY a`,
					0, []any{int64(10), int64(20), int64(30), int64(50)}},
				// The inner selection is keyed on r.a, two scopes up, and on
				// s.x; the outer one carries an EXISTS in its residual.
				{`SELECT a FROM r WHERE EXISTS (SELECT 1 FROM s WHERE s.x = r.b AND EXISTS (SELECT 1 FROM u WHERE u.j = r.a AND u.k = s.x)) ORDER BY a`,
					0, []any{int64(10), int64(20), int64(30), int64(50)}},
			} {
				res, err := db.Query(tc.q, mode.opts...)
				if err != nil {
					t.Fatalf("%s: %v", tc.q, err)
				}
				wantColumn(t, res, tc.col, tc.want...)
			}
		})
	}
	// Gen's per-pair EXISTS compares P =n P′ over an input that reads the
	// outer tuple itself, and the CrossBase's all-NULL row meets s's NULL
	// key: the streaming modes must return the reference's witness bag.
	for _, tc := range []struct {
		q    string
		rows int
	}{
		{`SELECT PROVENANCE a FROM r WHERE EXISTS (SELECT 1 FROM s WHERE s.x = r.b)`, 7},
		{`SELECT PROVENANCE a FROM r WHERE a > ANY (SELECT y FROM s WHERE s.x = r.b)`, 3},
	} {
		ref := ""
		for _, mode := range diffModes {
			res, err := db.Query(tc.q, append([]Option{WithStrategy(Gen)}, mode.opts...)...)
			if err != nil {
				t.Fatalf("%s/%s: %v", mode.name, tc.q, err)
			}
			fp := rowsFingerprint(res)
			if len(res.Rows) != tc.rows {
				t.Errorf("%s/%s: %d rows, want %d:\n%s", mode.name, tc.q, len(res.Rows), tc.rows, fp)
			}
			if ref == "" {
				ref = fp
			} else if fp != ref {
				t.Errorf("%s/%s diverges:\n%s\nwant\n%s", mode.name, tc.q, fp, ref)
			}
		}
	}
}

// TestCorrelatedIndexDeclines: a selection whose residual can raise an
// error keeps the literal filter, which evaluates the residual on rows an
// index would never visit, so every mode raises the reference's error. The
// first division fails on the first binding already; the second needs
// r.a = 3, the third binding, and the row s(3, 3), which an index keyed on
// s.x = r.b = 1 would skip, and so does the scalar sublink.
func TestCorrelatedIndexDeclines(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{10, 1}, {20, 2}, {3, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("s", []string{"x", "y"}, [][]any{{1, 1}, {2, 2}, {3, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("u", []string{"k", "j", "z"}, [][]any{{3, 3, 1}, {3, 3, 2}}); err != nil {
		t.Fatal(err)
	}
	for _, mode := range diffModes {
		t.Run(mode.name, func(t *testing.T) {
			for _, tc := range []struct{ q, err string }{
				{`SELECT a FROM r WHERE EXISTS (SELECT 1 FROM s WHERE 1 / (s.x - 3) > 0 AND s.x = r.b)`,
					"division by zero"},
				{`SELECT a FROM r WHERE EXISTS (SELECT 1 FROM s WHERE 1 / (s.y - r.a) > 0 AND s.x = r.b)`,
					"division by zero"},
				{`SELECT a FROM r WHERE EXISTS (SELECT 1 FROM s WHERE (SELECT z FROM u WHERE u.k = s.y AND u.j = r.a) > 0 AND s.x = r.b)`,
					"scalar sublink produced 2 tuples"},
			} {
				if _, err := db.Query(tc.q, mode.opts...); err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Errorf("%s: error %v, want %q", tc.q, err, tc.err)
				}
			}
		})
	}
}

// TestKeyEqualityMatchesCompare: hash keys — GROUP BY, DISTINCT, hash
// joins, hashed ANY and the correlated index — must agree with =. The float
// 2^63 is outside int64's range and must not encode as MinInt64; NaN equals
// only NaN; an integer compares with a float exactly, not rounded to one.
func TestKeyEqualityMatchesCompare(t *testing.T) {
	db := Open()
	if err := db.Register("t", []string{"x"}, [][]any{{int64(-9223372036854775808)}, {9.223372036854775808e18}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("u", []string{"x"}, [][]any{{1.5}, {2}, {nil}}); err != nil {
		t.Fatal(err)
	}
	for _, mode := range diffModes {
		t.Run(mode.name, func(t *testing.T) {
			for _, tc := range []struct {
				q    string
				rows int
				want []any // the first column, when given
			}{
				{q: `SELECT x, count(*) FROM t GROUP BY x`, rows: 2},
				{q: `SELECT DISTINCT x FROM t`, rows: 2},
				{q: `SELECT CAST('NaN' AS float) = 1.5`, rows: 1, want: []any{false}},
				{q: `SELECT x FROM u WHERE x = CAST('NaN' AS float)`, rows: 0},
				{q: `SELECT 9223372036854775807 = CAST(9223372036854775807 AS float)`, rows: 1, want: []any{false}},
			} {
				res, err := db.Query(tc.q, mode.opts...)
				if err != nil {
					t.Fatalf("%s: %v", tc.q, err)
				}
				if len(res.Rows) != tc.rows {
					t.Errorf("%s: rows %v, want %d", tc.q, res.Rows, tc.rows)
				} else if tc.want != nil {
					wantColumn(t, res, 0, tc.want...)
				}
			}
		})
	}
}

// generatedRows runs a statement on the streaming executor and returns how
// many input rows of its selections were answered by generating CrossBase
// witnesses (Result.Generated).
func generatedRows(t *testing.T, db *DB, query string, opts ...Option) int64 {
	t.Helper()
	res, err := db.Query(query, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res.Generated
}

// TestGeneratedReachesResult: Result.Generated is the executor's count of
// input rows answered by generating Gen's CrossBase witnesses. TPC-H Q16
// under Gen has one such selection: the streaming executor generates, the
// reference enumerates T × CrossBase and reports 0, and both return the
// same rows.
func TestGeneratedReachesResult(t *testing.T) {
	db := tpchDB(t)
	q, err := tpch.QueryByNum(16)
	if err != nil {
		t.Fatal(err)
	}
	// At SF 0.05, instance 9 is one whose selection has input rows.
	query := withProvenance(q.Instance(9))
	res, err := db.Query(query, WithStrategy(Gen))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := db.Query(query, WithStrategy(Gen), WithoutStreaming())
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated == 0 || ref.Generated != 0 {
		t.Errorf("Generated %d streaming and %d on the reference, want > 0 and 0", res.Generated, ref.Generated)
	}
	if len(res.Rows) == 0 || rowsFingerprint(res) != rowsFingerprint(ref) {
		t.Errorf("streaming returns %d rows, the reference %d, or they differ", len(res.Rows), len(ref.Rows))
	}
}

// TestGenGenerationRegress pins the cases the streaming executor's
// generation of Gen's CrossBase witnesses must get exactly right, under the
// executor modes of the fuzz oracle: every mode returns the materializing
// reference's bag, or raises its error. The reference keeps Rule G1's
// literal T × CrossBase selection. Cases without an error must also take
// the generation path.
func TestGenGenerationRegress(t *testing.T) {
	db := Open()
	for _, r := range []struct {
		name string
		cols []string
		rows [][]any
	}{
		{"r", []string{"a", "b"}, [][]any{{1, 1}, {2, 1}, {2, 1}, {nil, 2}, {3, nil}, {4, 3}, {5, 2}}},
		// s holds a duplicate row and an all-NULL row, which shares the
		// all-NULL key with null(s).
		{"s", []string{"c", "d"}, [][]any{{1, 1}, {3, 1}, {nil, 1}, {2, 2}, {2, 2}, {nil, nil}, {5, 3}, {0, 4}}},
		{"u", []string{"e"}, [][]any{{1}, {2}, {2}}},
	} {
		if err := db.Register(r.name, r.cols, r.rows); err != nil {
			t.Fatal(err)
		}
	}
	modes := []struct {
		name string
		opts []Option
	}{
		{"mat/seq", []Option{WithoutStreaming()}},
		{"stream/seq", nil},
	}
	for _, c := range []struct {
		name, query string
		wantErr     bool
	}{
		// The three-valued cases the empty case's J filter was widened for.
		{name: "null test value", query: `SELECT PROVENANCE a, b, a > ANY (SELECT c FROM s WHERE d = b) AS m FROM r`},
		{name: "all-unknown ANY", query: `SELECT PROVENANCE a, a = ANY (SELECT c FROM s WHERE c IS NULL) AS m FROM r`},
		{name: "all-unknown ALL", query: `SELECT PROVENANCE a, a < ALL (SELECT c FROM s WHERE c IS NULL AND d = 1) AS m FROM r`},
		{name: "ALL", query: `SELECT PROVENANCE a FROM r WHERE a >= ALL (SELECT c FROM s WHERE d = b)`},
		{name: "NOT ANY", query: `SELECT PROVENANCE a FROM r WHERE NOT (a = ANY (SELECT c FROM s WHERE d = b))`},
		{name: "duplicate base rows", query: `SELECT PROVENANCE a, b FROM r WHERE EXISTS (SELECT * FROM s WHERE d = b)`},
		{name: "all-NULL base row", query: `SELECT PROVENANCE a FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE c = a)`},
		{name: "two sublinks", query: `SELECT PROVENANCE a FROM r WHERE a > ANY (SELECT c FROM s WHERE d = b) AND EXISTS (SELECT * FROM u WHERE e = a)`},
		{name: "select-list scalar", query: `SELECT PROVENANCE a, (SELECT max(c) FROM s WHERE d = b) AS m FROM r`},
		{name: "sublink under OR", query: `SELECT PROVENANCE a FROM r WHERE a = 4 OR EXISTS (SELECT * FROM s WHERE d = b)`},
		{name: "nested", query: `SELECT PROVENANCE a FROM r WHERE a > ANY (SELECT c FROM s WHERE EXISTS (SELECT * FROM u WHERE e = s.d))`},
		{name: "nested correlated", query: `SELECT PROVENANCE a FROM r WHERE EXISTS (SELECT * FROM s WHERE d = r.b AND c < ANY (SELECT e FROM u WHERE e >= r.a))`},
		// A division by zero in the condition over T (C), in the sublink
		// query Gen rewrites into Q, in the test value J re-evaluates, and
		// in the sublink query the empty case's ¬EXISTS(E) runs.
		{name: "divide by zero in C", wantErr: true, query: `SELECT PROVENANCE a FROM r WHERE (a / (a - a) > 0 OR a IN (SELECT e FROM u)) AND EXISTS (SELECT * FROM s WHERE d = b)`},
		{name: "divide by zero in Q", wantErr: true, query: `SELECT PROVENANCE a, EXISTS (SELECT c / (d - d) FROM s WHERE d = b) AS m FROM r`},
		{name: "divide by zero in J", wantErr: true, query: `SELECT PROVENANCE a, a / (a - a) > ANY (SELECT c FROM s WHERE d = b) AS m FROM r`},
		{name: "divide by zero in E", wantErr: true, query: `SELECT PROVENANCE a, NOT EXISTS (SELECT * FROM s WHERE d = b AND c / (c - c) > 0) AS m FROM r`},
	} {
		t.Run(c.name, func(t *testing.T) {
			var ref string
			for i, m := range modes {
				res, err := db.Query(c.query, append([]Option{WithStrategy(Gen)}, m.opts...)...)
				got := ""
				if err != nil {
					got = "error: " + err.Error()
				} else {
					got = rowsFingerprint(res)
				}
				if i == 0 {
					ref = got
					if (err != nil) != c.wantErr {
						t.Fatalf("%s: %s", m.name, got)
					}
					continue
				}
				if got != ref {
					t.Errorf("%s disagrees with %s:\n%s\nwant\n%s", m.name, modes[0].name, got, ref)
				}
			}
			if !c.wantErr && generatedRows(t, db, c.query, WithStrategy(Gen)) == 0 {
				t.Errorf("no selection was answered by generation")
			}
		})
	}
}

// TestSetOpsSplitDuplicates: INTERSECT and EXCEPT count per tuple, not per
// stored slot. A bag may hold one tuple in several slots — rows INSERTed by
// separate statements, a projection onto a repeated column — and the
// totals must still be min(L, R) for INTERSECT ALL and max(L − R, 0) for
// EXCEPT ALL, with the set forms their distinct tuples. Tuples compare under
// =n: NULL matches NULL, and 1 matches 1.0.
func TestSetOpsSplitDuplicates(t *testing.T) {
	db := Open()
	// p.b repeats: 1 three times, NULL twice, 2.0 once.
	if err := db.Register("p", []string{"a", "b"}, [][]any{{1, 1}, {2, 1.0}, {3, 1}, {4, nil}, {5, nil}, {6, 2.0}}); err != nil {
		t.Fatal(err)
	}
	// l: (1,1)×4, (2,NULL)×2, (NULL,NULL)×2, (3,3.5)×1.
	// r: (1,1)×2, (NULL,NULL)×3, (2,NULL)×2, (4,4)×1.
	for _, s := range []string{
		`CREATE TABLE l (x int, y float)`,
		`INSERT INTO l VALUES (1, 1.0), (2, NULL)`,
		`INSERT INTO l VALUES (1, 1.0), (NULL, NULL), (3, 3.5)`,
		`INSERT INTO l VALUES (1, 1.0), (NULL, NULL), (2, NULL)`,
		`INSERT INTO l VALUES (1, 1.0)`,
		`CREATE TABLE r (x int, y float)`,
		`INSERT INTO r VALUES (1, 1.0), (NULL, NULL)`,
		`INSERT INTO r VALUES (1, 1.0), (2, NULL), (4, 4.0)`,
		`INSERT INTO r VALUES (NULL, NULL), (NULL, NULL), (2, NULL)`,
	} {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	rows := func(rs ...string) string { return strings.Join(rs, "\n") }
	cases := []struct {
		q    string
		want string // rowsFingerprint of the expected bag
	}{
		{`SELECT x, y FROM l INTERSECT ALL SELECT x, y FROM r`,
			rows("1|1", "1|1", "2|<nil>", "2|<nil>", "<nil>|<nil>", "<nil>|<nil>")},
		{`SELECT x, y FROM l INTERSECT SELECT x, y FROM r`,
			rows("1|1", "2|<nil>", "<nil>|<nil>")},
		{`SELECT x, y FROM l EXCEPT ALL SELECT x, y FROM r`,
			rows("1|1", "1|1", "3|3.5")},
		{`SELECT x, y FROM l EXCEPT SELECT x, y FROM r`,
			rows("3|3.5")},
		{`SELECT x, y FROM r EXCEPT ALL SELECT x, y FROM l`,
			rows("4|4", "<nil>|<nil>")},
		{`SELECT x, y FROM r INTERSECT ALL SELECT x, y FROM l`,
			rows("1|1", "1|1", "2|<nil>", "2|<nil>", "<nil>|<nil>", "<nil>|<nil>")},
		// Projections onto a repeated column: x of l is 1×4, 2×2, NULL×2,
		// 3×1; x of r is 1×2, NULL×3, 2×2, 4×1.
		{`SELECT x FROM l EXCEPT ALL SELECT x FROM r`,
			rows("1", "1", "3")},
		{`SELECT x FROM l INTERSECT ALL SELECT x FROM r`,
			rows("1", "1", "2", "2", "<nil>", "<nil>")},
		{`SELECT x FROM r EXCEPT ALL SELECT x FROM l`,
			rows("4", "<nil>")},
		{`SELECT x FROM r EXCEPT SELECT x FROM l`,
			rows("4")},
		// p.b is 1×3, NULL×2, 2×1; y of r is 1×2, NULL×5, 4×1.
		{`SELECT b FROM p INTERSECT ALL SELECT y FROM r`,
			rows("1", "1", "<nil>", "<nil>")},
		{`SELECT b FROM p EXCEPT ALL SELECT y FROM r`,
			rows("1", "2")},
		{`SELECT y FROM r EXCEPT ALL SELECT b FROM p`,
			rows("4", "<nil>", "<nil>", "<nil>")},
		{`SELECT b FROM p INTERSECT SELECT y FROM r`,
			rows("1", "<nil>")},
		{`SELECT b FROM p EXCEPT SELECT y FROM r`,
			rows("2")},
		// An int column against a float one holding 1 and 1.0.
		{`SELECT x FROM l INTERSECT ALL SELECT b FROM p`,
			rows("1", "1", "1", "2", "<nil>", "<nil>")},
		{`SELECT x FROM l EXCEPT ALL SELECT b FROM p`,
			rows("1", "2", "3")},
		// Both inputs split: a projection of p (b is 1×3, NULL×2, 2×1)
		// against one of l (y is 1×4, NULL×4, 3.5×1).
		{`SELECT b, b FROM p INTERSECT ALL SELECT y, y FROM l`,
			rows("1|1", "1|1", "1|1", "<nil>|<nil>", "<nil>|<nil>")},
		{`SELECT y, y FROM l EXCEPT ALL SELECT b, b FROM p`,
			rows("1|1", "3.5|3.5", "<nil>|<nil>", "<nil>|<nil>")},
	}
	for _, mode := range diffModes {
		t.Run(strings.ReplaceAll(mode.name, "/", "_"), func(t *testing.T) {
			for _, c := range cases {
				res, err := db.Query(c.q, mode.opts...)
				if err != nil {
					t.Fatalf("%s: %v", c.q, err)
				}
				if got := rowsFingerprint(res); got != c.want {
					t.Errorf("%s:\ngot  %q\nwant %q", c.q, got, c.want)
				}
			}
		})
	}
}

// TestUncorrelatedSublinksKeepTheirOwnMemo: two uncorrelated = ANY
// sublinks in one WHERE over different columns share the run's memos and the
// empty binding, so only the plan node tells their bags and hash sets
// apart. Every executor memoizes an uncorrelated sublink, so the executors
// would agree on a wrong answer: the rows are checked against their values.
func TestUncorrelatedSublinksKeepTheirOwnMemo(t *testing.T) {
	db := Open()
	if err := db.Register("t", []string{"a", "b"}, [][]any{{1, 20}, {1, 1}, {10, 20}, {2, 10}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("s", []string{"c", "d"}, [][]any{{1, 10}, {2, 20}}); err != nil {
		t.Fatal(err)
	}
	for _, mode := range diffModes {
		t.Run(strings.ReplaceAll(mode.name, "/", "_"), func(t *testing.T) {
			for _, q := range []string{
				`SELECT a FROM t WHERE a = ANY (SELECT c FROM s) AND b = ANY (SELECT d FROM s) ORDER BY a`,
				// Quantified, not hashed: the bags themselves are memoized.
				`SELECT a FROM t WHERE a < ALL (SELECT d FROM s) AND b > ANY (SELECT c FROM s) ORDER BY a`,
			} {
				res, err := db.Query(q, mode.opts...)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				wantColumn(t, res, 0, int64(1), int64(2))
			}
		})
	}
}

// TestMaterializingPeakRowsCountsEveryOutput: under the materializing
// executor every operator output is charged against the row budget and
// counted in PeakRows — LIMIT's, VALUES' and aggregation's rows included.
func TestMaterializingPeakRowsCountsEveryOutput(t *testing.T) {
	db := Open()
	if err := db.Register("t", []string{"a"}, [][]any{{1}, {2}, {3}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		query string
		peak  int64
	}{
		// The projection's 3 rows, then LIMIT's 2.
		{`SELECT a FROM t LIMIT 2`, 5},
		// VALUES' one empty row, then the projection's.
		{`SELECT 1 AS x`, 2},
		// The aggregate's one group, then the projection's.
		{`SELECT count(*) AS n FROM t`, 2},
	} {
		res, err := db.Query(c.query, WithoutStreaming())
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if res.PeakRows != c.peak {
			t.Errorf("%s: PeakRows %d, want %d", c.query, res.PeakRows, c.peak)
		}
	}
}

// TestDroppedColumnStillRaises: a derived table's computed column that the
// outer query drops is still evaluated, as the SQL it was written in says,
// so its division by zero is the statement's error. The optimizer fuses a
// projection into the one below it only where every computed column of the
// lower one survives, once; here it must leave the two apart. The second
// statement reads x and is fused: the same error, from one projection.
func TestDroppedColumnStillRaises(t *testing.T) {
	db := Open()
	if err := db.Register("t", []string{"a", "b"}, [][]any{{1, 1}, {2, 0}}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		q        string
		projects int // in the optimized plan
	}{
		{`SELECT a FROM (SELECT a, 1/b AS x FROM t) s`, 2},
		{`SELECT x, a FROM (SELECT a, 1/b AS x FROM t) s`, 1},
	}
	for _, c := range cases {
		plan, err := db.Explain(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(plan, "Project"); got != c.projects {
			t.Errorf("%s: %d projections, want %d:\n%s", c.q, got, c.projects, plan)
		}
	}
	bothEngines(t, func(t *testing.T, opts ...Option) {
		for _, c := range cases {
			_, err := sameWithAndWithoutPlanCache(t, db, c.q, opts...)
			if err == nil || !strings.Contains(err.Error(), "division by zero") {
				t.Errorf("%s: err = %v, want division by zero", c.q, err)
			}
		}
	})
}
