package perm

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"perm/internal/rewrite"
	"perm/internal/synth"
	"perm/internal/tpch"
)

// --- ORDER BY / OFFSET regression tests (fail on the pre-PR engine) ---

func openAsc(t *testing.T) *DB {
	t.Helper()
	db := Open()
	if err := db.Register("r", []string{"a"}, [][]any{{1}, {2}, {3}}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDerivedTableOrderBySurvivesLimit: the derived table's ORDER BY must
// reach the outer LIMIT and the presentation order, as in PostgreSQL. The
// pre-PR engine silently dropped it and returned 1, 2.
func TestDerivedTableOrderBySurvivesLimit(t *testing.T) {
	db := openAsc(t)
	res, err := db.Query(`SELECT a FROM (SELECT a FROM r ORDER BY a DESC) t LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != int64(3) || res.Rows[1][0] != int64(2) {
		t.Fatalf("rows = %v, want [[3] [2]]", res.Rows)
	}
}

// TestDerivedTableOrderByUnprojectedKey: the derived table's ORDER BY
// orders the LIMIT cut and the presented rows even when the outer SELECT
// list drops the ordering column. The sort runs in the plan's Order, so the
// order holds with and without the optional optimizer, on both executors.
func TestDerivedTableOrderByUnprojectedKey(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 10}, {2, 20}, {3, 30}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ q, want string }{
		{`SELECT a FROM (SELECT a, b FROM r ORDER BY b DESC) t LIMIT 2`, "[[3] [2]]"},
		{`SELECT a FROM (SELECT a, b FROM r ORDER BY b DESC) t`, "[[3] [2] [1]]"},
	} {
		for _, m := range []struct {
			name string
			opts []Option
		}{{"default", nil}, {"no optimizer", []Option{WithoutOptimizer()}}, {"reference", []Option{WithoutStreaming()}}} {
			res, err := db.Query(tc.q, m.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(res.Rows); got != tc.want {
				t.Errorf("%s (%s): rows = %s, want %s", tc.q, m.name, got, tc.want)
			}
		}
	}
}

// TestDerivedTableOrderByThroughWhere: a filter between the derived
// table's ORDER BY and the LIMIT preserves the surviving rows' order.
func TestDerivedTableOrderByThroughWhere(t *testing.T) {
	db := openAsc(t)
	res, err := db.Query(`SELECT a FROM (SELECT a FROM r ORDER BY a DESC) t WHERE a < 3 LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(2) {
		t.Fatalf("rows = %v, want [[2]]", res.Rows)
	}
}

// TestDerivedTableOrderByExpressionKey: an expression sort key whose
// attribute references all pass through the projection wrappers keeps
// ordering the output.
func TestDerivedTableOrderByExpressionKey(t *testing.T) {
	db := openAsc(t)
	res, err := db.Query(`SELECT a FROM (SELECT a FROM r ORDER BY a + 0 DESC) t LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != int64(3) || res.Rows[1][0] != int64(2) {
		t.Fatalf("rows = %v, want [[3] [2]]", res.Rows)
	}
}

// TestOffsetEndToEnd: LIMIT n OFFSET m — and OFFSET without LIMIT — must
// parse, translate and execute. The pre-PR parser failed with "unexpected
// offset after end of statement".
func TestOffsetEndToEnd(t *testing.T) {
	db := openAsc(t)
	for _, tc := range []struct {
		q    string
		want []int64
	}{
		{`SELECT a FROM r ORDER BY a LIMIT 1 OFFSET 1`, []int64{2}},
		{`SELECT a FROM r ORDER BY a OFFSET 2`, []int64{3}},
		{`SELECT a FROM r ORDER BY a DESC LIMIT 2 OFFSET 1`, []int64{2, 1}},
		{`SELECT a FROM r ORDER BY a OFFSET 0`, []int64{1, 2, 3}},
		{`SELECT a FROM r ORDER BY a LIMIT 2 OFFSET 5`, nil},
	} {
		res, err := db.Query(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		var got []int64
		for _, row := range res.Rows {
			got = append(got, row[0].(int64))
		}
		if len(got) != len(tc.want) {
			t.Fatalf("%s: rows %v, want %v", tc.q, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: rows %v, want %v", tc.q, got, tc.want)
			}
		}
	}
}

// --- cross-strategy, cross-executor differential harness ---

// diffModes are the executor configurations every strategy must agree
// across: the streaming pipeline and the materializing reference.
var diffModes = []struct {
	name string
	opts []Option
}{
	{"stream/seq", nil},
	{"mat/seq", []Option{WithoutStreaming()}},
}

var diffStrategies = []Strategy{Gen, Left, Move, Unn, UnnX, Auto}

// rowsFingerprint canonicalizes a result's bag of rows for comparison.
func rowsFingerprint(res *Result) string {
	lines := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = fmt.Sprintf("%v", v)
		}
		lines[i] = strings.Join(parts, "|")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// withProvenance turns a query into its SELECT PROVENANCE form.
func withProvenance(q string) string {
	at := strings.Index(q, "SELECT") + len("SELECT")
	return q[:at] + " PROVENANCE" + q[at:]
}

// checkDifferential runs one provenance query under every applicable
// strategy and executor mode but those named in skip ("Gen/mat/seq"),
// asserts every combination returns the identical provenance bag, and
// returns the number of rows of that bag.
func checkDifferential(t *testing.T, db *DB, query string, skip ...string) int {
	t.Helper()
	haveRef := false
	ref, refLabel, rows := "", "", 0
	for _, s := range diffStrategies {
		for _, mode := range diffModes {
			if slices.Contains(skip, fmt.Sprintf("%s/%s", s, mode.name)) {
				continue
			}
			opts := append([]Option{WithStrategy(s)}, mode.opts...)
			res, err := db.Query(query, opts...)
			if errors.Is(err, rewrite.ErrNotApplicable) {
				break // inapplicable regardless of executor mode
			}
			if err != nil {
				t.Fatalf("%s/%s on %q: %v", s, mode.name, query, err)
			}
			fp := rowsFingerprint(res)
			if !haveRef {
				haveRef, ref, refLabel, rows = true, fp, fmt.Sprintf("%s/%s", s, mode.name), len(res.Rows)
			} else if fp != ref {
				t.Errorf("%s/%s disagrees with %s on %q:\n<<< %s\n>>> %s",
					s, mode.name, refLabel, query, ref, fp)
			}
		}
	}
	if !haveRef {
		t.Fatalf("no strategy applied to %q", query)
	}
	return rows
}

// TestDifferentialCurated covers the curated sublink shapes over the
// Figure 3 relations.
func TestDifferentialCurated(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 1}, {2, 1}, {3, 2}, {3, 2}, {nil, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("s", []string{"c", "d"}, [][]any{{1, 3}, {2, 4}, {4, 5}, {nil, 1}}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT PROVENANCE a, b FROM r WHERE a = ANY (SELECT c FROM s)`,
		`SELECT PROVENANCE a FROM r WHERE a < ALL (SELECT c FROM s WHERE c > 1)`,
		`SELECT PROVENANCE a FROM r WHERE EXISTS (SELECT c FROM s WHERE c > 2)`,
		`SELECT PROVENANCE a FROM r WHERE EXISTS (SELECT c FROM s WHERE c = b)`,
		`SELECT PROVENANCE a FROM r WHERE NOT EXISTS (SELECT c FROM s WHERE c = 9)`,
		`SELECT PROVENANCE a FROM r WHERE a > (SELECT min(c) FROM s)`,
		`SELECT PROVENANCE a FROM r WHERE a IN (SELECT c FROM s WHERE d > b)`,
		`SELECT PROVENANCE b, count(*) AS n FROM r GROUP BY b`,
	} {
		checkDifferential(t, db, q)
	}
}

// TestDifferentialSynth runs the harness over the synthetic workload,
// including the correlated queries q3 and q4.
func TestDifferentialSynth(t *testing.T) {
	w := synth.Workload{InputSize: 60, SublinkSize: 40, Domain: 6, Seed: 11}
	db := dbOf(t, w.Catalog())
	for _, q := range []string{w.Q1(0), w.Q2(0), w.Q3(0), w.Q4(0)} {
		checkDifferential(t, db, withProvenance(q))
	}
}

// TestDifferentialTPCH runs the harness over every TPC-H sublink template.
// At SF 0.05 the instances are the first at which Q2, Q4, Q15 and Q16
// return rows. There the results of Q11, Q20 and Q21 are empty for every
// instance, so they also run at a scale and instance where they return
// rows, and the test asserts that they do. The generator gives every
// customer orders, so Q22's correlated NOT EXISTS over orders holds for no
// generated customer: the fixture INSERTs one without orders, in country
// 30, with a balance above the average of instance 3's countries, and the
// test asserts that Q22 instance 3 returns rows. (In instances 5 and 9 it
// is the only customer with a positive balance, so it equals the average
// and is not above it.)
func TestDifferentialTPCH(t *testing.T) {
	db := tpchDB(t)
	if _, err := db.Exec(`INSERT INTO customer VALUES (1000000, 'Customer#001000000', 'address', 20, 3012345, 9999.0, 'BUILDING', 'no orders')`); err != nil {
		t.Fatal(err)
	}
	for _, q := range tpch.SublinkQueries() {
		for _, instance := range []int64{3, 5, 9} {
			rows := checkDifferential(t, db, withProvenance(q.Instance(instance)))
			if q.Num == 22 && instance == 3 && rows == 0 {
				t.Errorf("Q22 instance %d returned no rows", instance)
			}
		}
	}
	dbs := map[float64]*DB{}
	for _, c := range []struct {
		num      int
		sf       float64
		instance int64
		skip     []string
	}{
		{11, 0.2, 1, nil},
		// Gen on the reference runs rule G1 literally, T × CrossBase over
		// partsupp and lineitem, and does not finish in minutes once Q20
		// has rows; the streaming executor generates those witnesses.
		{20, 0.1, 41, []string{"Gen/mat/seq"}},
		{21, 0.1, 3, nil},
	} {
		if dbs[c.sf] == nil {
			cat, _ := tpch.Generate(tpch.Config{SF: c.sf, Seed: 1})
			dbs[c.sf] = dbOf(t, cat)
		}
		q, err := tpch.QueryByNum(c.num)
		if err != nil {
			t.Fatal(err)
		}
		if checkDifferential(t, dbs[c.sf], withProvenance(q.Instance(c.instance)), c.skip...) == 0 {
			t.Errorf("Q%d instance %d at SF %g returned no rows", c.num, c.instance, c.sf)
		}
	}
}

// TestGenTemplatesGenerate: the four Gen templates of the benchmark's
// sublink_probe workload — synth q3 and q4, TPC-H Q16 and Q22 — keep the
// shape the streaming executor answers by generation after rewriting and
// optimization. An optimizer or rewriter change that breaks the shape fails
// here, not only in the benchmark.
func TestGenTemplatesGenerate(t *testing.T) {
	cat, _ := tpch.Generate(tpch.Config{SF: 0.2, Seed: 1})
	w := synth.Workload{InputSize: 40, SublinkSize: 40, Seed: 1, Domain: 10}
	db := dbOf(t, cat, w.Catalog())
	templates := map[string]func(seed int64) string{"q3": w.Q3, "q4": w.Q4}
	for _, n := range []int{16, 22} {
		q, err := tpch.QueryByNum(n)
		if err != nil {
			t.Fatal(err)
		}
		templates[fmt.Sprintf("Q%d", n)] = q.Instance
	}
	for name, gen := range templates {
		// Generation counts the input rows of the selection, and a
		// template's parameters can leave that input empty: sum over a few
		// instances.
		var generated int64
		for seed := int64(1); seed <= 5; seed++ {
			generated += generatedRows(t, db, withProvenance(gen(seed*7919)), WithStrategy(Gen))
		}
		if generated == 0 {
			t.Errorf("%s+Gen: no selection was answered by generation", name)
		}
	}
}
