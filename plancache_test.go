package perm

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/tpch"
)

// planBoundTemplates are the 13 statements of the benchmark's plan_bound
// workload, one instance each: the nine TPC-H sublink templates plain, four
// of them again as SELECT PROVENANCE.
func planBoundTemplates(t testing.TB, instance int64) []string {
	t.Helper()
	var out []string
	for _, n := range []int{2, 4, 11, 15, 16, 17, 20, 21, 22, -4, -11, -15, -16} {
		q, err := tpch.QueryByNum(max(n, -n))
		if err != nil {
			t.Fatal(err)
		}
		text := q.Instance(instance)
		if n < 0 {
			text = withProvenance(text)
		}
		out = append(out, text)
	}
	return out
}

// tpchDB returns a DB holding the TPC-H tables at SF 0.05.
func tpchDB(t testing.TB) *DB {
	t.Helper()
	cat, _ := tpch.Generate(tpch.Config{SF: 0.05, Seed: 1})
	return dbOf(t, cat)
}

// dbOf returns a DB holding the relations of the given catalogs.
func dbOf(t testing.TB, cats ...*catalog.Catalog) *DB {
	t.Helper()
	db := Open()
	for _, cat := range cats {
		for _, name := range cat.Names() {
			r, err := cat.Relation(name)
			if err != nil {
				t.Fatal(err)
			}
			db.Catalog().Register(name, r)
		}
	}
	return db
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestPlanCacheMemoryBudget pins what a warm cache costs, measured as the
// live heap the cache gives back when it is dropped: the 13 plans of the
// plan_bound working set retain 0.084–0.089 MB (88–94 KB, as a runtime
// thread's 5 KB falls inside the window or not). They retained 0.120 MB
// while the projections the provenance rewrite stacks level on level were
// kept apart, whose column lists were most of it, before the optimizer fused
// them; 0.131 MB when references were still names.
func TestPlanCacheMemoryBudget(t *testing.T) {
	db := tpchDB(t)
	for _, q := range planBoundTemplates(t, 12345) {
		if _, err := db.Query(q, WithPlanCheck(false)); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if st := db.PlanCacheStats(); st.Entries != 13 {
		t.Fatalf("stats %+v, want 13 entries", st)
	}
	with := liveHeap()
	db.plans = newPlanCache()
	without := liveHeap()
	runtime.KeepAlive(db)
	const budget = 0.10 * (1 << 20)
	retained := float64(with) - float64(without)
	t.Logf("13 cached plans retain %.0f bytes", retained)
	if retained > budget && !raceDetector {
		t.Errorf("13 cached plans retain %.0f bytes, budget %.0f", retained, budget)
	}
}

// TestPlanCacheFamilySharesMemory: the plans of one statement family are
// built on each other, so a pattern variant costs a fraction of a plan.
//
// The runtime now and then starts a thread inside a measured window and
// its M (5 KB, runtime.allocm under gcStart) counts as live heap there. So
// the family is measured three times, each time in a new DB, and the least
// each plan retained is what is compared: the stray M only ever adds.
func TestPlanCacheFamilySharesMemory(t *testing.T) {
	const q = `SELECT PROVENANCE p_brand, p_type, p_size, count(DISTINCT ps_suppkey) AS supplier_cnt FROM partsupp, part
		WHERE p_partkey = ps_partkey AND p_brand <> 'Brand#45' AND p_size IN (%d, %d, %d, %d)
		AND ps_suppkey NOT IN (SELECT s_suppkey FROM supplier WHERE s_comment = 'x')
		GROUP BY p_brand, p_type, p_size ORDER BY supplier_cnt DESC, p_brand, p_type, p_size`
	first, variants := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 3 {
		db := tpchDB(t)
		run := func(a, b, c, d int) uint64 {
			before := liveHeap()
			if _, err := db.Query(fmt.Sprintf(q, a, b, c, d), WithPlanCheck(false)); err != nil {
				t.Fatal(err)
			}
			return liveHeap() - before
		}
		first = min(first, run(1, 2, 3, 4))
		var sum uint64
		for _, v := range [][4]int{{1, 1, 3, 4}, {1, 2, 2, 4}, {1, 2, 3, 3}, {1, 2, 1, 4}} {
			sum += run(v[0], v[1], v[2], v[3])
		}
		variants = min(variants, sum)
		if st := db.PlanCacheStats(); st.Entries != 5 || st.Misses != 5 {
			t.Fatalf("stats %+v, want 5 plans of one family", st)
		}
	}
	if variants/4 > first/4 {
		t.Errorf("first plan retains %d bytes, a pattern variant %d on average: want under a quarter", first, variants/4)
	}
}

// TestPlanCacheBounds: the cache never holds more than planCacheCap plans,
// nor more than planVariants per family, and says what it dropped.
func TestPlanCacheBounds(t *testing.T) {
	db := planCacheFixture(t)
	for i := 0; i < planCacheCap+40; i++ {
		if _, err := db.Query(fmt.Sprintf(`SELECT a AS c%d FROM r WHERE a = 1`, i)); err != nil {
			t.Fatal(err)
		}
	}
	st := db.PlanCacheStats()
	if st.Entries != planCacheCap || st.Evictions != 40 || st.Misses != planCacheCap+40 {
		t.Errorf("stats %+v, want %d entries and 40 evictions", st, planCacheCap)
	}
	// One family, a pattern per run: a run of i equal literals, then distinct
	// ones.
	db = planCacheFixture(t)
	for i := 0; i < planVariants+3; i++ {
		items := make([]string, planVariants+3)
		for j := range items {
			items[j] = fmt.Sprint(max(j, i) + 1)
		}
		if _, err := db.Query(`SELECT a FROM r WHERE a IN (` + strings.Join(items, ", ") + `)`); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.PlanCacheStats(); st.Entries != planVariants || st.Evictions != 3 {
		t.Errorf("stats %+v, want %d entries and 3 evictions", st, planVariants)
	}
}

// TestPlanCacheAblation: WithoutPlanCache neither reads nor writes the
// cache, and Explain says which way a plan came.
func TestPlanCacheAblation(t *testing.T) {
	db := planCacheFixture(t)
	const q = `SELECT a FROM r WHERE b = 20 AND s = 'y'`
	for i := 0; i < 3; i++ {
		if _, err := db.Query(q, WithoutPlanCache()); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.PlanCacheStats(); st != (PlanCacheStats{}) {
		t.Errorf("WithoutPlanCache touched the cache: %+v", st)
	}
	plain, err := db.Explain(q, WithoutPlanCache())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(plain, "-- compiled\n") || !strings.Contains(plain, "b = 20") || strings.Contains(plain, "$1") {
		t.Errorf("explain without the cache:\n%s", plain)
	}
	first, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := db.Explain(`SELECT a FROM r WHERE b = 30 AND s = 'x'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(first, "-- compiled: $1 = 20, $2 = 'y'\n") || !strings.Contains(first, "b = $1") {
		t.Errorf("first explain:\n%s", first)
	}
	if !strings.HasPrefix(second, "-- cached: $1 = 30, $2 = 'x'\n") || !strings.Contains(second, "b = $1") {
		t.Errorf("second explain:\n%s", second)
	}
	// The options that shape a plan are part of the key.
	for _, opts := range [][]Option{{WithoutOptimizer()}, {WithPlanCheck(false)}, {WithStrategy(Gen)}} {
		out, err := db.Explain(q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(out, "-- compiled") {
			t.Errorf("options %d are not part of the key:\n%s", len(opts), out)
		}
	}
}

// TestPlanCacheExplainNames: the cache keeps plans bound to slots, and
// Explain renders them by name. A hit prints the plan body the compiling call
// printed, with no slot syntax in it; a correlated reference whose bare name
// the inner relation shadows prints qualified.
func TestPlanCacheExplainNames(t *testing.T) {
	db := planCacheFixture(t)
	const q = `SELECT a FROM r WHERE b = ANY (SELECT r2.b FROM r AS r2 WHERE r2.s = r.s AND r2.a <> %d) ORDER BY a`
	first, err := db.Explain(fmt.Sprintf(q, 1))
	if err != nil {
		t.Fatal(err)
	}
	second, err := db.Explain(fmt.Sprintf(q, 2))
	if err != nil {
		t.Fatal(err)
	}
	body := func(s string) string { return s[strings.IndexByte(s, '\n')+1:] }
	if !strings.HasPrefix(first, "-- compiled: $1 = 1\n") || !strings.HasPrefix(second, "-- cached: $1 = 2\n") {
		t.Fatalf("first explain:\n%s\nsecond:\n%s", first, second)
	}
	if body(first) != body(second) {
		t.Errorf("the hit's plan\n%s\ndiffers from the compiled one\n%s", body(second), body(first))
	}
	if strings.Contains(second, "⟨") || !strings.Contains(second, "s = r.s AND a <> $1") || !strings.Contains(second, "b = ANY") {
		t.Errorf("explain of a cached plan:\n%s", second)
	}
}

// TestPlanCacheVariantsBindOwnSlots: two sessions' private tables w, of the
// same columns in another order, give one statement two plans of one family,
// the second built on the memory of the first (algebra.Compact). Their
// references read different slots, so the second may share none of the
// first's expressions that read w.
func TestPlanCacheVariantsBindOwnSlots(t *testing.T) {
	db := Open()
	for _, tc := range []struct {
		cols, rows string
		want       []any
	}{
		{`a int, b int`, `(1, 10), (2, 20)`, []any{int64(2), int64(21)}},
		{`b int, a int`, `(10, 3), (20, 4)`, []any{int64(4), int64(21)}},
	} {
		s := db.NewSession()
		for _, stmt := range []string{`CREATE TABLE w (` + tc.cols + `)`, `INSERT INTO w VALUES ` + tc.rows} {
			if _, err := s.Exec(stmt); err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
		}
		res, err := sameWithAndWithoutPlanCache(t, s, `SELECT a, b + 1 FROM w WHERE b = 20`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || fmt.Sprint(res.Rows[0]) != fmt.Sprint(tc.want) {
			t.Errorf("w(%s): rows %v, want [%v]", tc.cols, res.Rows, tc.want)
		}
	}
	if st := db.PlanCacheStats(); st.Entries != 2 || st.Misses != 2 {
		t.Errorf("stats %+v, want two plans", st)
	}
}

// TestPlanCacheConcurrentDDL: sessions hammer one statement family while
// the base table behind it keeps changing its kind and a view comes and
// goes. Every outcome must be one that some state of the catalog explains:
// never an evaluation error from a plan compiled for another state.
func TestPlanCacheConcurrentDDL(t *testing.T) {
	db := Open()
	register := func(text bool) {
		rows := [][]any{{1, 1}, {2, 2}, {3, 3}}
		if text {
			rows = [][]any{{"p", 1}, {"q", 2}}
		}
		if err := db.Register("t", []string{"a", "k"}, rows); err != nil {
			t.Error(err)
		}
	}
	register(false)
	const sessions, rounds = 8, 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			register(i%2 == 0)
			// Reading the counters beside the clients' admissions is what
			// -race checks PlanCacheStats' lock with.
			db.PlanCacheStats()
			stmt := `CREATE VIEW tv AS SELECT a, k FROM t WHERE k < 3`
			if i%2 == 1 {
				stmt = `DROP VIEW tv`
			}
			if _, err := db.Exec(stmt); err != nil {
				t.Errorf("%s: %v", stmt, err)
				return
			}
		}
	}()
	var clients sync.WaitGroup
	for s := 0; s < sessions; s++ {
		clients.Add(1)
		go func(s int) {
			defer clients.Done()
			sess := db.NewSession()
			if err := sess.Register("mine", []string{"a"}, [][]any{{s}}); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < rounds; i++ {
				// Let the writer in between rounds even on a single busy CPU:
				// the test needs DDL to land while the clients run.
				runtime.Gosched()
				// The concatenation types only while t.a is text; the rows say
				// which state the statement saw.
				res, err := sess.Query(fmt.Sprintf(`SELECT a || 'x%d', k FROM t WHERE k >= %d ORDER BY k`, i%3, 1+i%2))
				switch {
				case err != nil:
					if !strings.Contains(err.Error(), "operator does not exist: integer || string") {
						t.Errorf("round %d: %v", i, err)
						return
					}
				case len(res.Rows) != 2-i%2 || res.Rows[len(res.Rows)-1][0] != fmt.Sprintf("qx%d", i%3):
					t.Errorf("round %d: rows %v", i, res.Rows)
					return
				}
				res, err = sess.Query(fmt.Sprintf(`SELECT k FROM tv WHERE k >= %d ORDER BY k`, 1+i%2))
				if err != nil && !strings.Contains(err.Error(), `unknown relation "tv"`) {
					t.Errorf("round %d: %v", i, err)
					return
				}
				if err == nil && (len(res.Rows) != 2-i%2 || res.Rows[len(res.Rows)-1][0] != int64(2)) {
					t.Errorf("round %d: view rows %v", i, res.Rows)
					return
				}
				res, err = sess.Query(fmt.Sprintf(`SELECT a + %d FROM mine`, i))
				if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != int64(s+i) {
					t.Errorf("round %d: private table: %v, %v", i, res, err)
					return
				}
			}
		}(s)
	}
	clients.Wait()
	close(stop)
	wg.Wait()
	st := db.PlanCacheStats()
	if st.Hits == 0 || st.Stale == 0 {
		t.Errorf("stats %+v: want hits and stale plans under DDL", st)
	}
	t.Logf("%+v", st)
}

// TestFrozenPlanCheck writes into a published plan after admission — the
// selection's condition C becomes C AND TRUE, which changes no row — and
// runs the statement again. With plan verification on ("strict") the hit
// fails with the frozen plancheck error; with it off the plan was never
// fingerprinted and the write goes unnoticed.
func TestFrozenPlanCheck(t *testing.T) {
	const q = `SELECT a, b FROM r WHERE a >= 2`
	for _, tc := range []struct {
		name string
		on   bool
	}{{"strict", true}, {"off", false}} {
		t.Run(tc.name, func(t *testing.T) {
			db := openFigure3(t)
			want, err := db.Query(q, WithPlanCheck(tc.on))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Query(q, WithPlanCheck(tc.on)); err != nil {
				t.Fatalf("an untouched hit fails: %v", err)
			}
			if st := db.PlanCacheStats(); st.Entries != 1 || st.Hits != 1 {
				t.Fatalf("stats %+v, want one plan and one hit", st)
			}
			var p *planned
			for _, variants := range db.plans.families {
				p = variants[0]
			}
			if fingerprinted := p.frozen != 0; fingerprinted != tc.on {
				t.Fatalf("plan fingerprinted %v with verification %v", fingerprinted, tc.on)
			}
			algebra.Walk(p.plan, func(op algebra.Op) bool {
				if sel, ok := op.(*algebra.Select); ok {
					sel.Cond = algebra.And{L: sel.Cond, R: algebra.BoolConst(true)}
				}
				return true
			})
			got, err := db.Query(q, WithPlanCheck(tc.on))
			if !tc.on {
				if err != nil || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
					t.Fatalf("got %v, %v; want the rows %v", got, err, want.Rows)
				}
				return
			}
			if err == nil || !strings.HasPrefix(err.Error(), "plancheck: frozen") {
				t.Fatalf("got %v, want the frozen plancheck error", err)
			}
		})
	}
}
