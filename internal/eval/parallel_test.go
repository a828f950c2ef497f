package eval

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/opt"
	"perm/internal/rel"
	"perm/internal/rewrite"
	"perm/internal/sql"
	"perm/internal/synth"
)

// equivalenceQueries covers every operator both executors implement:
// selections and projections with correlated and uncorrelated sublinks,
// hash and nested-loop joins, left joins, aggregation and set operations.
func equivalenceQueries() []string {
	return []string{
		`SELECT * FROM r WHERE a = ANY (SELECT c FROM s)`,
		`SELECT * FROM r WHERE a = ANY (SELECT c FROM s WHERE c = b)`,
		`SELECT * FROM r WHERE EXISTS (SELECT c FROM s WHERE c = a)`,
		`SELECT * FROM r WHERE a < ALL (SELECT c FROM s WHERE c > b)`,
		`SELECT a, (SELECT max(c) FROM s WHERE c <= a) FROM r`,
		`SELECT r.a, s.d FROM r, s WHERE r.a = s.c`,
		`SELECT r.a, s.d FROM r LEFT JOIN s ON r.a = s.c`,
		`SELECT r.a, s.d FROM r, s WHERE r.a < s.c`,
		`SELECT b, count(*), sum(a) FROM r GROUP BY b`,
		`SELECT b, max(a) FROM r WHERE EXISTS (SELECT c FROM s WHERE c = b) GROUP BY b`,
		`SELECT a FROM r UNION SELECT c FROM s`,
		`SELECT a FROM r WHERE a > 0 INTERSECT SELECT c FROM s`,
		`SELECT DISTINCT b FROM r`,
	}
}

// compileOptimized compiles a query and runs the logical optimizer over it.
func compileOptimized(t *testing.T, cat *catalog.Catalog, query string) algebra.Op {
	t.Helper()
	tr, err := sql.Compile(cat, query)
	if err != nil {
		t.Fatalf("compile %q: %v", query, err)
	}
	return opt.Optimize(tr.Plan)
}

// checkModes runs one query under every executor mode — the streaming
// pipeline with the memo and with workers, and the materializing reference
// with the memo on and off, all with the hashed = ANY set — and checks the
// results are bag-equal to a sequential streaming run with neither cache:
// no per-binding memo and no hashed = ANY. Every mode is thereby a
// differential test of the caches it runs with.
func checkModes(t *testing.T, cat *catalog.Catalog, query, strategy string) {
	t.Helper()
	tr, err := sql.Compile(cat, query)
	if err != nil {
		t.Fatalf("compile %q: %v", query, err)
	}
	plan := tr.Plan
	if strategy != "" {
		strat, err := rewrite.ParseStrategy(strategy)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rewrite.Rewrite(plan, strat)
		if errors.Is(err, rewrite.ErrNotApplicable) {
			return
		}
		if err != nil {
			t.Fatalf("rewrite %q: %v", query, err)
		}
		plan = res.Plan
	}
	plan = opt.Optimize(plan)

	base := New(cat)
	base.DisableSublinkMemo = true
	base.DisableHashedAny = true
	want, err := base.Eval(plan)
	if err != nil {
		t.Fatalf("sequential eval %q: %v", query, err)
	}
	for _, mode := range []struct {
		name        string
		materialize bool
		memo        bool
		par         int
	}{
		{"memo", false, true, 1},
		{"parallel", false, false, 4},
		{"memo+parallel", false, true, 4},
		{"materializing", true, false, 1},
		{"materializing+memo", true, true, 1},
	} {
		ev := New(cat)
		ev.DisableStreaming = mode.materialize
		ev.DisableSublinkMemo = !mode.memo
		ev.Parallelism = mode.par
		got, err := ev.Eval(plan)
		if err != nil {
			t.Fatalf("%s eval %q: %v", mode.name, query, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s eval %q:\n got %s\nwant %s", mode.name, query, got, want)
		}
	}
}

func TestExecutorModesMatchSequential(t *testing.T) {
	cat := figure3DB()
	for _, query := range equivalenceQueries() {
		for _, strategy := range []string{"", "Gen", "Left", "Move", "Unn", "UnnX"} {
			checkModes(t, cat, query, strategy)
		}
	}
}

func TestParallelMatchesSequentialSynth(t *testing.T) {
	// A larger workload, including the correlated query the per-binding
	// memo targets.
	w := synth.Workload{InputSize: 120, SublinkSize: 60, Domain: 8, Seed: 3}
	cat := w.Catalog()
	for _, query := range []string{w.Q1(0), w.Q2(0), w.Q3(0)} {
		for _, strategy := range []string{"", "Gen"} {
			checkModes(t, cat, query, strategy)
		}
	}
}

func TestParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := synth.Workload{InputSize: 200, SublinkSize: 100, Seed: 1}
	cat := w.Catalog()
	ev := New(cat).WithContext(ctx)
	ev.Parallelism = 4
	if _, err := ev.Eval(compileOptimized(t, cat, w.Q3(0))); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// workerScanDB counts the scans of one table that run on a parallelSegment
// worker goroutine — the evidence that a plan really fanned out.
type workerScanDB struct {
	DB
	table    string
	onWorker atomic.Int64
}

func (d *workerScanDB) Relation(name string) (*rel.Relation, error) {
	if name == d.table {
		buf := make([]byte, 64<<10)
		stack := string(buf[:runtime.Stack(buf, false)])
		if strings.Contains(stack, "created by perm/internal/eval.(*Evaluator).parallelSegment") {
			d.onWorker.Add(1)
		}
	}
	return d.DB.Relation(name)
}

// panicDB panics on every scan of one table — a seeded engine bug.
type panicDB struct {
	DB
	table string
}

func (d panicDB) Relation(name string) (*rel.Relation, error) {
	if name == d.table {
		panic("seeded engine bug: scan of " + name)
	}
	return d.DB.Relation(name)
}

// q4Workload is synth Q4: a selection whose correlated EXISTS probes r2
// once per outer binding, the segment the worker pool fans out.
func q4Workload(t *testing.T) (*catalog.Catalog, algebra.Op) {
	t.Helper()
	w := synth.Workload{InputSize: 200, SublinkSize: 100, Domain: 16, Seed: 2}
	cat := w.Catalog()
	return cat, compileOptimized(t, cat, w.Q4(0))
}

func TestParallelRowBudget(t *testing.T) {
	cat, plan := q4Workload(t)
	out, err := New(cat).Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	if out.Card() <= 5 {
		t.Fatalf("unbounded run has %d rows, want more than the budget of 5", out.Card())
	}
	db := &workerScanDB{DB: cat, table: "r2"}
	ev := New(db)
	ev.Parallelism = 4
	ev.MaxRows = 5
	if _, err := ev.Eval(plan); !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if db.onWorker.Load() == 0 {
		t.Fatal("no r2 scan ran on a segment worker: the plan never fanned out")
	}
}

// TestWorkerPanicReachesCaller: an engine bug that panics on a segment
// worker must panic on the goroutine that called Eval — where a recover
// (net/http's included) can see it — carrying the worker's stack, and leave
// no worker behind.
func TestWorkerPanicReachesCaller(t *testing.T) {
	cat, plan := q4Workload(t)
	baseline := runtime.NumGoroutine()
	var recovered any
	var err error
	func() {
		defer func() { recovered = recover() }()
		ev := New(panicDB{DB: cat, table: "r2"})
		ev.Parallelism = 4
		_, err = ev.Eval(plan)
	}()
	if recovered == nil {
		t.Fatalf("Eval returned %v, want a panic", err)
	}
	msg := fmt.Sprint(recovered)
	for _, want := range []string{"seeded engine bug: scan of r2", "segment worker", "panicDB.Relation"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic message lacks %q:\n%s", want, msg)
		}
	}
	waitGoroutineBaseline(t, baseline)
}

func TestParallelProvenanceRewrites(t *testing.T) {
	// End-to-end over the synthetic provenance workload: every strategy's
	// rewritten plan evaluates identically with and without fan-out.
	w := synth.Workload{InputSize: 60, SublinkSize: 40, Domain: 6, Seed: 7}
	cat := w.Catalog()
	for i := int64(0); i < 2; i++ {
		for _, strategy := range []string{"Gen", "Left", "Move", "Unn", "UnnX"} {
			checkModes(t, cat, w.Q1(i), strategy)
		}
	}
}

func BenchmarkEvalParallelSelect(b *testing.B) {
	w := synth.Workload{InputSize: 500, SublinkSize: 250, Domain: 32, Seed: 1}
	cat := w.Catalog()
	tr, err := sql.Compile(cat, w.Q3(0))
	if err != nil {
		b.Fatal(err)
	}
	plan := opt.Optimize(tr.Plan)
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", par), func(b *testing.B) {
			ev := New(cat)
			ev.Parallelism = par
			ev.DisableSublinkMemo = true
			for i := 0; i < b.N; i++ {
				if _, err := ev.Eval(plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
