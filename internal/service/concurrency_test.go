package service

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestConcurrentSessionIsolation interleaves DDL and provenance queries
// from many goroutines: every goroutine owns one private session and all
// of them share one more. Session tables must never leak across sessions
// and base-table queries must stay undisturbed throughout. Run with -race.
func TestConcurrentSessionIsolation(t *testing.T) {
	_, ts := newGoldenServer(t, Config{MaxConcurrent: 64})
	const workers = 8
	const rounds = 12

	var wg sync.WaitGroup
	errc := make(chan error, workers*4)
	report := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			own := fmt.Sprintf("sess-%d", i)
			table := fmt.Sprintf("w%d", i)
			status, out := post(t, ts.URL+"/exec", map[string]any{
				"session": own, "statement": fmt.Sprintf("CREATE TABLE %s (a int)", table)})
			if status != 200 {
				report("create %s: status %d (%+v)", table, status, out.Error)
				return
			}
			status, out = post(t, ts.URL+"/exec", map[string]any{
				"session": own, "statement": fmt.Sprintf("INSERT INTO %s VALUES (%d), (%d)", table, i, i)})
			if status != 200 {
				report("insert %s: status %d (%+v)", table, status, out.Error)
				return
			}
			shared := fmt.Sprintf("sh%d", i)
			post(t, ts.URL+"/exec", map[string]any{
				"session": "shared", "statement": fmt.Sprintf("CREATE TABLE %s (a int)", shared)})
			for r := 0; r < rounds; r++ {
				// Own session sees exactly its own rows, with provenance.
				status, out := post(t, ts.URL+"/query", map[string]any{
					"session": own, "query": fmt.Sprintf("SELECT PROVENANCE a FROM %s", table)})
				if status != 200 {
					report("round %d: own query status %d (%+v)", r, status, out.Error)
					return
				}
				want := fmt.Sprintf("%d %d; %d %d", i, i, i, i)
				if got := renderRows(out.Rows); got != want {
					report("round %d: own rows %q, want %q", r, got, want)
					return
				}
				// The neighbour's private table must be invisible here.
				other := fmt.Sprintf("w%d", (i+1)%workers)
				status, out = post(t, ts.URL+"/query", map[string]any{
					"session": own, "query": "SELECT a FROM " + other})
				if status != 400 || out.Error == nil || out.Error.Class != ClassCatalog {
					report("round %d: session %s can see %s (status %d, %+v)", r, own, other, status, out.Error)
					return
				}
				// The shared base table reads the same from every session.
				status, out = post(t, ts.URL+"/query", map[string]any{
					"session": own, "query": "SELECT a FROM t1 ORDER BY 1"})
				if status != 200 || renderRows(out.Rows) != "1; 2; 3" {
					report("round %d: base table read broke: status %d rows %q", r, status, renderRows(out.Rows))
					return
				}
				// DDL churn on the shared session while queries run.
				post(t, ts.URL+"/exec", map[string]any{
					"session": "shared", "statement": fmt.Sprintf("INSERT INTO %s VALUES (%d)", shared, r)})
				// A fresh named session beside /stats: creating sessions while
				// another request counts them is what -race checks sessMu with.
				probe := fmt.Sprintf("probe-%d-%d", i, r)
				if status, out := post(t, ts.URL+"/query", map[string]any{
					"session": probe, "query": "SELECT a FROM t1"}); status != 200 {
					report("round %d: session %s: status %d (%+v)", r, probe, status, out.Error)
					return
				}
				resp, err := http.Get(ts.URL + "/stats")
				if err != nil {
					report("round %d: /stats: %v", r, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					report("round %d: /stats status %d", r, resp.StatusCode)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// After the dust settles: the shared session sees every shared table,
	// a fresh session sees none of them.
	for i := 0; i < workers; i++ {
		shared := fmt.Sprintf("sh%d", i)
		status, out := post(t, ts.URL+"/query", map[string]any{
			"session": "shared", "query": "SELECT a FROM " + shared})
		if status != 200 {
			t.Errorf("shared session lost %s: status %d (%+v)", shared, status, out.Error)
		}
		if len(out.Rows) != rounds*1 {
			t.Errorf("shared table %s has %d rows, want %d", shared, len(out.Rows), rounds)
		}
		status, out = post(t, ts.URL+"/query", map[string]any{
			"session": "fresh", "query": "SELECT a FROM " + shared})
		if status != 400 || out.Error == nil || out.Error.Class != ClassCatalog {
			t.Errorf("fresh session can see %s: status %d (%+v)", shared, status, out.Error)
		}
	}
}

// TestRequestTimeoutCancelsQuery is the acceptance scenario: a 50ms
// request timeout on a statement of the 400-row synthetic workload that
// runs for seconds unconstrained must come back as a timeout error within
// 200ms, release its admission slot, and leak no goroutines.
func TestRequestTimeoutCancelsQuery(t *testing.T) {
	_, ts, _ := newSynthServer(t, 400, 20, Config{MaxConcurrent: 2})
	q := slowStatement

	// Warm up the HTTP client/server goroutine population before taking
	// the baseline, so keep-alive conns don't count as leaks.
	post(t, ts.URL+"/query", map[string]any{"query": "SELECT a FROM r1 WHERE a = 0 AND b = -1"})
	before := runtime.NumGoroutine()

	start := time.Now()
	status, out := post(t, ts.URL+"/query", map[string]any{
		"query": q, "strategy": "Gen", "timeout_ms": 50})
	elapsed := time.Since(start)
	if status != 504 || out.Error == nil || out.Error.Class != ClassTimeout {
		t.Fatalf("status = %d, error = %+v, want 504 class timeout", status, out.Error)
	}
	if elapsed > 200*time.Millisecond {
		t.Errorf("timeout response took %v, want < 200ms", elapsed)
	}

	// The limiter slot must be free again: with MaxConcurrent=2, two
	// concurrent quick queries succeed only if the timed-out query
	// released its token.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, out := post(t, ts.URL+"/query", map[string]any{"query": "SELECT a FROM r1 WHERE b = 0"})
			if status != 200 {
				t.Errorf("post-timeout query: status %d (%+v)", status, out.Error)
			}
		}()
	}
	wg.Wait()

	// No goroutine leak: the canceled statements wind down. Allow
	// brief scheduling slack plus a small tolerance for idle HTTP conns.
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d now=%d — leak after cancellation", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestOverloadShedding: more simultaneous statements than MaxConcurrent
// get 429 + Retry-After instead of queueing.
func TestOverloadShedding(t *testing.T) {
	s, ts, _ := newSynthServer(t, 200, 10, Config{MaxConcurrent: 1})
	q := slowStatement

	done := make(chan int, 1)
	go func() {
		status, _ := post(t, ts.URL+"/query", map[string]any{"query": q, "strategy": "Gen"})
		done <- status
	}()
	// Wait until the slow query holds the only slot.
	waitUntil(t, 2*time.Second, func() bool { return s.inFlightN.Load() == 1 })

	status, out := post(t, ts.URL+"/query", map[string]any{"query": "SELECT a FROM r1 WHERE b = 0"})
	if status != 429 || out.Error == nil || out.Error.Class != ClassOverload {
		t.Fatalf("shed request: status = %d, error = %+v, want 429 class overload", status, out.Error)
	}
	if status := <-done; status != 200 {
		t.Fatalf("slow query finished with status %d", status)
	}
}

func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
