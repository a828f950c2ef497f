// Command permload is the corpus differential checker for permd. It
// replays the checked-in fuzz corpus (honoring the files'
// "-- expect-error:" annotations) plus the synthetic sublink workload —
// plain and SELECT PROVENANCE, streaming and materializing — at a
// configurable concurrency. It does not time requests: the benchmark's
// service_mix workload and permd's GET /stats measure latency.
//
// With -verify (the default) every response is compared against direct
// library execution over the same seed: rows must match cell for cell, and
// error responses must carry the engine's error text verbatim. The target
// permd must therefore run with the same -seed, -synth-size and
// -synth-domain. The library side compiles every statement
// as written (perm.WithoutPlanCache), so the comparison also checks the
// server's plan cache; the run ends with the share of the server's plan
// lookups it answered from the cache, read from GET /stats.
//
//	go run ./cmd/permd &
//	go run ./cmd/permload -n 500 -c 8
//
// Exit status is non-zero when any request failed unexpectedly or
// diverged from direct execution.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"perm"
	"perm/internal/fuzz"
	"perm/internal/service"
	"perm/internal/synth"
)

// task is one request template in the replay mix.
type task struct {
	name      string
	query     string
	expectErr string // substring the error must contain; "" means must succeed
	mode      string // "" (stream) or "materialize"
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "permd base URL")
	n := flag.Int("n", 500, "total requests to send")
	c := flag.Int("c", 8, "concurrent workers")
	corpus := flag.String("corpus", "internal/fuzz/testdata/fuzz-corpus", "fuzz corpus directory ('' to skip)")
	seed := flag.Int64("seed", 1, "seed; must match the target permd")
	verify := flag.Bool("verify", true, "compare every response against direct library execution")
	synthSize := flag.Int("synth-size", 100, "synth workload size; must match the target permd")
	synthDomain := flag.Int("synth-domain", 0, "synth workload domain; must match the target permd")
	timeoutMS := flag.Int64("timeout-ms", 0, "per-request timeout_ms to send (0 = server default)")
	flag.Parse()

	tasks, err := buildTasks(*corpus, *seed, *synthSize, *synthDomain)
	if err != nil {
		fmt.Fprintln(os.Stderr, "permload:", err)
		os.Exit(1)
	}
	var direct *perm.DB
	if *verify {
		direct = buildDB(*seed, *synthSize, *synthDomain)
	}

	var (
		next     atomic.Int64
		failures atomic.Int64
		expected atomic.Int64
		mu       sync.Mutex
		msgs     []string
	)
	fail := func(msg string) {
		failures.Add(1)
		mu.Lock()
		if len(msgs) < 20 {
			msgs = append(msgs, msg)
		}
		mu.Unlock()
	}
	client := &http.Client{}
	cacheBefore, err := planCacheStats(client, *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "permload:", err)
		os.Exit(1)
	}
	var wg sync.WaitGroup
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(*n) {
					return
				}
				tk := tasks[i%int64(len(tasks))]
				wasErr, msg := runOne(client, *addr, tk, *timeoutMS, direct)
				if msg != "" {
					fail(tk.name + ": " + msg)
				} else if wasErr {
					expected.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	fmt.Printf("permload: %d requests, %d workers, %d task templates: %d expected errors, %d failures\n",
		*n, *c, len(tasks), expected.Load(), failures.Load())
	cacheAfter, err := planCacheStats(client, *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "permload:", err)
		os.Exit(1)
	}
	hits, misses := cacheAfter.Hits-cacheBefore.Hits, cacheAfter.Misses-cacheBefore.Misses
	fmt.Printf("permload: plan cache: %d hits, %d misses (hit ratio %.3f), %d stale, %d entries\n",
		hits, misses, float64(hits)/float64(max(hits+misses, 1)), cacheAfter.Stale-cacheBefore.Stale, cacheAfter.Entries)
	for _, m := range msgs {
		fmt.Fprintln(os.Stderr, "permload: FAIL:", m)
	}
	if failures.Load() > 0 {
		os.Exit(1)
	}
}

// queryBody mirrors the service's QueryRequest.
type queryBody struct {
	Query     string `json:"query"`
	Mode      string `json:"mode,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// queryReply mirrors the union of the service's success and error bodies.
type queryReply struct {
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
	Error   *struct {
		Class   string `json:"class"`
		Message string `json:"message"`
	} `json:"error"`
}

// planCacheStats reads the server's plan-cache counters from GET /stats.
func planCacheStats(client *http.Client, addr string) (service.PlanCacheJSON, error) {
	resp, err := client.Get(addr + "/stats")
	if err != nil {
		return service.PlanCacheJSON{}, fmt.Errorf("GET /stats: %w", err)
	}
	defer resp.Body.Close()
	var stats service.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return service.PlanCacheJSON{}, fmt.Errorf("GET /stats: %w", err)
	}
	return stats.PlanCache, nil
}

// runOne sends one request and checks the outcome. It returns whether the
// response was an (expected) error, and a non-empty failure message when
// the outcome was wrong.
func runOne(client *http.Client, addr string, tk task, timeoutMS int64, direct *perm.DB) (bool, string) {
	body, _ := json.Marshal(queryBody{Query: tk.query, Mode: tk.mode, TimeoutMS: timeoutMS})
	resp, err := client.Post(addr+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return false, "transport: " + err.Error()
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var out queryReply
	decErr := dec.Decode(&out)
	resp.Body.Close()
	if decErr != nil {
		return false, "bad response JSON: " + decErr.Error()
	}
	if resp.StatusCode == http.StatusOK && out.Error != nil ||
		resp.StatusCode != http.StatusOK && out.Error == nil {
		return false, fmt.Sprintf("status %d does not match body", resp.StatusCode)
	}
	if out.Error != nil && tk.expectErr != "" && !strings.Contains(out.Error.Message, tk.expectErr) {
		return true, fmt.Sprintf("error %q does not contain %q", out.Error.Message, tk.expectErr)
	}
	if direct == nil {
		// Without -verify, judge by the corpus annotation alone.
		if tk.expectErr == "" && out.Error != nil {
			return true, "unexpected error: " + out.Error.Message
		}
		if tk.expectErr != "" && out.Error == nil {
			return false, fmt.Sprintf("expected an error containing %q, got success", tk.expectErr)
		}
		return out.Error != nil, ""
	}
	opts := []perm.Option{perm.WithoutPlanCache()}
	if tk.mode == "materialize" {
		opts = append(opts, perm.WithoutStreaming())
	}
	want, wantErr := direct.Query(tk.query, opts...)
	switch {
	case wantErr != nil && out.Error == nil:
		return false, fmt.Sprintf("library errored (%v) but service succeeded", wantErr)
	case wantErr == nil && out.Error != nil:
		return true, fmt.Sprintf("service errored (%s) but library succeeded", out.Error.Message)
	case wantErr != nil:
		if out.Error.Message != wantErr.Error() {
			return true, fmt.Sprintf("error text diverged: service %q, library %q", out.Error.Message, wantErr)
		}
		return true, ""
	}
	if msg := compareRows(want, out); msg != "" {
		return false, msg
	}
	return false, ""
}

// compareRows checks column names and every cell of the HTTP result
// against the direct library result.
func compareRows(want *perm.Result, got queryReply) string {
	if strings.Join(want.Columns, "|") != strings.Join(got.Columns, "|") {
		return fmt.Sprintf("columns diverged: service %v, library %v", got.Columns, want.Columns)
	}
	if len(want.Rows) != len(got.Rows) {
		return fmt.Sprintf("row count diverged: service %d, library %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if len(want.Rows[i]) != len(got.Rows[i]) {
			return fmt.Sprintf("row %d width diverged", i)
		}
		for j := range want.Rows[i] {
			if !cellEqual(want.Rows[i][j], got.Rows[i][j]) {
				return fmt.Sprintf("row %d col %d diverged: service %v, library %v",
					i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
	return ""
}

// cellEqual compares one direct-library cell with one JSON-decoded cell.
// Numbers compare numerically (JSON renders 1e+06 as 1000000), everything
// else by rendered text.
func cellEqual(want, got any) bool {
	if want == nil || got == nil {
		return want == nil && got == nil
	}
	ws := fmt.Sprintf("%v", want)
	var gs string
	switch g := got.(type) {
	case json.Number:
		gs = g.String()
	default:
		gs = fmt.Sprintf("%v", g)
	}
	if ws == gs {
		return true
	}
	wf, werr := strconv.ParseFloat(ws, 64)
	gf, gerr := strconv.ParseFloat(gs, 64)
	return werr == nil && gerr == nil && wf == gf
}

// buildTasks assembles the replay mix: every corpus file (plus PROVENANCE
// variants of the LIMIT-free success files) and the four synth queries,
// plain and PROVENANCE, under both executor modes.
func buildTasks(corpusDir string, seed int64, synthSize, synthDomain int) ([]task, error) {
	var tasks []task
	if corpusDir != "" {
		cases, err := fuzz.ReadCorpus(corpusDir)
		if err != nil {
			return nil, fmt.Errorf("%w (use -corpus '' to skip)", err)
		}
		for _, c := range cases {
			tasks = append(tasks, task{name: c.Name, query: c.Query, expectErr: c.ExpectErr})
			upper := strings.ToUpper(c.Query)
			if c.ExpectErr == "" && strings.HasPrefix(c.Query, "SELECT ") &&
				!strings.Contains(upper, "LIMIT") && !strings.Contains(upper, "OFFSET") {
				tasks = append(tasks, task{
					name:  c.Name + "+prov",
					query: "SELECT PROVENANCE " + strings.TrimPrefix(c.Query, "SELECT "),
				})
			}
		}
	}
	wl := synth.Workload{InputSize: synthSize, SublinkSize: synthSize, Seed: seed, Domain: synthDomain}
	gens := []struct {
		name string
		fn   func(int64) string
	}{{"q1", wl.Q1}, {"q2", wl.Q2}, {"q3", wl.Q3}, {"q4", wl.Q4}}
	for _, g := range gens {
		for inst := int64(0); inst < 3; inst++ {
			q := g.fn(inst)
			mode := ""
			if inst%2 == 1 {
				mode = "materialize"
			}
			tasks = append(tasks, task{name: fmt.Sprintf("synth-%s-%d", g.name, inst), query: q, mode: mode})
			tasks = append(tasks, task{
				name:  fmt.Sprintf("synth-%s-%d+prov", g.name, inst),
				query: "SELECT PROVENANCE " + strings.TrimPrefix(q, "SELECT "),
				mode:  mode,
			})
		}
	}
	return tasks, nil
}

// buildDB mirrors permd's base catalog: fuzz tables r, s, t, u plus synth
// relations r1, r2.
func buildDB(seed int64, synthSize, synthDomain int) *perm.DB {
	db := fuzz.NewDB(seed)
	wl := synth.Workload{InputSize: synthSize, SublinkSize: synthSize, Seed: seed, Domain: synthDomain}
	cat := wl.Catalog()
	for _, name := range []string{"r1", "r2"} {
		r, err := cat.Relation(name)
		if err != nil {
			panic(err)
		}
		db.Catalog().Register(name, r)
	}
	return db
}
