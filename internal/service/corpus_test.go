package service

import (
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"perm"
	"perm/internal/fuzz"
	"perm/internal/synth"
)

// permdWorkload is the synthetic workload whose r1 and r2 cmd/permd serves.
var permdWorkload = synth.Workload{InputSize: 100, SublinkSize: 100, Seed: 1}

// TestCorpusOverHTTP replays the checked-in fuzz corpus and two instances
// of each synthetic sublink template q1–q4 through one server over
// permd's catalog, plain and SELECT PROVENANCE, under both executor modes.
// Every response must equal direct library execution row for row; the
// library compiles each statement as written (perm.WithoutPlanCache), so
// the comparison also checks the server's plan cache. Files annotated
// "-- expect-error:" must fail over JSON with the same error class and the
// engine's message verbatim.
//
// The cases are parallel subtests, so requests reach the server at once
// (the -race run checks its locks), and each statement is sent twice.
// Repeats and the second instance of each template, which differs only in
// its constants, are plan-cache hits, and GET /stats must count them.
func TestCorpusOverHTTP(t *testing.T) {
	corpus, err := fuzz.ReadCorpus(filepath.Join("..", "fuzz", "testdata", "fuzz-corpus"))
	if err != nil {
		t.Fatal(err)
	}
	type replay struct {
		name      string
		queries   []string
		expectErr string
	}
	var cases []replay
	provenance := func(q string) string { return "SELECT PROVENANCE " + strings.TrimPrefix(q, "SELECT ") }
	for _, c := range corpus {
		queries := []string{c.Query}
		upper := strings.ToUpper(c.Query)
		if c.ExpectErr == "" && strings.HasPrefix(c.Query, "SELECT ") &&
			!strings.Contains(upper, "LIMIT") && !strings.Contains(upper, "OFFSET") {
			queries = append(queries, provenance(c.Query))
		}
		cases = append(cases, replay{c.Name, queries, c.ExpectErr})
	}
	// The constants of instances 9 and 19 have the same signs, so the two
	// share a pattern (a minus sign is part of it) and the second runs the
	// first's plan with its own parameters. Their q2 returns 8 and 1 rows on
	// permd's gaussian r1 and r2; q1, q3 and q4 match no row there at
	// instances 0–59, so for them the replay checks columns and the plan
	// path only.
	wl := permdWorkload
	for i, template := range []func(int64) string{wl.Q1, wl.Q2, wl.Q3, wl.Q4} {
		for _, inst := range []int64{9, 19} {
			q := template(inst)
			cases = append(cases, replay{fmt.Sprintf("synth-q%d-%d", i+1, inst), []string{q, provenance(q)}, ""})
		}
	}

	direct := permdDB(t)
	ts := httptest.NewServer(New(Config{DB: permdDB(t)}))
	t.Cleanup(ts.Close)
	// Cleanups run last first, after every parallel subtest has finished.
	t.Cleanup(func() {
		if pc := getStats(t, ts.URL).PlanCache; pc.Hits == 0 {
			t.Errorf("plan_cache = %+v after the replay, want hits > 0", pc)
		}
	})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for _, q := range c.queries {
				for _, mode := range []string{"stream", "materialize"} {
					opts := []perm.Option{perm.WithoutPlanCache()}
					if mode == "materialize" {
						opts = append(opts, perm.WithoutStreaming())
					}
					want, wantErr := direct.Query(q, opts...)
					for range 2 {
						status, out := post(t, ts.URL+"/query", map[string]any{"query": q, "mode": mode})
						if msg := sameOutcome(want, wantErr, status, out, c.expectErr); msg != "" {
							t.Fatalf("%s: %s\n%s", mode, msg, q)
						}
					}
				}
			}
		})
	}
}

// sameOutcome compares one HTTP response with the library's outcome for the
// same statement; expectErr is the corpus file's "-- expect-error:"
// annotation. The returned string is empty on agreement.
func sameOutcome(want *perm.Result, wantErr error, status int, out reply, expectErr string) string {
	if wantErr != nil {
		if status == 200 || out.Error == nil {
			return fmt.Sprintf("library errored (%v) but service returned %d", wantErr, status)
		}
		if out.Error.Message != wantErr.Error() {
			return fmt.Sprintf("error text diverged:\nservice: %s\nlibrary: %s", out.Error.Message, wantErr)
		}
		if wantBody, _ := classify(nil, wantErr); out.Error.Class != wantBody.Class {
			return fmt.Sprintf("error class diverged: service %s, library %s", out.Error.Class, wantBody.Class)
		}
		if !strings.Contains(out.Error.Message, expectErr) {
			return fmt.Sprintf("error %q does not contain %q", out.Error.Message, expectErr)
		}
		return ""
	}
	if expectErr != "" {
		return fmt.Sprintf("expected an error containing %q, got success over both paths", expectErr)
	}
	if status != 200 {
		return fmt.Sprintf("service status %d (%+v) but library succeeded", status, out.Error)
	}
	return sameResult(want, out)
}

// permdDB builds the catalog cmd/permd serves: fuzz.NewDB(1)'s tables r, s,
// t, u beside permdWorkload's r1 and r2.
func permdDB(t *testing.T) *perm.DB {
	t.Helper()
	db := fuzz.NewDB(1)
	registerSynth(t, db, permdWorkload)
	return db
}
