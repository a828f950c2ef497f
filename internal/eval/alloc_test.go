package eval

import (
	"testing"

	"perm/internal/catalog"
	"perm/internal/opt"
	"perm/internal/rel"
	"perm/internal/rewrite"
	"perm/internal/schema"
	"perm/internal/sql"
)

// slopeDB is r(a, b) with n rows, b cycling through 50 values, beside a
// fixed s(c, d) of 50 rows that matches every b once on d.
func slopeDB(n int) *catalog.Catalog {
	cat := catalog.New()
	r := rel.New(schema.New("", "a", "b"))
	for i := range n {
		r.Add(ints(int64(i), int64(i%50)), 1)
	}
	s := rel.New(schema.New("", "c", "d"))
	for i := range 50 {
		s.Add(ints(int64(7*i), int64(i)), 1)
	}
	cat.Register("r", r)
	cat.Register("s", s)
	return cat
}

// TestAllocSlopes pins the allocations per row of the executor's per-row
// paths, one row per entry point. Each row runs its query over 500 and
// 1000 rows of r and takes the difference, so the fixed cost of a run
// cancels and what is left is the cost one more row of r adds:
// (A(1000) − A(500)) / 500. The ceilings sit just above today's slopes. A
// change that lowers a slope lowers its ceiling with it.
func TestAllocSlopes(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts differ under -race")
	}
	for _, c := range []struct {
		entry       string // the operator or probe the query exercises per row of r
		query       string
		materialize bool
		strategy    string // rewrite with this strategy, "" for none
		ceiling     float64
	}{
		{entry: "streamSelect", query: `SELECT * FROM r WHERE b >= 10`, ceiling: 0.9},
		{entry: "streamProject", query: `SELECT a + b, b FROM r`, ceiling: 1.1},
		// The projection above the join is the join's output map: one row
		// a probe row, built once.
		{entry: "streamJoin", query: `SELECT r.a, s.c FROM r, s WHERE r.b = s.d`, ceiling: 1.1},
		{entry: "hashJoin", query: `SELECT r.a, s.c FROM r, s WHERE r.b = s.d`, materialize: true, ceiling: 2.1},
		// r is the build side and s probes: one more row of r is one more
		// key of the build's map, and matches nothing past a = 49. Built
		// over the bare scan, the table is attached to r in the first run,
		// so the measured runs build nothing.
		{entry: "streamJoinBuild", query: `SELECT s.c, r.a FROM s, r WHERE s.d = r.a`, ceiling: 0.1},
		{entry: "hashJoinBuild", query: `SELECT s.c, r.a FROM s, r WHERE s.d = r.a`, materialize: true, ceiling: 1.1},
		// The rewrite's build input: a pass-through projection of a
		// selection over r, which the join reads as the selection's rows.
		// A per-run build still allocates each new key of its map.
		{entry: "streamJoinBuildProjected", query: `SELECT PROVENANCE s.c, r.a FROM s, r WHERE s.d = r.a AND r.b >= 0`, strategy: "Auto", ceiling: 1.1},
		// All but 50 rows of r find no partner in s and are padded: one
		// emitted row each.
		{entry: "streamLeftJoinPad", query: `SELECT r.a, s.c FROM r LEFT JOIN s ON r.a = s.d`, ceiling: 1.1},
		// Every row of r has one candidate, which the residual rejects.
		{entry: "streamJoinRejected", query: `SELECT r.a, s.c FROM r JOIN s ON r.b = s.d AND r.a + s.c < 0`, ceiling: 0.1},
		// Every row of r is a binding of its own, so each is an EXISTS memo
		// miss whose selection over s is answered from the index.
		{entry: "indexedProbe", query: `SELECT * FROM r WHERE EXISTS (SELECT c FROM s WHERE d = b AND c <> a)`, ceiling: 3.1},
		{entry: "probeExists", query: `SELECT * FROM r WHERE EXISTS (SELECT c FROM s WHERE d = b)`, ceiling: 1.1},
		{entry: "probeScalar", query: `SELECT a, (SELECT c FROM s WHERE d = b) FROM r`, ceiling: 1.1},
		{entry: "quantify", query: `SELECT * FROM r WHERE a > ANY (SELECT c FROM s WHERE d = b)`, ceiling: 1.1},
		{entry: "hashedAny", query: `SELECT * FROM r WHERE a = ANY (SELECT c FROM s)`, ceiling: 0.1},
		// Gen's G1 selection, answered by generation. Under EXISTS the
		// binding is b, so all but 50 rows of r reuse memoized witnesses;
		// under ANY it is (a, b), so every row generates its own.
		{entry: "generate", query: `SELECT PROVENANCE * FROM r WHERE EXISTS (SELECT c FROM s WHERE d = b)`, strategy: "Gen", ceiling: 3.1},
		{entry: "generateMiss", query: `SELECT PROVENANCE * FROM r WHERE a > ANY (SELECT c FROM s WHERE d = b)`, strategy: "Gen", ceiling: 6.1},
	} {
		t.Run(c.entry, func(t *testing.T) {
			allocs := func(n int) float64 {
				cat := slopeDB(n)
				plan := compileOptimized(t, cat, c.query)
				if c.strategy != "" {
					tr, err := sql.Compile(cat, c.query)
					if err != nil {
						t.Fatal(err)
					}
					strat, err := rewrite.ParseStrategy(c.strategy)
					if err != nil {
						t.Fatal(err)
					}
					res, err := rewrite.Rewrite(tr.Plan, strat)
					if err != nil {
						t.Fatal(err)
					}
					plan = opt.Optimize(res.Plan)
				}
				ev := New(cat)
				ev.DisableStreaming = c.materialize
				return testing.AllocsPerRun(3, func() {
					if _, err := ev.Eval(plan); err != nil {
						t.Fatal(err)
					}
				})
			}
			slope := (allocs(1000) - allocs(500)) / 500
			t.Logf("%.2f allocs/row (ceiling %.2f)", slope, c.ceiling)
			if slope > c.ceiling {
				t.Errorf("%s: %.2f allocs per row of r, ceiling %.2f", c.entry, slope, c.ceiling)
			}
		})
	}
}
