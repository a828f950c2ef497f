package eval

import (
	"testing"

	"perm/internal/catalog"
	"perm/internal/rel"
	"perm/internal/schema"
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
		ceiling     float64
	}{
		{entry: "streamSelect", query: `SELECT * FROM r WHERE b >= 10`, ceiling: 2.5},
		{entry: "streamProject", query: `SELECT a + b, b FROM r`, ceiling: 3.1},
		{entry: "streamHashJoin", query: `SELECT r.a, s.c FROM r, s WHERE r.b = s.d`, ceiling: 6.1},
		{entry: "hashJoin", query: `SELECT r.a, s.c FROM r, s WHERE r.b = s.d`, materialize: true, ceiling: 8.1},
		{entry: "probeExists", query: `SELECT * FROM r WHERE EXISTS (SELECT c FROM s WHERE d = b)`, ceiling: 6.1},
		{entry: "probeScalar", query: `SELECT a, (SELECT c FROM s WHERE d = b) FROM r`, ceiling: 7.1},
		{entry: "quantify", query: `SELECT * FROM r WHERE a > ANY (SELECT c FROM s WHERE d = b)`, ceiling: 6.1},
		{entry: "hashedAny", query: `SELECT * FROM r WHERE a = ANY (SELECT c FROM s)`, ceiling: 3.1},
	} {
		t.Run(c.entry, func(t *testing.T) {
			allocs := func(n int) float64 {
				cat := slopeDB(n)
				plan := compileOptimized(t, cat, c.query)
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
