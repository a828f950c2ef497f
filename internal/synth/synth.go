// Package synth generates the synthetic workload of §4.2.2: two-column
// integer tables (a, b) whose values are drawn from a gaussian
// distribution, and the two parameterized queries
//
//	q1 = σ_{range ∧ a = ANY (σ_{range2}(R2))}(R1)   (equality ANY)
//	q2 = σ_{range ∧ a < ALL (σ_{range2}(R2))}(R1)   (inequality ALL)
//
// where range and range2 restrict attribute b of each table to a random
// window of fixed size. All four strategies apply to q1; Unn has no rule
// for q2's ALL sublink, exactly as in the paper.
package synth

import (
	"fmt"
	"math"

	"perm/internal/catalog"
	"perm/internal/rel"
	"perm/internal/schema"
	"perm/internal/types"
)

// Workload describes one synthetic experiment configuration.
type Workload struct {
	// InputSize is the row count of R1 (the selection input).
	InputSize int
	// SublinkSize is the row count of R2 (the sublink relation).
	SublinkSize int
	// Seed drives both data generation and parameter instances.
	Seed int64
	// Domain, when positive, draws attribute b of both relations uniformly
	// from [0, Domain) instead of the gaussian. A bounded domain makes the
	// correlated query Q3 repeat parameter bindings across outer tuples —
	// the workload the executor's per-binding sublink memo targets.
	Domain int
}

// gaussian standard deviation, following the paper's "100 times the table
// size" (values spread with the table so selectivities stay stable across
// scales).
func stddev(n int) float64 { return 100 * float64(n) }

// windowWidth is the fixed size of the random range restriction on b.
func windowWidth(n int) int64 { return int64(stddev(n) / 2) }

type rng struct{ state uint64 }

func newRng(seed int64) *rng { return &rng{state: uint64(seed)*0x9E3779B9 + 0x2545F4914F6CDD1D} }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// gaussian returns a normal deviate via Box–Muller.
func (r *rng) gaussian(mean, sd float64) float64 {
	u1 := r.float()
	for u1 == 0 {
		u1 = r.float()
	}
	u2 := r.float()
	return mean + sd*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}

// table generates one (a, b) relation of n rows: a is always gaussian; b is
// gaussian, or uniform over [0, domain) when domain is positive.
func table(n int, sd float64, domain int, r *rng) *rel.Relation {
	out := rel.New(schema.New("", "a", "b"))
	for i := 0; i < n; i++ {
		b := int64(r.gaussian(0, sd))
		if domain > 0 {
			b = int64(r.next() % uint64(domain))
		}
		out.Add(rel.Tuple{
			types.NewInt(int64(r.gaussian(0, sd))),
			types.NewInt(b),
		}, 1)
	}
	return out
}

// Catalog materializes the workload: relation r1 with InputSize rows and r2
// with SublinkSize rows.
func (w Workload) Catalog() *catalog.Catalog {
	cat := catalog.New()
	r := newRng(w.Seed)
	cat.Register("r1", table(w.InputSize, stddev(w.InputSize), w.Domain, r))
	cat.Register("r2", table(w.SublinkSize, stddev(w.SublinkSize), w.Domain, r))
	return cat
}

// ranges draws the two random windows for one query instance. With a
// bounded Domain the windows select half the domain so query selectivity
// stays comparable to the gaussian configuration.
func (w Workload) ranges(seed int64) (lo1, hi1, lo2, hi2 int64) {
	r := newRng(w.Seed*31 + seed)
	if w.Domain > 0 {
		half := int64(w.Domain) / 2
		lo1 = int64(r.next() % uint64(half+1))
		lo2 = int64(r.next() % uint64(half+1))
		return lo1, lo1 + half, lo2, lo2 + half
	}
	w1 := windowWidth(w.InputSize)
	w2 := windowWidth(w.SublinkSize)
	c1 := int64(r.gaussian(0, stddev(w.InputSize)))
	c2 := int64(r.gaussian(0, stddev(w.SublinkSize)))
	return c1 - w1/2, c1 + w1/2, c2 - w2/2, c2 + w2/2
}

// Q1 renders one instance of the equality-ANY query.
func (w Workload) Q1(seed int64) string {
	lo1, hi1, lo2, hi2 := w.ranges(seed)
	return fmt.Sprintf(`SELECT * FROM r1 WHERE r1.b >= %d AND r1.b <= %d AND r1.a = ANY (SELECT r2.a FROM r2 WHERE r2.b >= %d AND r2.b <= %d)`,
		lo1, hi1, lo2, hi2)
}

// Q2 renders one instance of the inequality-ALL query.
func (w Workload) Q2(seed int64) string {
	lo1, hi1, lo2, hi2 := w.ranges(seed)
	return fmt.Sprintf(`SELECT * FROM r1 WHERE r1.b >= %d AND r1.b <= %d AND r1.a < ALL (SELECT r2.a FROM r2 WHERE r2.b >= %d AND r2.b <= %d)`,
		lo1, hi1, lo2, hi2)
}

// Q3 renders one instance of the correlated-ANY query
//
//	q3 = σ_{range ∧ a > ANY (σ_{b = outer.b}(R2))}(R1)
//
// Its sublink is correlated on r1.b — only the Gen strategy rewrites it,
// and the executor re-evaluates the sublink per outer tuple unless it
// memoizes per binding. The memo tests and the benchmark's sublink_probe
// workload run it (not a query of the paper).
func (w Workload) Q3(seed int64) string {
	lo1, hi1, _, _ := w.ranges(seed)
	return fmt.Sprintf(`SELECT * FROM r1 WHERE r1.b >= %d AND r1.b <= %d AND r1.a > ANY (SELECT r2.a FROM r2 WHERE r2.b = r1.b)`,
		lo1, hi1)
}

// Q4 renders one instance of the correlated-EXISTS query
//
//	q4 = σ_{range ∧ EXISTS(σ_{b = outer.b}(R2))}(R1)
//
// One matching inner row decides each probe, so the query is dominated by
// exactly the per-binding sublink cost that early termination removes: the
// streaming executor stops each probe at its first witness, the
// materializing executor scans the whole sublink relation per binding and
// builds the full per-binding result bag. eval's
// TestExistsProbeEarlyTermination and the benchmark's sublink_probe workload
// run it (not a query of the paper). Its equality correlation also makes it
// the canonical input for the UnnX EXISTS decorrelation (rule X5).
func (w Workload) Q4(seed int64) string {
	lo1, hi1, _, _ := w.ranges(seed)
	return fmt.Sprintf(`SELECT * FROM r1 WHERE r1.b >= %d AND r1.b <= %d AND EXISTS (SELECT r2.a FROM r2 WHERE r2.b = r1.b)`,
		lo1, hi1)
}
