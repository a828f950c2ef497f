package perm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"perm/internal/rewrite"
	"perm/internal/synth"
	"perm/internal/tpch"
)

// baseline is the column of a figure table that runs the query without
// provenance.
const baseline Strategy = "base"

// figureStrategies are the columns of the figure tables.
var figureStrategies = []Strategy{baseline, Gen, Left, Move, Unn, UnnX}

// figureSeed drives the figure workloads' data and query instances, and
// figureInstances is the number of instances summed per synthetic cell. A
// TPC-H cell runs one instance.
const figureSeed, figureInstances = 1, 3

// figureCell is the work of one (template, strategy) cell, summed over its
// query instances: mat is the rows the materializing reference produced,
// stream the rows the streaming executor held resident. na marks a strategy
// that does not apply to the template.
type figureCell struct {
	mat, stream int64
	na          bool
}

func (c figureCell) String() string {
	if c.na {
		return "n/a"
	}
	return fmt.Sprintf("%d/%d", c.mat, c.stream)
}

// figureRow maps each strategy of figureStrategies to its cell.
type figureRow map[Strategy]figureCell

// measureFigureRow runs the instances under every strategy on both
// executors, each statement compiled as written, and logs the row.
func measureFigureRow(t *testing.T, db *DB, label string, instances []string) figureRow {
	t.Helper()
	row := figureRow{}
	line := []string{label}
	for _, s := range figureStrategies {
		var c figureCell
		for _, q := range instances {
			opts := []Option{WithoutPlanCache()}
			if s != baseline {
				q = withProvenance(q)
				opts = append(opts, WithStrategy(s))
			}
			mat, err := db.Query(q, append(opts, WithoutStreaming())...)
			if errors.Is(err, rewrite.ErrNotApplicable) {
				c = figureCell{na: true}
				break
			}
			if err != nil {
				t.Fatalf("%s on %q: %v", s, q, err)
			}
			stream, err := db.Query(q, opts...)
			if err != nil {
				t.Fatalf("%s on %q: %v", s, q, err)
			}
			c.mat += mat.PeakRows
			c.stream += stream.PeakRows
		}
		row[s] = c
		line = append(line, fmt.Sprintf("%s %v", s, c))
	}
	t.Log(strings.Join(line, "  "))
	return row
}

// TestPaperFigureShapes checks the qualitative claims of the paper's
// evaluation (Figs. 6–9) on rows instead of time. Under WithoutStreaming,
// PeakRows counts every operator's output, so it is the work the
// materializing reference did. The reference evaluates an uncorrelated
// sublink once, as PostgreSQL's InitPlan does for q1 and q2.
//
// With -v the test prints the reproduction's tables: one line per cell, each
// strategy as reference/streaming rows. The streaming figure is the rows
// that executor held resident, not its work, and is not asserted; neither is
// Left's superlinear growth, which comes from rule L1's join condition having
// no equality key.
func TestPaperFigureShapes(t *testing.T) {
	type sizes struct{ input, sublink int }
	synthRows := map[sizes][2]figureRow{}
	// synthCell measures q1 and q2 at one pair of sizes; the sweeps share
	// their 100×100 cell.
	synthCell := func(in, sub int) [2]figureRow {
		if r, ok := synthRows[sizes{in, sub}]; ok {
			return r
		}
		w := synth.Workload{InputSize: in, SublinkSize: sub, Seed: figureSeed}
		db := dbOf(t, w.Catalog())
		var r [2]figureRow
		for qi, query := range []func(int64) string{w.Q1, w.Q2} {
			instances := make([]string, figureInstances)
			for i := range instances {
				instances[i] = query(int64(i))
			}
			r[qi] = measureFigureRow(t, db, fmt.Sprintf("q%d %d×%d", qi+1, in, sub), instances)
		}
		synthRows[sizes{in, sub}] = r
		return r
	}

	// Figs. 7–9: Gen does at least three times the work of every other
	// applicable strategy, whichever relation grows.
	const fixed = 100
	for _, fig := range []struct {
		name string
		at   func(n int) (input, sublink int)
	}{
		{"Fig. 7 (input size)", func(n int) (int, int) { return n, fixed }},
		{"Fig. 8 (sublink size)", func(n int) (int, int) { return fixed, n }},
		{"Fig. 9 (both sizes)", func(n int) (int, int) { return n, n }},
	} {
		t.Log(fig.name)
		for _, n := range []int{50, 100, 200} {
			for qi, row := range synthCell(fig.at(n)) {
				gen := row[Gen].mat
				for _, s := range []Strategy{Left, Move, Unn, UnnX} {
					if c := row[s]; !c.na && gen < 3*c.mat {
						t.Errorf("%s, q%d at %d: Gen %d rows, %s %d; want Gen ≥ 3×", fig.name, qi+1, n, gen, s, c.mat)
					}
				}
			}
		}
	}

	// Fig. 9: from 50×50 to 200×200, Gen's work grows at least twice as
	// fast as that of Move, Unn and UnnX.
	small, large := synthCell(50, 50), synthCell(200, 200)
	for qi := range small {
		gen0, gen1 := small[qi][Gen].mat, large[qi][Gen].mat
		for _, s := range []Strategy{Move, Unn, UnnX} {
			c0, c1 := small[qi][s], large[qi][s]
			if c0.na {
				continue
			}
			if gen1*c0.mat < 2*gen0*c1.mat {
				t.Errorf("Fig. 9, q%d: Gen grew ×%.1f, %s ×%.1f; want Gen ≥ 2× the growth",
					qi+1, float64(gen1)/float64(gen0), s, float64(c1.mat)/float64(c0.mat))
			}
		}
	}

	// Fig. 6: on the uncorrelated TPC-H templates, Gen does more work than
	// Left and Move.
	t.Log("Fig. 6 (TPC-H SF 0.05)")
	db := tpchDB(t)
	for _, q := range tpch.SublinkQueries() {
		row := measureFigureRow(t, db, fmt.Sprintf("Q%d", q.Num), []string{q.Instance(figureSeed)})
		if q.Correlated {
			continue
		}
		for _, s := range []Strategy{Left, Move} {
			if gen, c := row[Gen].mat, row[s].mat; gen <= c {
				t.Errorf("Fig. 6, Q%d: Gen %d rows, %s %d; want Gen more", q.Num, gen, s, c)
			}
		}
	}
}
