// Package bench is the experiment harness that regenerates the evaluation
// of Glavic & Alonso (EDBT 2009): Figure 6 (TPC-H, four database sizes,
// per-strategy query runtimes) and Figures 7–9 (synthetic workload, varying
// input/sublink relation sizes).
//
// The harness follows the paper's methodology: each (query, strategy) cell
// averages several random instances of the query template; cells whose
// execution exceeds the timeout are excluded (the paper used a six-hour
// cutoff; an in-process reproduction uses seconds), and strategy/query
// combinations the strategy cannot rewrite are reported "n/a".
package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/eval"
	"perm/internal/opt"
	"perm/internal/rel"
	"perm/internal/rewrite"
	"perm/internal/sql"
)

// Runner holds the harness configuration.
type Runner struct {
	// Timeout is the per-measurement cutoff (the paper's 6-hour rule,
	// scaled to an in-process engine).
	Timeout time.Duration
	// Instances is the number of random query instances averaged per cell
	// (the paper used 100).
	Instances int
	// Optimize applies the logical optimizer to every plan (on by default
	// through New; switch off for ablation runs).
	Optimize bool
	// MaxRows caps materialized rows per execution; exceeding it excludes
	// the cell exactly like a timeout (the Gen strategy's CrossBase can
	// exhaust memory long before any clock fires).
	MaxRows int
	// SublinkMemo enables the materializing executor's per-binding
	// memoization of correlated sublink results. It is off by default: the
	// paper's measurements ran on PostgreSQL, whose SubPlans re-evaluate per
	// outer binding, and the figures reproduce that cost asymmetry. The
	// executor-modes table measures what the memo buys. The streaming
	// executor always memoizes.
	SublinkMemo bool
	// Materialize switches the executor from the streaming pipeline to
	// operator-at-a-time full materialization. The paper figures (6-9) and
	// the modes table force it on regardless — they reproduce the paper's
	// engine, whose costs streaming early termination would remove; the
	// streaming table (permbench -fig stream) measures both sides.
	Materialize bool
	// Out receives the rendered tables.
	Out io.Writer
}

// DefaultMaxRows bounds one execution to roughly a gigabyte of tuples.
const DefaultMaxRows = 2_000_000

// New returns a Runner with the given defaults.
func New(out io.Writer, timeout time.Duration, instances int) *Runner {
	return &Runner{Timeout: timeout, Instances: instances, Optimize: true, MaxRows: DefaultMaxRows, Out: out}
}

// Measurement is one table cell.
type Measurement struct {
	// Mean is the average wall-clock time per instance.
	Mean time.Duration
	// Rows is the average output cardinality.
	Rows int
	// PeakRows is the average number of rows the executor materialized into
	// counted bags per instance — the memory high-water mark the streaming
	// pipeline exists to shrink.
	PeakRows int64
	// Excluded marks a timeout, NA an inapplicable strategy, Err a failure.
	Excluded bool
	NA       bool
	Err      error
}

// String renders the cell the way the tables print it.
func (m Measurement) String() string {
	switch {
	case m.NA:
		return "n/a"
	case m.Excluded:
		return ">timeout"
	case m.Err != nil:
		return "error"
	default:
		return fmtDuration(m.Mean)
	}
}

func fmtDuration(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// Baseline is the pseudo-strategy for running the query without provenance.
const Baseline = "base"

// Measure runs the given SQL instances under one strategy name (Baseline,
// "Gen", "Left", "Move", "Unn") and returns the averaged cell. Canceling
// ctx excludes the remaining instances, like a timeout would.
func (r *Runner) Measure(ctx context.Context, cat *catalog.Catalog, instances []string, strategy string) Measurement {
	m, _ := r.measure(ctx, cat, instances, strategy)
	return m
}

// measure is Measure plus the last instance's materialized result, which
// the streaming table uses to assert executor-mode agreement.
func (r *Runner) measure(ctx context.Context, cat *catalog.Catalog, instances []string, strategy string) (Measurement, *rel.Relation) {
	var total time.Duration
	var rows int
	var peak int64
	var last *rel.Relation
	for _, text := range instances {
		tr, err := sql.Compile(cat, text)
		if err != nil {
			return Measurement{Err: err}, nil
		}
		plan := tr.Plan
		if strategy != Baseline {
			strat, err := rewrite.ParseStrategy(strategy)
			if err != nil {
				return Measurement{Err: err}, nil
			}
			res, err := rewrite.Rewrite(plan, strat)
			if errors.Is(err, rewrite.ErrNotApplicable) {
				return Measurement{NA: true}, nil
			}
			if err != nil {
				return Measurement{Err: err}, nil
			}
			plan = res.Plan
		}
		if r.Optimize {
			plan = opt.Optimize(plan)
		}
		remaining := r.Timeout - total
		if remaining <= 0 {
			return Measurement{Excluded: true}, nil
		}
		out, elapsed, evPeak, err := r.evalOnce(ctx, cat, plan, remaining)
		if err != nil {
			if errors.Is(err, eval.ErrCanceled) || errors.Is(err, eval.ErrBudget) {
				return Measurement{Excluded: true}, nil
			}
			return Measurement{Err: err}, nil
		}
		total += elapsed
		rows += out.Card()
		peak += evPeak
		last = out
	}
	n := len(instances)
	if n == 0 {
		return Measurement{Err: errors.New("bench: no instances")}, nil
	}
	return Measurement{Mean: total / time.Duration(n), Rows: rows / n, PeakRows: peak / int64(n)}, last
}

// evalOnce evaluates one plan under the remaining time budget; the timeout
// context is canceled before returning so its timer never outlives the run.
func (r *Runner) evalOnce(ctx context.Context, cat *catalog.Catalog, plan algebra.Op, budget time.Duration) (*rel.Relation, time.Duration, int64, error) {
	runCtx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	ev := eval.New(cat).WithContext(runCtx)
	ev.MaxRows = r.MaxRows
	ev.DisableSublinkMemo = !r.SublinkMemo
	ev.DisableStreaming = r.Materialize
	start := time.Now()
	out, err := ev.Eval(plan)
	return out, time.Since(start), ev.LastStats().PeakRows, err
}

// table renders one aligned text table.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	writeRow(t.header)
	for _, row := range t.rows {
		writeRow(row)
	}
}
