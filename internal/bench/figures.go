package bench

import (
	"context"
	"fmt"

	"perm/internal/catalog"
	"perm/internal/synth"
	"perm/internal/tpch"
)

// Fig6Config parameterizes the TPC-H experiment of Figure 6. The paper ran
// database sizes 1 MB, 10 MB, 100 MB and 1 GB; the reproduction expresses
// sizes as generator scale factors with the same ×10 spacing.
type Fig6Config struct {
	// Scales are the four database sizes (generator scale factors).
	Scales []float64
	// Queries restricts the run to specific TPC-H query numbers (all nine
	// sublink queries when empty).
	Queries []int
	// Seed drives data generation and instance parameters.
	Seed int64
}

// DefaultFig6 mirrors the paper's four ×10-spaced database sizes.
func DefaultFig6() Fig6Config {
	return Fig6Config{Scales: []float64{0.05, 0.5, 5, 50}, Seed: 1}
}

// Figure6 runs the TPC-H experiment: per database size, the average
// runtime of every sublink query under the baseline (no provenance), the
// Gen strategy, and — for the uncorrelated queries 11, 15 and 16 — the
// Left and Move strategies.
func (r *Runner) Figure6(ctx context.Context, cfg Fig6Config) {
	r = r.paperExecutor()
	queries := tpch.SublinkQueries()
	if len(cfg.Queries) > 0 {
		var filtered []tpch.Query
		for _, q := range queries {
			for _, num := range cfg.Queries {
				if q.Num == num {
					filtered = append(filtered, q)
				}
			}
		}
		queries = filtered
	}
	labels := []rune{'a', 'b', 'c', 'd'}
	for si, sf := range cfg.Scales {
		label := "?"
		if si < len(labels) {
			label = string(labels[si])
		}
		cat, counts := tpch.Generate(tpch.Config{SF: sf, Seed: cfg.Seed})
		fmt.Fprintf(r.Out, "\nFigure 6(%s): TPC-H scale %g (lineitem %d rows, orders %d, part %d)\n",
			label, sf, counts.Lineitem, counts.Orders, counts.Part)
		tb := &table{header: []string{"query", "baseline", "Gen", "Left", "Move"}}
		for _, q := range queries {
			instances := make([]string, r.Instances)
			for i := range instances {
				instances[i] = q.Instance(cfg.Seed + int64(i))
			}
			row := []string{fmt.Sprintf("Q%d", q.Num)}
			for _, strat := range []string{Baseline, "Gen", "Left", "Move"} {
				row = append(row, r.Measure(ctx, cat, instances, strat).String())
			}
			tb.add(row...)
		}
		tb.render(r.Out)
	}
}

// SynthConfig parameterizes the synthetic experiments of Figures 7–9.
type SynthConfig struct {
	// Sizes is the sweep axis (input sizes for Figure 7, sublink sizes for
	// Figure 8, both for Figure 9).
	Sizes []int
	// FixedInput and FixedSublink pin the non-swept relation size.
	FixedInput   int
	FixedSublink int
	// Seed drives data and parameters.
	Seed int64
}

// DefaultSynth scales the paper's 10…500000-row sweeps down to sizes an
// interpreting executor covers within the timeout; the shape of the curves
// (Unn ≪ Left ≈ Move ≪ Gen, Gen superlinear in the sublink size) is
// preserved. Pass explicit sizes for larger sweeps.
func DefaultSynth() SynthConfig {
	return SynthConfig{
		Sizes:        []int{10, 50, 100, 500, 1000},
		FixedInput:   500,
		FixedSublink: 100,
		Seed:         1,
	}
}

// synthStrategies: q1 admits all strategies, q2 all but Unn (§4.2.2). The
// UnnX column is this reproduction's extension (it covers q2's ALL
// sublink, which the paper left to future work).
var synthStrategies = []string{Baseline, "Gen", "Left", "Move", "Unn", "UnnX"}

// Figure7 varies the size of the selection's input relation with the
// sublink relation size fixed.
func (r *Runner) Figure7(ctx context.Context, cfg SynthConfig) {
	fmt.Fprintf(r.Out, "\nFigure 7: varying input relation size (sublink relation fixed at %d)\n", cfg.FixedSublink)
	r.synthSweep(ctx, cfg, func(size int) synth.Workload {
		return synth.Workload{InputSize: size, SublinkSize: cfg.FixedSublink, Seed: cfg.Seed}
	})
}

// Figure8 varies the sublink relation size with the input size fixed.
func (r *Runner) Figure8(ctx context.Context, cfg SynthConfig) {
	fmt.Fprintf(r.Out, "\nFigure 8: varying sublink relation size (input relation fixed at %d)\n", cfg.FixedInput)
	r.synthSweep(ctx, cfg, func(size int) synth.Workload {
		return synth.Workload{InputSize: cfg.FixedInput, SublinkSize: size, Seed: cfg.Seed}
	})
}

// Figure9 varies both relation sizes together.
func (r *Runner) Figure9(ctx context.Context, cfg SynthConfig) {
	fmt.Fprintf(r.Out, "\nFigure 9: varying both relation sizes\n")
	r.synthSweep(ctx, cfg, func(size int) synth.Workload {
		return synth.Workload{InputSize: size, SublinkSize: size, Seed: cfg.Seed}
	})
}

// ModesConfig parameterizes the executor-mode comparison. It is not a
// figure of the paper: it measures this reproduction's per-binding sublink
// memo on the correlated-sublink workload (synth Q3) the paper identifies
// as the inherently expensive case.
type ModesConfig struct {
	// Sizes sweeps both relation sizes together.
	Sizes []int
	// Domain bounds the correlation attribute's value domain so parameter
	// bindings repeat across outer tuples.
	Domain int
	// Seed drives data and parameters.
	Seed int64
}

// DefaultModes uses a domain of 32 distinct correlation values.
func DefaultModes() ModesConfig {
	return ModesConfig{Sizes: []int{100, 400, 1600}, Domain: 32, Seed: 1}
}

// executorModes are the cells of the modes table: the strict re-evaluating
// executor (the paper's cost model) and the per-binding sublink memo.
var executorModes = []struct {
	name string
	memo bool
}{
	{"sequential", false},
	{"memo", true},
}

// Modes runs the executor-mode comparison: the correlated query q3 under
// the baseline (no provenance) and the Gen strategy (the only strategy that
// rewrites correlated sublinks), with and without the sublink memo.
func (r *Runner) Modes(ctx context.Context, cfg ModesConfig) {
	r = r.paperExecutor()
	fmt.Fprintf(r.Out, "\nExecutor modes: correlated q3, domain %d (not a paper figure)\n", cfg.Domain)
	for _, strat := range []string{Baseline, "Gen"} {
		fmt.Fprintf(r.Out, "\nq3 (a > ANY, correlated) · %s\n", strat)
		tb := &table{header: []string{"size"}}
		for _, m := range executorModes {
			tb.header = append(tb.header, m.name)
		}
		for _, size := range cfg.Sizes {
			w := synth.Workload{InputSize: size, SublinkSize: size, Domain: cfg.Domain, Seed: cfg.Seed}
			cat := w.Catalog()
			instances := make([]string, r.Instances)
			for i := range instances {
				instances[i] = w.Q3(int64(i))
			}
			row := []string{fmt.Sprintf("%d", size)}
			for _, m := range executorModes {
				rm := *r
				rm.SublinkMemo = m.memo
				row = append(row, rm.Measure(ctx, cat, instances, strat).String())
			}
			tb.add(row...)
		}
		tb.render(r.Out)
	}
}

// StreamConfig parameterizes the streaming-vs-materializing comparison. It
// is not a figure of the paper: it measures what the push-based streaming
// pipeline with early-terminating sublink probes buys over the
// operator-at-a-time materializing executor (both without the sublink memo,
// matching the paper's PostgreSQL SubPlan regime).
type StreamConfig struct {
	// Sizes sweeps both synthetic relation sizes together.
	Sizes []int
	// Domain bounds the correlation attribute's value domain.
	Domain int
	// Seed drives data and parameters.
	Seed int64
	// TPCHScale is the scale factor of the TPC-H rows of the table (0
	// disables them).
	TPCHScale float64
	// TPCHQueries are the TPC-H query numbers to include.
	TPCHQueries []int
}

// DefaultStream mirrors the modes sweep on the EXISTS-dominated correlated
// query and adds two EXISTS-heavy TPC-H queries at the smallest scale.
func DefaultStream() StreamConfig {
	return StreamConfig{
		Sizes:       []int{100, 400, 1600},
		Domain:      32,
		Seed:        1,
		TPCHScale:   0.05,
		TPCHQueries: []int{4, 22},
	}
}

// streamRow renders one comparison row: the materializing and streaming
// cells for the same workload, their speedup, the materialization ratio,
// and whether the two executors returned the identical result bag.
func (r *Runner) streamRow(ctx context.Context, tb *table, label string, cat *catalog.Catalog, instances []string, strategy string) {
	rm := *r
	rm.Materialize = true
	mat, matOut := rm.measure(ctx, cat, instances, strategy)
	rs := *r
	rs.Materialize = false
	str, strOut := rs.measure(ctx, cat, instances, strategy)
	speedup, ratio, agree := "-", "-", "-"
	if mat.Err == nil && str.Err == nil && !mat.Excluded && !str.Excluded && !mat.NA {
		if str.Mean > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(mat.Mean)/float64(str.Mean))
		}
		if str.PeakRows > 0 {
			ratio = fmt.Sprintf("%.0fx", float64(mat.PeakRows)/float64(str.PeakRows))
		}
		if matOut != nil && strOut != nil {
			if matOut.Equal(strOut.WithSchema(matOut.Schema)) {
				agree = "ok"
			} else {
				agree = "MISMATCH"
			}
		}
	}
	tb.add(label, mat.String(), fmtPeak(mat), str.String(), fmtPeak(str), speedup, ratio, agree)
}

// streamHeader names the comparison columns: wall times and materialized
// row counts per executor, the wall-clock speedup, the materialization
// ratio (matrows/streamrows), and the bag-equality check.
var streamHeader = []string{"workload", "mat", "matrows", "stream", "streamrows", "speedup", "rowsratio", "agree"}

func fmtPeak(m Measurement) string {
	if m.NA || m.Excluded || m.Err != nil {
		return "-"
	}
	return fmt.Sprintf("%d", m.PeakRows)
}

// FigureStream runs the streaming-vs-materializing comparison: the
// correlated EXISTS query q4 (one witness decides each probe — the case
// early termination targets) and the correlated q3 on the synthetic
// workload, plus EXISTS-heavy TPC-H queries, each under the baseline (no
// provenance) and the Gen strategy.
func (r *Runner) FigureStream(ctx context.Context, cfg StreamConfig) {
	for _, q := range []struct {
		name string
		mk   func(w synth.Workload, i int64) string
	}{
		{"q4 (correlated EXISTS)", func(w synth.Workload, i int64) string { return w.Q4(i) }},
		{"q3 (correlated > ANY)", func(w synth.Workload, i int64) string { return w.Q3(i) }},
	} {
		for _, strat := range []string{Baseline, "Gen"} {
			fmt.Fprintf(r.Out, "\nStreaming vs materializing: %s · %s (domain %d, not a paper figure)\n",
				q.name, strat, cfg.Domain)
			tb := &table{header: streamHeader}
			for _, size := range cfg.Sizes {
				w := synth.Workload{InputSize: size, SublinkSize: size, Domain: cfg.Domain, Seed: cfg.Seed}
				cat := w.Catalog()
				instances := make([]string, r.Instances)
				for i := range instances {
					instances[i] = q.mk(w, int64(i))
				}
				r.streamRow(ctx, tb, fmt.Sprintf("%d", size), cat, instances, strat)
			}
			tb.render(r.Out)
		}
	}
	if cfg.TPCHScale <= 0 || len(cfg.TPCHQueries) == 0 {
		return
	}
	cat, counts := tpch.Generate(tpch.Config{SF: cfg.TPCHScale, Seed: cfg.Seed})
	fmt.Fprintf(r.Out, "\nStreaming vs materializing: TPC-H scale %g (lineitem %d rows)\n",
		cfg.TPCHScale, counts.Lineitem)
	tb := &table{header: streamHeader}
	for _, q := range tpch.SublinkQueries() {
		keep := false
		for _, num := range cfg.TPCHQueries {
			if q.Num == num {
				keep = true
			}
		}
		if !keep {
			continue
		}
		instances := make([]string, r.Instances)
		for i := range instances {
			instances[i] = q.Instance(cfg.Seed + int64(i))
		}
		r.streamRow(ctx, tb, fmt.Sprintf("Q%d base", q.Num), cat, instances, Baseline)
		r.streamRow(ctx, tb, fmt.Sprintf("Q%d Gen", q.Num), cat, instances, "Gen")
	}
	tb.render(r.Out)
}

// paperExecutor pins a run to the materializing operator-at-a-time engine:
// the paper figures and the modes table reproduce the paper's PostgreSQL
// cost regime (full per-binding subplan evaluation, no early termination),
// which the streaming pipeline would silently remove. Streaming is measured
// where it is the subject — the stream table.
func (r *Runner) paperExecutor() *Runner {
	rm := *r
	rm.Materialize = true
	return &rm
}

func (r *Runner) synthSweep(ctx context.Context, cfg SynthConfig, mk func(size int) synth.Workload) {
	r = r.paperExecutor()
	for qi, queryName := range []string{"q1 (a = ANY)", "q2 (a < ALL)"} {
		fmt.Fprintf(r.Out, "\n%s\n", queryName)
		tb := &table{header: append([]string{"size"}, synthStrategies...)}
		for _, size := range cfg.Sizes {
			w := mk(size)
			cat := w.Catalog()
			instances := make([]string, r.Instances)
			for i := range instances {
				if qi == 0 {
					instances[i] = w.Q1(int64(i))
				} else {
					instances[i] = w.Q2(int64(i))
				}
			}
			row := []string{fmt.Sprintf("%d", size)}
			for _, strat := range synthStrategies {
				row = append(row, r.Measure(ctx, cat, instances, strat).String())
			}
			tb.add(row...)
		}
		tb.render(r.Out)
	}
}
