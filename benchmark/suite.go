package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the suite measures with
// the window the driver uses, so there is one instrument.
const defaultSeconds = 25

// metricDef declares one metric: BENCHMARK.json lists exactly these.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the engine would see, measured with
// tracing off. Bound is the share of the parent's median by which a metric
// may worsen before a change counts as a regression.
var endToEnd = []metricDef{
	{"qps", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p95_ms", "ms", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics, in the order they are printed.
var perLayer = []metricDef{
	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "sql.analyze_us", Unit: "us", Better: "lower"},
	{Name: "sql.translate_us", Unit: "us", Better: "lower"},
	{Name: "sql.share", Unit: "ratio", Better: "lower"},
	{Name: "sql.plan_ops", Unit: "count", Better: "lower"},
	{Name: "rewrite.rewrite_us", Unit: "us", Better: "lower"},
	{Name: "rewrite.share", Unit: "ratio", Better: "lower"},
	{Name: "rewrite.rules_fired", Unit: "count", Better: "lower"},
	{Name: "rewrite.plan_ops", Unit: "count", Better: "lower"},
	{Name: "rewrite.witness_cols", Unit: "count", Better: "lower"},
	{Name: "opt.optimize_us", Unit: "us", Better: "lower"},
	{Name: "opt.share", Unit: "ratio", Better: "lower"},
	{Name: "opt.plan_ops", Unit: "count", Better: "lower"},
	{Name: "opt.cross_ops", Unit: "count", Better: "lower"},
	{Name: "plancheck.verify_us", Unit: "us", Better: "lower"},
	{Name: "eval.eval_us", Unit: "us", Better: "lower"},
	{Name: "eval.share", Unit: "ratio", Better: "lower"},
	{Name: "eval.rows_out", Unit: "count", Better: "lower"},
	{Name: "eval.peak_rows", Unit: "count", Better: "lower"},
	{Name: "eval.base_rows", Unit: "count", Better: "lower"},
	{Name: "perm.query_us", Unit: "us", Better: "lower"},
	{Name: "perm.present_us", Unit: "us", Better: "lower"},
	{Name: "perm.present_share", Unit: "ratio", Better: "lower"},
	{Name: "perm.prov_overhead_x", Unit: "x", Better: "lower"},
	{Name: "catalog.register_us_per_krow", Unit: "us", Better: "lower"},
	{Name: "catalog.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "catalog.insert_us", Unit: "us", Better: "lower"},
	{Name: "catalog.share", Unit: "ratio", Better: "lower"},
	{Name: "service.rtt_us", Unit: "us", Better: "lower"},
	{Name: "service.overhead_us", Unit: "us", Better: "lower"},
	{Name: "service.share", Unit: "ratio", Better: "lower"},
	{Name: "service.resp_bytes", Unit: "bytes", Better: "lower"},
	{Name: "service.shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "runtime.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "runtime.mallocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_x", Unit: "x", Better: "lower"},
}

type suiteConfig struct {
	seed         int64
	seconds      int
	smoke        bool
	runs         int
	out          string
	updateGolden bool
}

// summary is one end-to-end metric of one workload over the suite's runs.
type summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	// Spread is the distance between the first and third quartile as a share
	// of the median; it needs at least two runs.
	Spread float64 `json:"spread"`
}

type workloadReport struct {
	Clients int `json:"clients"`
	// Samples are the latency sample counts of the untraced runs.
	Samples []int `json:"samples"`
	Failed  int   `json:"failed"`
	// FailRatio is failed operations (error, refused, wrong row count) over
	// attempted ones, over all untraced runs. Any failure fails the suite, so
	// it is reported, not bounded.
	FailRatio float64             `json:"fail_ratio"`
	EndToEnd  map[string]*summary `json:"end_to_end"`
	PerLayer  map[string]metric   `json:"per_layer"`
}

type report struct {
	NumCPU     int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Go         string                     `json:"go"`
	Commit     string                     `json:"commit"`
	Seed       int64                      `json:"seed"`
	Seconds    int                        `json:"seconds"`
	Runs       int                        `json:"runs"`
	Smoke      bool                       `json:"smoke"`
	Workloads  map[string]*workloadReport `json:"workloads"`
}

// child runs one workload in a fresh process, as the driver does, and parses
// the result from the last line of its output.
func child(sc suiteConfig, workload string, seed int64, trace int) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(sc.seconds), "--trace", strconv.Itoa(trace)}
	if sc.smoke {
		args = append(args, "-smoke")
	}
	if sc.updateGolden {
		args = append(args, "-update-golden")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	for _, l := range lines[:len(lines)-1] {
		fmt.Printf("  %s\n", l)
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
		}
		return result{}, fmt.Errorf("%s seed %d: no result line: %w", workload, seed, err)
	}
	return res, nil
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// quartileSpread is (Q3 − Q1) / median with the exclusive quartiles of
// Python's statistics.quantiles(values, n=4), which the driver uses.
func quartileSpread(values []float64) float64 {
	s := append([]float64{}, values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}

// suite runs every workload untraced (sc.runs times, one seed each) and then
// traced once, each run in a process of its own, prints every metric by name
// with its unit and writes the report.
func suite(sc suiteConfig) error {
	rep := report{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit(),
		Seed: sc.seed, Seconds: sc.seconds, Runs: sc.runs, Smoke: sc.smoke, Workloads: map[string]*workloadReport{}}
	failed := 0
	for _, w := range workloadNames {
		wr := &workloadReport{Clients: clientsOf(w), EndToEnd: map[string]*summary{}}
		rep.Workloads[w] = wr
		for r := 0; r < sc.runs; r++ {
			fmt.Printf("%s: untraced run %d/%d (seed %d)\n", w, r+1, sc.runs, sc.seed+int64(r))
			res, err := child(sc, w, sc.seed+int64(r), 0)
			if err != nil {
				return err
			}
			wr.Samples = append(wr.Samples, res.Attempted)
			wr.Failed += res.Failed
			if !res.Correct {
				failed++
			}
			for _, d := range endToEnd {
				s := wr.EndToEnd[d.Name]
				if s == nil {
					s = &summary{Unit: d.Unit}
					wr.EndToEnd[d.Name] = s
				}
				s.Values = append(s.Values, res.Metrics[d.Name].Value)
			}
		}
		fmt.Printf("%s: traced run (seed %d)\n", w, sc.seed)
		res, err := child(sc, w, sc.seed, 1)
		if err != nil {
			return err
		}
		if !res.Correct {
			failed++
		}
		wr.PerLayer = res.Metrics
		for _, s := range wr.EndToEnd {
			s.Median, s.Spread = median(s.Values), quartileSpread(s.Values)
		}
		attempted := 0
		for _, n := range wr.Samples {
			attempted += n
		}
		wr.FailRatio = float64(wr.Failed) / float64(attempted)
	}
	printReport(os.Stdout, &rep)
	raw, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(sc.out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(sc.out, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s; traces in out/trace-<workload>.jsonl\n", sc.out)
	if failed > 0 {
		return fmt.Errorf("%d runs reported wrong results", failed)
	}
	return nil
}

func printReport(w io.Writer, rep *report) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "\nend to end (tracing off; median of %d run(s), spread = IQR/median)\t", rep.Runs)
	for _, name := range workloadNames {
		fmt.Fprintf(tw, "%s\t", name)
	}
	fmt.Fprintln(tw)
	row := func(label string, cell func(*workloadReport) string) {
		fmt.Fprintf(tw, "%s\t", label)
		for _, name := range workloadNames {
			fmt.Fprintf(tw, "%s\t", cell(rep.Workloads[name]))
		}
		fmt.Fprintln(tw)
	}
	row("clients", func(wr *workloadReport) string { return strconv.Itoa(wr.Clients) })
	row("samples (first run)", func(wr *workloadReport) string { return strconv.Itoa(wr.Samples[0]) })
	row("fail_ratio", func(wr *workloadReport) string { return fmt.Sprintf("%.4g", wr.FailRatio) })
	for _, d := range endToEnd {
		row(d.Name+" ["+d.Unit+"]", func(wr *workloadReport) string {
			s := wr.EndToEnd[d.Name]
			if rep.Runs < 2 {
				return fmt.Sprintf("%.4g", s.Median)
			}
			return fmt.Sprintf("%.4g ±%.1f%%", s.Median, 100*s.Spread)
		})
	}
	fmt.Fprintf(tw, "\nper layer (traced run, seed %d)\t", rep.Seed)
	for _, name := range workloadNames {
		fmt.Fprintf(tw, "%s\t", name)
	}
	fmt.Fprintln(tw)
	for _, d := range perLayer {
		row(d.Name+" ["+d.Unit+"]", func(wr *workloadReport) string { return fmt.Sprintf("%.4g", wr.PerLayer[d.Name].Value) })
	}
	_ = tw.Flush() // w is stdout or a test buffer; a failed write is not actionable
}

// compareFiles prints, for every workload and end-to-end metric, both
// medians, their ratio (base: the first file), the bound, and a verdict:
// unresolved when either side's spread is wider than the bound or either file
// lacks the pairing, worse when the second median is worse than the first by
// more than the bound.
func compareFiles(w io.Writer, pathA, pathB string) (clean bool, err error) {
	var a, b report
	for _, f := range []struct {
		path string
		into *report
	}{{pathA, &a}, {pathB, &b}} {
		raw, err := os.ReadFile(f.path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(raw, f.into); err != nil {
			return false, fmt.Errorf("%s: %w", f.path, err)
		}
	}
	clean = true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\t%s (%s)\t%s (%s)\tb/a\tbound\tspread a\tspread b\tverdict\n", pathA, a.Commit, pathB, b.Commit)
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		for _, d := range endToEnd {
			var sa, sb *summary
			if wa != nil && wb != nil {
				sa, sb = wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			}
			if sa == nil || sb == nil {
				// A pairing one file lacks was not compared.
				clean = false
				fmt.Fprintf(tw, "%s\t%s [%s]\t-\t-\t-\t%.2f\t-\t-\tunresolved (missing)\n", name, d.Name, d.Unit, d.Bound)
				continue
			}
			ratio := sb.Median / sa.Median
			worse := ratio > 1+d.Bound
			if d.Better == "higher" {
				worse = ratio < 1-d.Bound
			}
			verdict := "ok"
			switch {
			// setup_s is the median of several set-ups inside each run, so
			// its run-to-run spread does not gate it (nor does the driver's).
			case d.Name != "setup_s" && (sa.Spread > d.Bound || sb.Spread > d.Bound):
				verdict, clean = "unresolved", false
			case worse:
				verdict, clean = "worse", false
			}
			fmt.Fprintf(tw, "%s\t%s [%s]\t%.5g\t%.5g\t%.3f\t%.2f\t%.3f\t%.3f\t%s\n",
				name, d.Name, d.Unit, sa.Median, sb.Median, ratio, d.Bound, sa.Spread, sb.Spread, verdict)
		}
	}
	return clean, tw.Flush()
}
