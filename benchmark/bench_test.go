package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fingerprint hashes everything the program under test is given: every
// relation's tuples and every client's statement list.
func fingerprint(t *testing.T, workload string, seed int64) uint64 {
	t.Helper()
	in, err := build(workload, seed, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer in.stop()
	h := fnv.New64a()
	for _, db := range in.dbs {
		for _, name := range db.Relations() {
			r, err := db.Catalog().Relation(name)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(h, name, r.Schema)
			for _, tup := range r.SortedTuples() {
				fmt.Fprintln(h, tup)
			}
		}
	}
	for _, lists := range [][][]op{in.lists, in.warm} {
		for _, list := range lists {
			for _, o := range list {
				fmt.Fprintln(h, o.key())
			}
		}
	}
	return h.Sum64()
}

func TestInputsComeFromTheSeedAlone(t *testing.T) {
	for _, w := range workloadNames {
		a, b, c := fingerprint(t, w, 5), fingerprint(t, w, 5), fingerprint(t, w, 6)
		if a != b {
			t.Errorf("%s: seed 5 gave two different inputs", w)
		}
		if a == c {
			t.Errorf("%s: seeds 5 and 6 gave the same inputs", w)
		}
	}
}

func TestSmokeRunsAreCorrect(t *testing.T) {
	for _, w := range workloadNames {
		res, err := measure(config{workload: w, seed: 3, seconds: 0.1, smoke: true})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < minSamples/2 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w, res.Correct, res.Failed, res.Attempted)
		}
		for _, d := range endToEnd {
			if m, ok := res.Metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
				t.Errorf("%s: metric %s = %+v", w, d.Name, m)
			}
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w, len(res.Metrics), len(endToEnd))
		}
	}
}

func TestTracedCountsRepeat(t *testing.T) {
	for _, w := range workloadNames {
		cfg := config{workload: w, seed: 4, trace: true, smoke: true}
		a, err := traced(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		b, err := traced(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !a.Correct || !b.Correct {
			t.Errorf("%s: traced run failed its checks", w)
		}
		if len(a.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", w, len(a.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			ma, ok := a.Metrics[d.Name]
			if !ok || ma.Unit != d.Unit {
				t.Errorf("%s: metric %s = %+v", w, d.Name, ma)
			}
			if (d.Unit == "count" || d.Unit == "bytes") && !strings.HasPrefix(d.Name, "runtime.") && ma != b.Metrics[d.Name] {
				t.Errorf("%s: %s = %v, then %v", w, d.Name, ma.Value, b.Metrics[d.Name].Value)
			}
		}
		raw, err := os.ReadFile(filepath.Join("out", "trace-"+w+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		var first span
		if err := json.Unmarshal(raw[:bytes.IndexByte(raw, '\n')], &first); err != nil || first.ID != 1 || first.Parent != 0 {
			t.Errorf("%s: first span %+v: %v", w, first, err)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	if v, err := percentile(samples, 0.95); err != nil || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v", v, err)
	}
	if _, err := percentile(samples[:199], 0.95); err == nil {
		t.Error("p95 of 199 samples has 9.95 beyond it and must be refused")
	}
	if _, err := percentile(samples[:19], 0.50); err == nil {
		t.Error("p50 of 19 samples must be refused")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{3, 1, 4, 2, 5, 10, 9, 8, 7, 6}
	if got := quartileSpread(v); got != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	// mk writes a report in which every pairing is steady except
	// plan_bound's, which are given; a nil slice leaves that metric out.
	mk := func(qps, p50 []float64) string {
		rep := report{Workloads: map[string]*workloadReport{}}
		for _, w := range workloadNames {
			wr := &workloadReport{EndToEnd: map[string]*summary{}}
			rep.Workloads[w] = wr
			for _, d := range endToEnd {
				vals := steady
				if w == "plan_bound" && d.Name == "qps" {
					vals = qps
				}
				if w == "plan_bound" && d.Name == "lat_p50_ms" {
					vals = p50
				}
				if vals != nil {
					wr.EndToEnd[d.Name] = &summary{Values: vals, Median: median(vals), Spread: quartileSpread(vals)}
				}
			}
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk(steady, steady)
	for _, c := range []struct {
		name     string
		qps, p50 []float64
		want     []string // verdicts of plan_bound's qps and lat_p50_ms
		clean    bool
	}{
		{"same", steady, steady, []string{"ok", "ok"}, true},
		{"slower", []float64{70, 71, 69, 70, 70}, steady, []string{"worse", "ok"}, false},
		{"noisy", steady, []float64{60, 140, 100, 90, 130}, []string{"ok", "unresolved"}, false},
		{"missing", steady, nil, []string{"ok", "unresolved (missing)"}, false},
	} {
		var out bytes.Buffer
		clean, err := compareFiles(&out, base, mk(c.qps, c.p50))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")[1:]
		if clean != c.clean || len(lines) != len(workloadNames)*len(endToEnd) ||
			!strings.HasSuffix(lines[0], c.want[0]) || !strings.HasSuffix(lines[1], c.want[1]) {
			t.Errorf("%s: clean=%v\n%s", c.name, clean, out.String())
		}
		for _, l := range lines[2:] {
			if !strings.HasSuffix(l, "ok") {
				t.Errorf("%s: steady pairing not ok: %s", c.name, l)
			}
		}
	}
}

// BENCHMARK.json at the root declares what this program reports; the two must
// not drift apart.
func TestBenchmarkJSONDeclaresWhatIsReported(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, program default %d", decl.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	if fmt.Sprint(decl.EndToEnd) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end\n%v\nprogram has\n%v", decl.EndToEnd, endToEnd)
	}
	if fmt.Sprint(decl.PerLayer) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer\n%v\nprogram has\n%v", decl.PerLayer, perLayer)
	}
}
