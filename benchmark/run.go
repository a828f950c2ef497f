package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// config is one run of one workload, as the driver asks for it.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	// updateGolden rewrites golden/<workload>.json from the reference
	// executor instead of checking against it.
	updateGolden bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRepeats is how often a run sets the workload up from scratch; setup_s
// is the median.
const setupRepeats = 3

// minSamples keeps the window open until p95 has its ten samples beyond it
// with room to spare (see percentile).
const minSamples = 400

// failures collects the run's failed checks, keeping the first few messages.
type failures struct {
	mu    sync.Mutex
	count int
	msgs  []string
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count++
	if len(f.msgs) < 10 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

// warmPass runs every client's warm-up operations once, in order, and
// returns their checksums. ref selects the reference executor and runs only
// client 0's operations, which cover every distinct statement.
func (in *instance) warmPass(ref bool) ([][]digest, error) {
	got := make([][]digest, len(in.warm))
	for c, ops := range in.warm {
		if ref && c > 0 {
			break
		}
		for i := range ops {
			out, err := in.exec(c, &ops[i], ref)
			if err != nil {
				return nil, fmt.Errorf("warm-up %s %q: %w", ops[i].Template, ops[i].Text, err)
			}
			got[c] = append(got[c], out.dig())
		}
	}
	return got, nil
}

// checkWarm compares a warm-up pass with the expected checksums of client
// 0's operations; the other clients run a suffix of them.
func (in *instance) checkWarm(got [][]digest, want []digest, fails *failures) {
	for c, digs := range got {
		ops := in.warm[c]
		off := len(want) - len(digs)
		if off < 0 {
			fails.add("client %d: %d warm-up checksums, reference has %d (regenerate with -update-golden)", c, len(digs), len(want))
			continue
		}
		for i, d := range digs {
			if d != want[off+i] {
				fails.add("client %d %s: got %+v want %+v for %q", c, ops[i].Template, d, want[off+i], ops[i].Text)
			}
		}
	}
}

// resolveRows gives every op that left its row count to the warm-up pass the
// count that pass verified.
func (in *instance) resolveRows(got []digest) error {
	rows := map[string]int{}
	for i := range in.warm[0] {
		if o := &in.warm[0][i]; o.Rows == rowsFromWarm {
			rows[o.key()] = got[i].Rows
		}
	}
	for _, list := range in.lists {
		for i := range list {
			if o := &list[i]; o.Rows == rowsFromWarm {
				n, ok := rows[o.key()]
				if !ok {
					return fmt.Errorf("statement outside the warm-up pass: %q", o.Text)
				}
				o.Rows = n
			}
		}
	}
	return nil
}

func goldenPath(workload string) string { return filepath.Join("golden", workload+".json") }

type goldenFile struct {
	Seed    int64    `json:"seed"`
	Digests []digest `json:"digests"`
}

func readGolden(workload string, seed int64) ([]digest, error) {
	raw, err := os.ReadFile(goldenPath(workload))
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(workload), err)
	}
	if g.Seed != seed {
		return nil, fmt.Errorf("%s is for seed %d, not %d", goldenPath(workload), g.Seed, seed)
	}
	return g.Digests, nil
}

func writeGolden(workload string, seed int64, digs []digest) error {
	raw, err := json.Marshal(goldenFile{Seed: seed, Digests: digs})
	if err != nil {
		return err
	}
	if err := os.MkdirAll("golden", 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(workload), append(raw, '\n'), 0o644)
}

// goldenSeed is the seed whose checksums are checked in.
const goldenSeed = 1

// prepared is a workload set up, warmed and checked, ready to be measured.
type prepared struct {
	in     *instance
	setupS float64 // median set-up time
	fails  *failures
}

// prepare sets the workload up `repeats` times. The first set-up's warm-up
// pass is checked against the golden checksums (full size, seed 1) or, for
// any other input, against the reference executor run once, untimed, on the
// same instance; later set-ups are checked against the same checksums. The
// last instance is the one measured.
func prepare(cfg config, clients, repeats int) (*prepared, error) {
	p := &prepared{fails: &failures{}}
	var want []digest
	var times []float64
	for r := 0; r < repeats; r++ {
		if p.in != nil {
			p.in.stop()
			p.in = nil
			runtime.GC()
		}
		t0 := time.Now()
		in, err := build(cfg.workload, cfg.seed, cfg.smoke, clients)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.in = in
		got, err := in.warmPass(false)
		if err != nil {
			in.stop()
			return nil, err
		}
		if want != nil {
			in.checkWarm(got, want, p.fails)
		}
		times = append(times, time.Since(t0).Seconds())
		if want != nil {
			continue
		}
		useGolden := cfg.seed == goldenSeed && !cfg.smoke && !cfg.updateGolden
		if useGolden {
			want, err = readGolden(cfg.workload, cfg.seed)
		} else {
			var ref [][]digest
			if ref, err = in.warmPass(true); err == nil {
				want = ref[0]
			}
		}
		if err != nil {
			in.stop()
			return nil, err
		}
		if cfg.updateGolden {
			if err := writeGolden(cfg.workload, cfg.seed, want); err != nil {
				in.stop()
				return nil, err
			}
		}
		in.checkWarm(got, want, p.fails)
	}
	if err := p.in.resolveRows(want); err != nil {
		p.in.stop()
		return nil, err
	}
	p.setupS = median(times)
	return p, nil
}

// runOp executes one operation for client c, timed, and checks its outcome.
func (in *instance) runOp(c int, o *op, fails *failures) (outcome, time.Duration) {
	t0 := time.Now()
	out, err := in.exec(c, o, false)
	d := time.Since(t0)
	switch {
	case err != nil:
		fails.add("%s %q: %v", o.Template, o.Text, err)
	case o.Rows >= 0 && out.rows != o.Rows:
		fails.add("%s %q: %d rows, want %d", o.Template, o.Text, out.rows, o.Rows)
	}
	return out, d
}

// lap runs client c once through its list, reporting each operation's time.
func (in *instance) lap(c int, fails *failures, each func(i int, d time.Duration)) {
	list := in.lists[c]
	for i := range list {
		_, d := in.runOp(c, &list[i], fails)
		if each != nil {
			each(i, d)
		}
	}
}

// window is the timed, untraced measurement: every client cycles through its
// list, closed loop, until the window has passed; a client stops only at the
// end of a lap, so every lap is whole and the session state is back at its
// start. It returns each client's latency samples in ms and how long the
// client ran, in seconds.
func (in *instance) window(seconds float64, fails *failures) (samples [][]float64, wall []float64) {
	clients := len(in.lists)
	samples = make([][]float64, clients)
	wall = make([]float64, clients)
	start := time.Now()
	in.eachClient(func(c int) {
		for time.Since(start).Seconds() < seconds || len(samples[c])*clients < minSamples {
			in.lap(c, fails, func(_ int, d time.Duration) {
				samples[c] = append(samples[c], float64(d)/float64(time.Millisecond))
			})
		}
		wall[c] = time.Since(start).Seconds()
	})
	return samples, wall
}

// eachClient runs fn once per client, concurrently, and waits for all.
func (in *instance) eachClient(fn func(c int)) {
	var wg sync.WaitGroup
	for c := range in.lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// measure is an untraced run: the end-to-end metrics.
func measure(cfg config) (result, error) {
	p, err := prepare(cfg, clientsOf(cfg.workload), setupRepeats)
	if err != nil {
		return result{}, err
	}
	defer p.in.stop()
	// One untimed lap per client lets the heap reach its working size.
	p.in.eachClient(func(c int) { p.in.lap(c, p.fails, nil) })
	warmFailed := p.fails.count

	perClient, wall := p.in.window(cfg.seconds, p.fails)
	var samples []float64
	for _, s := range perClient {
		samples = append(samples, s...)
	}
	attempted := len(samples)
	failed := p.fails.count - warmFailed
	// Throughput is the correct operations over the wall-clock time of the
	// window. The clients stop at the end of their own laps, so the window is
	// their mean running time: everything between two operations — collector
	// pauses, the scheduler — is inside it.
	var elapsed float64
	for _, w := range wall {
		elapsed += w / float64(len(wall))
	}
	qps := float64(attempted-failed) / elapsed
	sort.Float64s(samples)
	p50, err := percentile(samples, 0.50)
	if err != nil {
		return result{}, err
	}
	p95, err := percentile(samples, 0.95)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("%s seed %d: %d clients, %d samples in %.2f s\n", cfg.workload, cfg.seed, len(perClient), attempted, elapsed)
	samples, perClient = nil, nil

	// Live heap: what the engine retains between statements — tables,
	// sessions, and any cache a later change adds.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(p.in)

	res := result{
		Correct:   p.fails.count == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"qps":          {qps, "1/s"},
			"lat_p50_ms":   {p50, "ms"},
			"lat_p95_ms":   {p95, "ms"},
			"heap_live_mb": {float64(ms.HeapAlloc) / (1 << 20), "MB"},
			"setup_s":      {p.setupS, "s"},
		},
	}
	for _, m := range p.fails.msgs {
		fmt.Println("FAIL:", m)
	}
	return res, nil
}

// percentile returns the p-quantile of sorted samples. It refuses a
// percentile with fewer than ten samples beyond it: such a value is set by a
// handful of outliers and does not repeat.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if beyond := float64(n) * (1 - p); beyond < 10 {
		return 0, fmt.Errorf("p%g of %d samples has only %.1f samples beyond it, need 10", p*100, n, beyond)
	}
	i := int(math.Ceil(p*float64(n))) - 1
	return sorted[i], nil
}

// median of an unsorted slice; 0 when it is empty.
func median(v []float64) float64 {
	s := append([]float64{}, v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
