package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"text/tabwriter"
	"time"

	"perm"
	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/eval"
	"perm/internal/opt"
	"perm/internal/plancheck"
	"perm/internal/rewrite"
	"perm/internal/sql"
	"perm/internal/tpch"
)

// tracePasses is the fixed number of passes a traced run makes over the
// statement list, so that its counts repeat exactly.
const tracePasses = 3

// span is one timed call into a layer's public function. Spans of one
// operation share Op; Parent is the operation's root span (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// call times fn as a child span of parent and returns its duration in ns.
func (t *tracer) call(parent, op int, name string, fn func()) float64 {
	start := time.Since(t.t0).Nanoseconds()
	fn()
	end := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return float64(end - start)
}

// root opens an operation's root span; close it with finish.
func (t *tracer) root(op int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Op: op, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) finish(id int) { t.spans[id-1].End = time.Since(t.t0).Nanoseconds() }

// flush writes the spans as JSONL.
func (t *tracer) flush(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// opRecord is what the traced run learned about one executed operation:
// times in ns per layer call, and the layer's counts.
type opRecord struct {
	template string
	kind     opKind
	prov     bool
	// op is the operation as the workload's path ran it: DB.Query on the
	// library workloads, the HTTP round trip on service_mix.
	op float64
	// inproc is the same operation as a library call: equal to op on the
	// library workloads, the mirror database's call on service_mix.
	inproc float64
	// plain is the provenance statement's plain query (0 for plain ops).
	plain float64

	parse, analyze, compile, rewrite, optimize, verify, eval float64

	sqlOps, rewriteOps, rules, witness, optOps, cross int
	rowsOut, baseRows                                 int
	peak                                              int64

	elapsedUS float64
	bytes     int
	shed      bool
}

func countOps(plan algebra.Op) (ops, cross int) {
	algebra.Walk(plan, func(o algebra.Op) bool {
		ops++
		if _, ok := o.(*algebra.Cross); ok {
			cross++
		}
		return true
	})
	return ops, cross
}

// layers replays one query through the engine's stages, one public call per
// layer, exactly as perm.DB.Query chains them (see compile in the root
// package's plancheck.go), and records a span per call. The plan verifier is
// off in timed runs; here every stage is verified, strictly, to price it.
func (t *tracer) layers(root, opIdx int, src catalog.Source, o *op, rec *opRecord) error {
	env := sql.Env{Catalog: src}
	var err error
	var tr *sql.Translated
	rec.compile = t.call(root, opIdx, "sql.CompileEnv", func() { tr, err = sql.CompileEnv(env, o.Text) })
	if err != nil {
		return err
	}
	// CompileEnv is the call DB.Query makes; Parse and Analyze repeat its
	// first two steps to split its time. They run after it: before it
	// they would meet the cold caches a long evaluation leaves behind, and
	// the remainder (sql.translate_us) would come out negative.
	var stmt *sql.Stmt
	rec.parse = t.call(root, opIdx, "sql.Parse", func() { stmt, err = sql.Parse(o.Text) })
	if err != nil {
		return err
	}
	rec.analyze = t.call(root, opIdx, "sql.Analyze", func() { err = sql.Analyze(env, stmt) })
	if err != nil {
		return err
	}
	if o.Kind == opAdvise {
		return nil
	}
	plan := tr.Plan
	rec.sqlOps, _ = countOps(plan)
	verify := func(sp plancheck.StagePlan) {
		var diags []plancheck.Diagnostic
		rec.verify += t.call(root, opIdx, "plancheck.Verify", func() { diags = plancheck.Verify(sp) })
		if err == nil && plancheck.HasErrors(diags) {
			err = fmt.Errorf("plancheck %s: %v", sp.Stage, diags)
		}
	}
	verify(plancheck.StagePlan{Stage: plancheck.StageTranslate, Plan: plan, Hidden: tr.Hidden})
	var res *rewrite.Result
	if tr.Provenance {
		name := string(o.Strategy)
		if name == "" {
			name = string(perm.Auto)
		}
		strat, perr := rewrite.ParseStrategy(name)
		if perr != nil {
			return perr
		}
		var stages []rewrite.Stage
		rec.rewrite = t.call(root, opIdx, "rewrite.RewriteHooked", func() {
			res, err = rewrite.RewriteHooked(plan, strat, func(st rewrite.Stage) { stages = append(stages, st) })
		})
		if err != nil {
			return err
		}
		for _, st := range stages {
			verify(plancheck.StagePlan{Stage: plancheck.RuleStage(st.Rule), Plan: st.Plan, Nested: true, Input: st.Input,
				Rewritten: true, Original: st.Input.Schema(), Prov: st.Prov})
		}
		plan = res.Plan
		rec.rules, rec.witness = len(stages), len(res.ProvAttrs())
		rec.rewriteOps, _ = countOps(plan)
		verify(plancheck.StagePlan{Stage: plancheck.RewriteStage(name), Plan: plan, Rewritten: true,
			Original: res.Original, Prov: res.Prov, Hidden: tr.Hidden})
	}
	rec.optimize = t.call(root, opIdx, "opt.Optimize", func() { plan = opt.Optimize(plan) })
	rec.optOps, rec.cross = countOps(plan)
	sp := plancheck.StagePlan{Stage: plancheck.StageOptimize, Plan: plan, Hidden: tr.Hidden}
	if res != nil {
		sp.Rewritten, sp.Original, sp.Prov = true, res.Original, res.Prov
	}
	verify(sp)
	if err != nil {
		return err
	}
	algebra.Walk(plan, func(n algebra.Op) bool {
		if s, ok := n.(*algebra.Scan); ok {
			if r, rerr := src.Relation(s.Name); rerr == nil {
				rec.baseRows += r.Card()
			}
		}
		return true
	})
	ev := eval.New(src)
	rec.eval = t.call(root, opIdx, "eval.Eval", func() {
		out, eerr := ev.Eval(plan)
		if err = eerr; err == nil {
			rec.rowsOut = out.Card()
		}
	})
	rec.peak = ev.LastStats().PeakRows
	return err
}

// mirrorOf returns an in-process copy of service_mix's database, in the
// state a lap's reset expects. The traced run applies every operation to it
// that it sends to the server, so the engine's stages can be timed against
// the catalog state the server's session is in: a session's own catalog is
// not reachable from outside the perm package.
func mirrorOf(cfg config) (*perm.DB, error) {
	db := perm.Open()
	cat, _ := tpch.Generate(tpch.Config{SF: sizesOf(cfg.workload, cfg.smoke).sf, Seed: cfg.seed})
	for _, name := range cat.Names() {
		r, err := cat.Relation(name)
		if err != nil {
			return nil, err
		}
		db.Catalog().Register(name, r)
	}
	_, err := db.Exec(`CREATE TABLE w (k int, v int, tag text)`)
	return db, err
}

// runtimeStats are the process-wide counters sampled around the untraced
// lap of a traced run.
type runtimeStats struct {
	ms  runtime.MemStats
	cpu float64 // user+system CPU, ms
}

func readRuntime() runtimeStats {
	var s runtimeStats
	runtime.ReadMemStats(&s.ms)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
		s.cpu = tv(ru.Utime) + tv(ru.Stime)
	}
	return s
}

// traceRun is the state of a traced run's traced laps.
type traceRun struct {
	t      *tracer
	in     *instance
	mirror *perm.DB // service_mix only, see mirrorOf
	fails  *failures
	err    error // the first failure of a replayed call
}

func (tr *traceRun) check(what string, o *op, err error) {
	if err != nil && tr.err == nil {
		tr.err = fmt.Errorf("%s %q: %w", what, o.Text, err)
	}
}

// op runs one operation on the workload's own path under a root span, then
// the same work one layer at a time, and for a provenance statement its
// plain query. It returns what it learned.
func (tr *traceRun) op(opIdx int, o *op) opRecord {
	t := tr.t
	root := t.root(opIdx, o.Template)
	var out outcome
	name := "perm.DB.Query"
	if tr.mirror != nil {
		name = "http.roundtrip"
	}
	d := t.call(root, opIdx, name, func() { out, _ = tr.in.runOp(0, o, tr.fails) })
	rec := opRecord{template: o.Template, kind: o.Kind, prov: o.Plain != "", op: d, inproc: d, elapsedUS: out.elapsedUS, bytes: out.bytes, shed: out.shed}
	db := tr.in.dbs[o.DB]
	if tr.mirror != nil {
		db = tr.mirror
		rec.inproc = t.call(root, opIdx, "perm.mirror", func() {
			_, err := runLibrary(db, o, false)
			tr.check("mirror", o, err)
		})
	}
	if o.Kind == opExec {
		rec.parse = t.call(root, opIdx, "sql.ParseStatement", func() {
			_, err := sql.ParseStatement(o.Text)
			tr.check("parse", o, err)
		})
		rec.compile = rec.parse
	} else {
		tr.check("stages of", o, t.layers(root, opIdx, db.Catalog(), o, &rec))
	}
	if rec.prov {
		plain := *o
		plain.Text, plain.Strategy = o.Plain, ""
		rec.plain = t.call(root, opIdx, "perm.plain", func() {
			_, err := runLibrary(db, &plain, false)
			tr.check("plain query of", o, err)
		})
	}
	t.finish(root)
	return rec
}

// traced is a traced run: the per-layer metrics. One client runs a warm-up
// lap, one untraced lap (the base of trace.overhead_x and of the runtime.*
// metrics), then tracePasses traced laps in which every operation is
// followed by a replay of its stages.
func traced(cfg config) (result, error) {
	p, err := prepare(cfg, 1, 1)
	if err != nil {
		return result{}, err
	}
	defer p.in.stop()
	in := p.in
	list := in.lists[0]
	var mirror *perm.DB
	isService := cfg.workload == "service_mix"
	if isService {
		if mirror, err = mirrorOf(cfg); err != nil {
			return result{}, fmt.Errorf("mirror: %w", err)
		}
	}

	in.lap(0, p.fails, nil)
	runtime.GC()
	before := readRuntime()
	var untraced, heapPeak float64
	every := max(1, len(list)/64)
	var ms runtime.MemStats
	in.lap(0, p.fails, func(i int, d time.Duration) {
		untraced += float64(d)
		if i%every == 0 {
			runtime.ReadMemStats(&ms)
			heapPeak = max(heapPeak, float64(ms.HeapAlloc))
		}
	})
	after := readRuntime()

	tr := &traceRun{in: in, mirror: mirror, fails: p.fails,
		t: &tracer{t0: time.Now(), spans: make([]span, 0, tracePasses*len(list)*12)}}
	recs := make([]opRecord, 0, tracePasses*len(list))
	for opIdx := 0; opIdx < tracePasses*len(list); opIdx++ {
		recs = append(recs, tr.op(opIdx, &list[opIdx%len(list)]))
	}
	if tr.err != nil {
		return result{}, tr.err
	}
	t := tr.t

	cat, err := catalogMetrics(in, isService)
	if err != nil {
		return result{}, err
	}
	if err := t.flush(filepath.Join("out", "trace-"+cfg.workload+".jsonl")); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}

	m := layerMetrics(recs, len(list), p.fails)
	for k, v := range serviceMetrics(isService, recs) {
		m[k] = v
	}
	for k, v := range cat {
		m[k] = v
	}
	n := float64(len(list))
	m["runtime.alloc_kb_per_op"] = metric{float64(after.ms.TotalAlloc-before.ms.TotalAlloc) / 1024 / n, "KB"}
	m["runtime.mallocs_per_op"] = metric{float64(after.ms.Mallocs-before.ms.Mallocs) / n, "count"}
	m["runtime.gc_cycles"] = metric{float64(after.ms.NumGC - before.ms.NumGC), "count"}
	m["runtime.cpu_ms_per_op"] = metric{(after.cpu - before.cpu) / n, "ms"}
	m["runtime.heap_peak_mb"] = metric{heapPeak / (1 << 20), "MB"}
	var tracedOps float64
	for _, r := range recs {
		tracedOps += r.op
	}
	m["trace.overhead_x"] = metric{tracedOps / tracePasses / untraced, "x"}

	printTemplates(recs)
	for _, msg := range p.fails.msgs {
		fmt.Println("FAIL:", msg)
	}
	return result{Correct: p.fails.count == 0, Attempted: (2 + tracePasses) * len(list), Failed: p.fails.count, Metrics: m}, nil
}

// printTemplates breaks the traced operations down by statement template:
// how many ran, their median time, the template's share of all operation
// time, and how its own time splits into planning (sql + rewrite + opt) and
// evaluation. This is the table the workloads were sized from.
func printTemplates(recs []opRecord) {
	type agg struct {
		ops           []float64
		sum, plan, ev float64
	}
	byName := map[string]*agg{}
	var names []string
	var total float64
	for i := range recs {
		r := &recs[i]
		a := byName[r.template]
		if a == nil {
			a = &agg{}
			byName[r.template] = a
			names = append(names, r.template)
		}
		a.ops = append(a.ops, r.op/1e3)
		a.sum += r.op
		a.plan += r.compile + r.rewrite + r.optimize
		a.ev += r.eval
		total += r.op
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "template\tops\tmedian_us\tshare_of_time\tplanning\teval\t")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.3f\t%.3f\t%.3f\t\n", n, len(a.ops), median(a.ops), a.sum/total, a.plan/a.sum, a.ev/a.sum)
	}
	_ = tw.Flush() // stdout; a failed write is not actionable
}

// layerMetrics reduces the traced operations to the per-layer metrics of the
// engine's own layers. A _us metric is the median over the operations that
// made the call; a _share is the layer's summed time over the summed time of
// all operations; a count is the total of one pass, which every pass must
// reproduce exactly.
func layerMetrics(recs []opRecord, lap int, fails *failures) map[string]metric {
	med := func(get func(*opRecord) float64) float64 {
		var v []float64
		for i := range recs {
			if x := get(&recs[i]); x != 0 {
				v = append(v, x/1e3)
			}
		}
		return median(v)
	}
	var total float64
	for i := range recs {
		total += recs[i].op
	}
	share := func(get func(*opRecord) float64) float64 {
		var s float64
		for i := range recs {
			s += get(&recs[i])
		}
		return s / total
	}
	count := func(name string, get func(*opRecord) int) metric {
		sums := make([]int, tracePasses)
		for i := range recs {
			sums[i/lap] += get(&recs[i])
		}
		for _, s := range sums[1:] {
			if s != sums[0] {
				fails.add("%s differs between passes: %v", name, sums)
			}
		}
		return metric{float64(sums[0]), "count"}
	}
	translate := func(r *opRecord) float64 {
		if r.kind == opExec {
			return 0
		}
		return r.compile - r.parse - r.analyze
	}
	engine := func(r *opRecord) float64 { return r.compile + r.rewrite + r.optimize + r.eval }
	present := func(r *opRecord) float64 {
		if r.kind != opQuery {
			return 0
		}
		return r.inproc - engine(r)
	}
	var overheads []float64
	for i := range recs {
		if r := &recs[i]; r.prov && r.plain > 0 {
			overheads = append(overheads, r.inproc/r.plain)
		}
	}
	return map[string]metric{
		"sql.parse_us":     {med(func(r *opRecord) float64 { return r.parse }), "us"},
		"sql.analyze_us":   {med(func(r *opRecord) float64 { return r.analyze }), "us"},
		"sql.translate_us": {med(translate), "us"},
		"sql.share":        {share(func(r *opRecord) float64 { return r.compile }), "ratio"},
		"sql.plan_ops":     count("sql.plan_ops", func(r *opRecord) int { return r.sqlOps }),

		"rewrite.rewrite_us":   {med(func(r *opRecord) float64 { return r.rewrite }), "us"},
		"rewrite.share":        {share(func(r *opRecord) float64 { return r.rewrite }), "ratio"},
		"rewrite.rules_fired":  count("rewrite.rules_fired", func(r *opRecord) int { return r.rules }),
		"rewrite.plan_ops":     count("rewrite.plan_ops", func(r *opRecord) int { return r.rewriteOps }),
		"rewrite.witness_cols": count("rewrite.witness_cols", func(r *opRecord) int { return r.witness }),

		"opt.optimize_us": {med(func(r *opRecord) float64 { return r.optimize }), "us"},
		"opt.share":       {share(func(r *opRecord) float64 { return r.optimize }), "ratio"},
		"opt.plan_ops":    count("opt.plan_ops", func(r *opRecord) int { return r.optOps }),
		"opt.cross_ops":   count("opt.cross_ops", func(r *opRecord) int { return r.cross }),

		"plancheck.verify_us": {med(func(r *opRecord) float64 { return r.verify }), "us"},

		"eval.eval_us":   {med(func(r *opRecord) float64 { return r.eval }), "us"},
		"eval.share":     {share(func(r *opRecord) float64 { return r.eval }), "ratio"},
		"eval.rows_out":  count("eval.rows_out", func(r *opRecord) int { return r.rowsOut }),
		"eval.peak_rows": count("eval.peak_rows", func(r *opRecord) int { return int(r.peak) }),
		"eval.base_rows": count("eval.base_rows", func(r *opRecord) int { return r.baseRows }),

		// DDL and INSERT are the catalog layer's work: what the in-process
		// statement takes beyond parsing it.
		"catalog.share": {share(func(r *opRecord) float64 {
			if r.kind != opExec {
				return 0
			}
			return r.inproc - r.parse
		}), "ratio"},

		"perm.query_us": {med(func(r *opRecord) float64 {
			if r.kind != opQuery {
				return 0
			}
			return r.inproc
		}), "us"},
		"perm.present_us":      {med(present), "us"},
		"perm.present_share":   {share(present), "ratio"},
		"perm.prov_overhead_x": {median(overheads), "x"},
	}
}

// serviceMetrics prices the service layer from service_mix's own traced
// operations, which ran over HTTP. The library workloads never touch the
// service and report zeros.
func serviceMetrics(isService bool, recs []opRecord) map[string]metric {
	if !isService {
		return map[string]metric{
			"service.rtt_us":      {0, "us"},
			"service.overhead_us": {0, "us"},
			"service.share":       {0, "ratio"},
			"service.resp_bytes":  {0, "bytes"},
			"service.shed_ratio":  {0, "ratio"},
		}
	}
	// The server's own time is its elapsed_ms where it reports one (queries),
	// the mirror database's time otherwise. A refused operation has already
	// failed the run in runOp; here it only counts.
	var rtts, overheads []float64
	var sumRTT, sumOver float64
	var bytes, shed int
	lap := len(recs) / tracePasses
	for i := range recs {
		r := &recs[i]
		if r.shed {
			shed++
			continue
		}
		inproc := r.inproc
		if r.elapsedUS > 0 {
			inproc = r.elapsedUS * 1e3
		}
		rtts = append(rtts, r.op/1e3)
		overheads = append(overheads, (r.op-inproc)/1e3)
		sumRTT += r.op
		sumOver += r.op - inproc
		if i < lap {
			bytes += r.bytes
		}
	}
	return map[string]metric{
		"service.rtt_us":      {median(rtts), "us"},
		"service.overhead_us": {median(overheads), "us"},
		"service.share":       {sumOver / sumRTT, "ratio"},
		"service.resp_bytes":  {float64(bytes), "bytes"},
		"service.shed_ratio":  {float64(shed) / float64(len(recs)), "ratio"},
	}
}

// catalogMetrics prices the catalog layer: registration as the run's own
// set-up paid it and, on service_mix, the only workload that writes, a
// snapshot of a session overlay and a five-row INSERT into a session table
// held at the size service_mix's table has mid-lap.
func catalogMetrics(in *instance, isService bool) (map[string]metric, error) {
	m := map[string]metric{
		"catalog.register_us_per_krow": {float64(in.registerNS) / 1e3 / float64(in.registerRows) * 1e3, "us"},
		"catalog.snapshot_us":          {0, "us"},
		"catalog.insert_us":            {0, "us"},
	}
	if !isService {
		return m, nil
	}
	const steadyRows, probes = 2000, 64
	db := in.dbs[0]
	sess := db.NewSession()
	if _, err := sess.Exec(`CREATE TABLE probe (k int, v int, tag text)`); err != nil {
		return nil, fmt.Errorf("catalog probe: %w", err)
	}
	insert := func(k int) (float64, error) {
		text := "INSERT INTO probe VALUES "
		for i := 0; i < 5; i++ {
			if i > 0 {
				text += ", "
			}
			text += fmt.Sprintf("(%d, %d, 'p')", k+i, i)
		}
		t0 := time.Now()
		_, err := sess.Exec(text)
		return float64(time.Since(t0)) / 1e3, err
	}
	var inserts []float64
	for k := 0; k < steadyRows+5*probes; k += 5 {
		us, err := insert(k)
		if err != nil {
			return nil, fmt.Errorf("catalog probe: %w", err)
		}
		if k >= steadyRows {
			inserts = append(inserts, us)
		}
	}
	overlay := catalog.NewOverlay(db.Catalog())
	var snaps []float64
	const batch = 1000
	for i := 0; i < probes; i++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			_ = overlay.Snapshot()
		}
		snaps = append(snaps, float64(time.Since(t0))/1e3/batch)
	}
	m["catalog.snapshot_us"] = metric{median(snaps), "us"}
	m["catalog.insert_us"] = metric{median(inserts), "us"}
	return m, nil
}
