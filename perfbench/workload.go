package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"twoview"
)

// workers is the worker-pool size of every mining call.
const workers = 2

// candidateCap is the §6.1 candidate cap: MineCandidatesCapped doubles
// minsup until at most this many closed candidates remain.
const candidateCap = 200_000

// workload is one named benchmark input and the calls it makes. Every
// workload runs the system end to end: dataset → (candidates →) search
// → compiled Translator → served HTTP answers.
type workload struct {
	name    string
	profile string
	// algos are the tables mined in one pass, in order; the first is the
	// headline table (table_s) and the one served.
	algos []string
	// shard runs SELECT and GREEDY through a loopback shardworker.
	shard bool
	// serve makes the serving phase the measured work: a higher rate,
	// one reload per second, and (traced) the rate ladder.
	serve bool
	// scale shrinks the profile's rows (0 means paper size).
	scale float64
	why   string
}

var workloads = []workload{
	{name: "paper-wide", profile: "crime", algos: []string{"select1", "select25", "greedy"},
		why: "crime 2215x538 at paper scale: ECLAT candidate mining dominates, the SELECT round sort runs serially"},
	{name: "paper-sparse", profile: "elections", algos: []string{"select1", "select25", "greedy"},
		why: "elections 1846x949, sparse: same pipeline as paper-wide but SELECT gain scoring over ~31k candidates dominates"},
	// Half of car's rows: a full-size MineExact takes 6-9 s, so a run
	// held two passes and its median swung with the host's speed.
	{name: "exact-small", profile: "car", algos: []string{"exact"}, scale: 0.5,
		why: "car at half size, 864x25: MineExact to convergence, the only run of branch-and-bound, rub/tub bitset kernels and the pool; no ECLAT"},
	{name: "serve-reload", profile: "adult", algos: []string{"select1"}, serve: true,
		why: "adult SELECT(1) table served over loopback HTTP: open-loop 64-row batches on 2 connections plus one reload per second"},
	{name: "shard-tcp", profile: "elections", algos: []string{"select1", "greedy"}, shard: true,
		why: "paper-sparse's SELECT(1) and GREEDY with 2 shards on a loopback shardworker: isolates supervisor, wire and TCP cost"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// bench is one benchmark invocation.
type bench struct {
	cfg       config
	w         workload
	out       io.Writer
	tr        *Tracer
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	problems  []string // the first failures, reported at the end
	layer     map[string]float64
	worker    *shardWorker
	relay     *relay
	pls       []payload
}

// maxProblems caps how many failure messages a run keeps.
const maxProblems = 20

func (b *bench) problem(err error) {
	b.failed.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.problems) < maxProblems {
		b.problems = append(b.problems, err.Error())
	}
}

// attempt counts one operation; a non-nil err counts it as failed.
func (b *bench) attempt(err error) {
	b.attempted.Add(1)
	if err != nil {
		b.problem(err)
	}
}

// fail records a failed output check on an operation already counted.
func (b *bench) fail(err error) {
	if err != nil {
		b.problem(err)
	}
}

// profile returns the workload's dataset profile at the configured
// scale and generator seed.
func (b *bench) profile() (twoview.Profile, error) {
	p, err := twoview.ProfileByName(b.w.profile)
	if err != nil {
		return p, err
	}
	scale := b.cfg.scale
	if b.w.scale != 0 {
		scale *= b.w.scale
	}
	if scale != 1 {
		p = p.Scaled(scale)
	}
	if b.cfg.dataSeed != 0 {
		p.Seed = b.cfg.dataSeed
	}
	return p, nil
}

// goldenApplies reports whether recorded table digests hold for this
// run's data: the workload's own scale and the profile's own generator
// seed. Row order does not matter, so every --seed qualifies.
func (b *bench) goldenApplies() bool { return b.cfg.scale == 1 && b.cfg.dataSeed == 0 }

// generate builds the workload's dataset: synth.Generate from the
// profile, then the rows permuted by the seed.
func (b *bench) generate(parent int) (*twoview.Dataset, twoview.Profile, float64, error) {
	p, err := b.profile()
	if err != nil {
		return nil, p, 0, err
	}
	id := b.tr.Begin(parent, "synth.Generate", "synth")
	start := time.Now()
	d, _, err := twoview.Generate(p)
	if err == nil && b.cfg.seed != 0 {
		d, err = d.Subset(rand.New(rand.NewSource(b.cfg.seed)).Perm(d.Size()))
	}
	secs := time.Since(start).Seconds()
	b.tr.End(id, nil)
	b.attempt(err)
	return d, p, secs, err
}

// mined is one table of a pass.
type mined struct {
	algo string
	res  *twoview.Result
	text []byte // WriteTable output
	tr   *twoview.Translator
}

// passResult is one pass over the workload's tables.
type passResult struct {
	start           time.Time
	tableS, tablesS float64 // wall seconds
	tables          []mined
}

// iterLog records OnIteration calls: when each came and the score.
type iterLog struct {
	start  time.Time
	at     []time.Time
	scores []float64
}

func (l *iterLog) hook(s twoview.IterationStats) bool {
	l.at = append(l.at, time.Now())
	l.scores = append(l.scores, s.Score)
	return true
}

// rounds splits the OnIteration times into rounds. SELECT(k) reports the
// rules of one round back to back (tens of µs apart) after a scoring
// phase of milliseconds, so a gap of roundGap or more starts a round.
// It returns each round's end time.
func (l *iterLog) rounds(perRule bool) []time.Time {
	const roundGap = 500 * time.Microsecond
	var ends []time.Time
	for i, t := range l.at {
		if perRule || i == 0 || t.Sub(l.at[i-1]) >= roundGap {
			ends = append(ends, t)
		} else {
			ends[len(ends)-1] = t
		}
	}
	return ends
}

// par is the ParallelOptions of one mining call.
func (b *bench) par() twoview.ParallelOptions {
	p := twoview.Parallel(workers)
	if b.w.shard {
		p.Shards = 2
		p.ShardAddrs = []string{b.shardAddr()}
	}
	return p
}

// pass mines every table of the workload once, from the dataset in
// memory to compiled Translators, and checks each result.
func (b *bench) pass(ctx context.Context, parent int, d *twoview.Dataset, p twoview.Profile) (*passResult, error) {
	traced := b.tr.enabled()
	start := time.Now()
	out := &passResult{start: start}
	var cands []twoview.Candidate
	if b.w.algos[0] != "exact" {
		id := b.tr.Begin(parent, "MineCandidatesCapped", "candidates")
		pr := startProbe(traced)
		var minsup int
		var err error
		cands, minsup, err = twoview.MineCandidatesCapped(ctx, d, p.MinSupport, candidateCap, twoview.Parallel(workers))
		cs := pr.stop(workers)
		b.tr.End(id, nil)
		b.attempt(err)
		if err != nil {
			return nil, err
		}
		if traced {
			attempts := 1
			for s := p.MinSupport; s > 0 && s < minsup; s *= 2 {
				attempts++
			}
			b.setCall("candidates", cs)
			b.layer["candidates.count"] = float64(len(cands))
			b.layer["candidates.minsup"] = float64(minsup)
			b.layer["candidates.attempts"] = float64(attempts)
			b.layer["candidates.alloc_mb"] = cs.AllocMB
		}
	}
	for i, algo := range b.w.algos {
		m, err := b.mine(ctx, parent, d, cands, algo)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			out.tableS = time.Since(start).Seconds()
		}
		out.tables = append(out.tables, m)
	}
	for i := range out.tables {
		m := &out.tables[i]
		id := b.tr.Begin(parent, "CompileTranslator", "compile")
		pr := startProbe(false)
		tr, err := twoview.CompileTranslator(d, m.res.Table)
		cs := pr.stop(1)
		b.tr.End(id, nil)
		b.attempt(err)
		if err != nil {
			return nil, err
		}
		m.tr = tr
		if traced && i == 0 {
			b.layer["compile.us"] = cs.Seconds * 1e6
		}
	}
	out.tablesS = time.Since(start).Seconds()
	return out, nil
}

// mine runs one search algorithm and checks its table.
func (b *bench) mine(ctx context.Context, parent int, d *twoview.Dataset, cands []twoview.Candidate, algo string) (mined, error) {
	traced := b.tr.enabled()
	par := b.par()
	log := &iterLog{}
	name := map[string]string{"select1": "MineSelect(1)", "select25": "MineSelect(25)", "greedy": "MineGreedy", "exact": "MineExact"}[algo]
	id := b.tr.Begin(parent, name, algo)
	wire0 := b.relayBytes()
	cpu0 := b.workerCPU()
	pr := startProbe(traced)
	log.start = time.Now()
	var res *twoview.Result
	var err error
	switch algo {
	case "select1", "select25":
		k := 1
		if algo == "select25" {
			k = 25
		}
		res, err = twoview.MineSelect(ctx, d, cands, twoview.SelectOptions{K: k, OnIteration: log.hook, ParallelOptions: par})
	case "greedy":
		res, err = twoview.MineGreedy(ctx, d, cands, twoview.GreedyOptions{OnIteration: log.hook, ParallelOptions: par})
	case "exact":
		res, err = twoview.MineExact(ctx, d, twoview.ExactOptions{OnIteration: log.hook, ParallelOptions: par})
	default:
		err = fmt.Errorf("unknown algorithm %q", algo)
	}
	cs := pr.stop(workers)
	wire1 := b.relayBytes()
	cpu1 := b.workerCPU()
	b.attempt(err)
	if err != nil {
		b.tr.End(id, nil)
		return mined{}, err
	}
	var ends []time.Time
	var roundMs []float64
	if algo != "greedy" {
		ends = log.rounds(algo != "select25")
		prev := log.start
		for _, e := range ends {
			b.tr.Add(id, "round", algo, prev, e, nil)
			roundMs = append(roundMs, float64(e.Sub(prev).Nanoseconds())/1e6)
			prev = e
		}
	}
	b.tr.End(id, nil)

	m := mined{algo: algo, res: res}
	var buf bytes.Buffer
	if err := twoview.WriteTable(&buf, d, res.Table); err != nil {
		b.fail(err)
	}
	m.text = buf.Bytes()
	b.fail(checkResult(ctx, d, res, log.scores))
	if b.goldenApplies() {
		b.fail(checkGolden(b.w.profile, algo, m.text, b.cfg.updateGolden))
	}

	if traced {
		b.setCall(algo, cs)
		rules := float64(len(res.Table.Rules))
		later := roundMs
		if len(later) > 1 {
			later = later[1:]
		}
		switch algo {
		case "select1", "select25":
			b.layer[algo+".rounds"] = float64(len(ends))
			b.layer[algo+".rules"] = rules
			if len(roundMs) > 0 {
				b.layer[algo+".first_round_ms"] = roundMs[0]
			}
			b.layer[algo+".round_ms.p50"] = median(later)
			b.layer[algo+".round_ms.tail"] = tail(later)
			b.layer[algo+".self_ms"] = b.tr.SelfMs(id)
			if b.w.shard && algo == "select1" {
				b.layer["shard.select1.round_ms.p50"] = median(later)
				b.layer["shard.select1.round_ms.tail"] = tail(later)
				if n := len(ends); n > 0 {
					b.layer["wire.bytes_per_round"] = float64(wire1.total()-wire0.total()) / float64(n)
				}
			}
		case "greedy":
			b.layer["greedy.rules"] = rules
		case "exact":
			b.layer["exact.iters"] = float64(len(ends))
			b.layer["exact.iter_ms.p50"] = median(roundMs)
			b.layer["exact.iter_ms.max"] = maxOf(roundMs)
		}
		if b.w.shard {
			b.layer["shard.worker_cpu_s"] += (cpu1 - cpu0).Seconds()
		}
	}
	return m, nil
}

// setCall stores a call's outside counters under the layer prefix.
func (b *bench) setCall(prefix string, cs callStats) {
	b.layer[prefix+".s"] = cs.Seconds
	b.layer[prefix+".cpu_util"] = cs.CPUUtil
	b.layer[prefix+".allocs"] = cs.Allocs
}

// ---- the run ----

// measured collects the end-to-end samples of a run, in seconds at the
// reference host speed (see speedMeter).
type measured struct {
	setupS, tableS, tablesS []float64
	serve                   loadStats
}

// A run sets up at least setupReps times and for at least setupTime, so
// that a set-up of a few milliseconds still gets a steady median
// (setup_s).
const (
	setupReps = 11
	setupTime = time.Second
)

// run executes cfg's workload and returns the result line.
func run(cfg config, out io.Writer) (*Result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	if w.shard && cfg.worker == "" {
		return nil, fmt.Errorf("workload %s needs --shardworker", w.name)
	}
	b := &bench{cfg: cfg, w: w, out: out, layer: map[string]float64{}}
	defer b.stopWorker()
	ctx := context.Background()

	var res *Result
	if cfg.trace == 1 {
		res, err = b.traced(ctx)
	} else {
		res, err = b.untraced(ctx)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted = b.attempted.Load()
	res.Failed = b.failed.Load()
	res.Correct = res.Failed == 0
	for _, p := range b.problems {
		fmt.Fprintln(out, "check failed:", p)
	}
	return res, nil
}

// setup generates the dataset (and, for shard-tcp, starts the worker)
// and returns its wall time in seconds.
func (b *bench) setup(parent int) (*twoview.Dataset, twoview.Profile, float64, error) {
	id := b.tr.Begin(parent, "setup", "bench")
	defer b.tr.End(id, nil)
	start := time.Now()
	d, p, genS, err := b.generate(id)
	if err != nil {
		return nil, p, 0, err
	}
	if b.tr.enabled() {
		b.layer["synth.gen_s"] = genS
	}
	if b.w.shard {
		wid := b.tr.Begin(id, "start shardworker", "shard")
		b.stopWorker()
		err = b.startWorker()
		b.tr.End(wid, nil)
		b.attempt(err)
		if err != nil {
			return nil, p, 0, err
		}
	}
	return d, p, time.Since(start).Seconds(), nil
}

// untraced is the end-to-end run: set up repeatedly, repeat passes for
// most of the measurement time, then serve the headline table. Set-up and
// pass times are scaled to the reference host speed. The serving latency
// is reported as measured: it moves with the host's speed by only about
// half as much as the probe kernel does (much of a request's time is
// spent waking idle vCPUs and in the loopback stack), so scaling it
// made its spread over seeds no better, and worse on serve-reload.
func (b *bench) untraced(ctx context.Context) (*Result, error) {
	var m measured
	var d *twoview.Dataset
	var p twoview.Profile
	meter := startSpeedMeter()
	defer meter.close()
	var rawSetup []float64
	setupStart := time.Now()
	for len(rawSetup) < setupReps || time.Since(setupStart) < setupTime {
		var s float64
		var err error
		if d, p, s, err = b.setup(0); err != nil {
			return nil, err
		}
		rawSetup = append(rawSetup, s)
	}
	// A set-up of a few milliseconds spans too few probe samples to scale
	// one by one, so the median is scaled by the whole phase's speed.
	m.setupS = []float64{meter.scaled(median(rawSetup), setupStart, time.Now())}
	budget := time.Duration(b.cfg.seconds * float64(time.Second))
	serveFor := b.serveDuration(budget)
	deadline := time.Now().Add(budget - serveFor)
	var first *passResult
	var last *passResult
	var rawTables []float64
	for len(m.tableS) == 0 || time.Now().Add(time.Duration(median(rawTables)*float64(time.Second))).Before(deadline) {
		// Each pass starts on a collected heap, as in a fresh process, so
		// one pass's garbage does not land on the next one's clock.
		runtime.GC()
		pr, err := b.pass(ctx, 0, d, p)
		if err != nil {
			return nil, err
		}
		rawTables = append(rawTables, pr.tablesS)
		m.tableS = append(m.tableS, meter.scaled(pr.tableS, pr.start, pr.start.Add(seconds(pr.tableS))))
		m.tablesS = append(m.tablesS, meter.scaled(pr.tablesS, pr.start, pr.start.Add(seconds(pr.tablesS))))
		fmt.Fprintf(b.out, "%s: pass %d: table %.4f s, tables %.4f s; at reference speed %.4f s, %.4f s\n",
			b.w.name, len(m.tableS), pr.tableS, pr.tablesS, m.tableS[len(m.tableS)-1], m.tablesS[len(m.tablesS)-1])
		if first == nil {
			first = pr
			b.crossCheck(ctx, d, pr)
		} else {
			b.fail(samePass(first, pr))
		}
		last = pr
	}
	meter.close()
	n, p5, p50 := meter.summary()
	fmt.Fprintf(b.out, "%s: %d probe samples, %.2f µs at the 5th percentile, %.2f µs median (reference %.2f µs)\n",
		b.w.name, n, p5, p50, meterRefUs)
	runtime.GC()
	m.serve = b.serveLoad(ctx, 0, d, last.tables[0], serveFor, b.serveRate(), b.w.serve)
	vals := map[string]float64{
		"setup_s":      median(m.setupS),
		"table_s":      median(m.tableS),
		"tables_s":     median(m.tablesS),
		"serve.p50_ms": quantile(m.serve.lat, 0.50),
		"peak_rss_mb":  peakRSSMB(),
	}
	fmt.Fprintf(b.out, "%s: %d of %d requests answered at %.0f/s, generator late by at most %.2f ms\n",
		b.w.name, len(m.serve.lat), m.serve.sent, m.serve.rate, m.serve.lateMaxMs)
	return &Result{Metrics: report(endToEnd, vals)}, nil
}

// seconds converts a float second count to a Duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// serveDuration is the part of the measurement time spent serving: the
// serving workload serves for most of it, the mining ones briefly.
func (b *bench) serveDuration(budget time.Duration) time.Duration {
	if b.w.serve {
		return budget * 3 / 4
	}
	return budget / 4
}

// traced repeats the workload once untraced and once traced, and
// reports the per-layer metrics of the traced repetition.
func (b *bench) traced(ctx context.Context) (*Result, error) {
	// Untraced reference repetition, for the tracing overhead.
	b.tr = newTracer(false, "")
	runtime.GC()
	d, p, _, err := b.setup(0)
	if err != nil {
		return nil, err
	}
	ref, err := b.pass(ctx, 0, d, p)
	if err != nil {
		return nil, err
	}
	b.crossCheck(ctx, d, ref)
	// Long enough for 1200 requests, so p99 has ten beyond it.
	rate := b.serveRate()
	serveFor := time.Duration(1200 / rate * float64(time.Second))
	refServe := b.serveLoad(ctx, 0, d, ref.tables[0], serveFor, rate, b.w.serve)

	// Traced repetition.
	b.tr = newTracer(true, fmt.Sprintf("%s-seed%d", b.w.name, b.cfg.seed))
	meter := startSpeedMeter()
	defer meter.close()
	runtime.GC()
	root := b.tr.Begin(0, b.w.name, "bench")
	gcp := startProbe(true)
	d, p, _, err = b.setup(root)
	if err != nil {
		return nil, err
	}
	if b.w.shard {
		if b.relay, err = startRelay(b.worker.addr); err != nil {
			return nil, err
		}
		defer b.relay.close()
	}
	passID := b.tr.Begin(root, "pass", "bench")
	pr, err := b.pass(ctx, passID, d, p)
	b.tr.End(passID, nil)
	if err != nil {
		return nil, err
	}
	b.fail(samePass(ref, pr))
	b.layer["host.speed"] = meter.speed(pr.start, pr.start.Add(seconds(pr.tablesS)))
	meter.close()
	b.translateInProcess(ctx, root, d, pr.tables[0])
	st := b.serveLoad(ctx, root, d, pr.tables[0], serveFor, rate, b.w.serve)
	if b.w.serve {
		b.serveLayers(ctx, root, d, pr.tables[0], st)
	} else {
		b.layer["http.p50_ms.low"] = quantile(st.lat, 0.50)
		b.layer["http.p99_ms.low"] = quantile(st.lat, 0.99)
		b.serveCounters(st)
	}
	if p50, rps := quantile(st.lat, 0.5), b.layer["translate.rows_per_s"]; p50 > 0 && rps > 0 {
		b.layer["http.matcher_share"] = batchRows / rps * 1e3 / p50
	}
	gcs := gcp.stop(workers)
	b.layer["gc.count"] = gcs.GCs
	b.layer["gc.pause_ms"] = gcs.PauseMs
	b.tr.End(root, nil)

	wall := b.tr.Duration(root)
	b.layer["trace.wall_s"] = wall
	b.layer["trace.overhead_s"] = pr.tablesS - ref.tablesS
	b.layer["trace.overhead_ms.serve_p50"] = quantile(st.lat, 0.5) - quantile(refServe.lat, 0.5)
	self := b.tr.LayerSelf()
	for _, l := range shareLayers {
		if wall > 0 {
			b.layer["share."+l] = 100 * self[l] / wall
		}
	}
	if b.w.shard {
		b.layer["wire.bytes_out"] = float64(b.relay.out.Load())
		b.layer["wire.bytes_in"] = float64(b.relay.in.Load())
		b.layer["shard.hello_ms"] = b.relay.helloMs()
	}
	b.printShares(self, wall)
	path := fmt.Sprintf("%s/%s-seed%d.json", b.cfg.spans, b.w.name, b.cfg.seed)
	if err := b.tr.Write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.out, "spans: %s\n", path)
	return &Result{Metrics: report(perLayer, b.layer)}, nil
}

// crossCheck runs the checks that compare against a second computation:
// shard-tcp's tables must be byte-identical to the in-process monolith's.
func (b *bench) crossCheck(ctx context.Context, d *twoview.Dataset, pr *passResult) {
	if !b.w.shard {
		return
	}
	p, err := b.profile()
	if err != nil {
		b.fail(err)
		return
	}
	cands, _, err := twoview.MineCandidatesCapped(ctx, d, p.MinSupport, candidateCap, twoview.Parallel(workers))
	b.attempt(err)
	if err != nil {
		return
	}
	for _, m := range pr.tables {
		var res *twoview.Result
		switch m.algo {
		case "select1":
			res, err = twoview.MineSelect(ctx, d, cands, twoview.SelectOptions{K: 1, ParallelOptions: twoview.Parallel(workers)})
		case "greedy":
			res, err = twoview.MineGreedy(ctx, d, cands, twoview.GreedyOptions{ParallelOptions: twoview.Parallel(workers)})
		}
		b.attempt(err)
		if err != nil {
			continue
		}
		var buf bytes.Buffer
		b.fail(twoview.WriteTable(&buf, d, res.Table))
		if !bytes.Equal(buf.Bytes(), m.text) {
			b.fail(fmt.Errorf("%s: %s table over TCP differs from the in-process monolith's", b.w.name, m.algo))
		}
	}
}

// samePass checks that a later pass mined byte-identical tables.
func samePass(a, b *passResult) error {
	for i := range a.tables {
		if !bytes.Equal(a.tables[i].text, b.tables[i].text) {
			return fmt.Errorf("%s table changed between passes", a.tables[i].algo)
		}
	}
	return nil
}

// printShares prints the per-layer share table of the traced run.
func (b *bench) printShares(self map[string]float64, wall float64) {
	fmt.Fprintf(b.out, "%s: layer self time over %.3f s traced wall time\n", b.w.name, wall)
	for _, l := range shareLayers {
		fmt.Fprintf(b.out, "  %-11s %9.4f s %7.2f%%\n", l, self[l], 100*self[l]/wall)
	}
}

// serveRate is the offered load of the workload's serving phase: the
// serving workload runs at highRate, the mining ones at probeRate.
func (b *bench) serveRate() float64 {
	if b.w.serve {
		return highRate
	}
	return probeRate
}
