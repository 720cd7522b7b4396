// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload at paper scale, checks every output, and prints one
// JSON result line:
//
//	perfbench --workload paper-wide --seed 3 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it repeats the workload once untraced and once with spans
// recorded around every call into the program, and carries the
// per-layer metrics, the per-layer share of wall time and the tracing
// overhead. Every layer is measured from outside, by timing calls into
// its public entry points. The end-to-end times setup_s, table_s and
// tables_s are wall times scaled to a reference host speed, measured by a
// probe kernel sampled while they run (hostspeed.go), because the shared
// host's own speed swings by up to a factor of two; serve.p50_ms is
// reported as measured. BENCHMARK.json at the repository root lists
// the workloads and metrics; layers.json next to this file records which
// end-to-end metric each per-layer metric is expected to move.
//
// The seed permutes the rows of the workload's dataset and picks the
// served request payloads, so the same seed gives the same inputs and
// every seed asks for the same amount of work. --data-seed replaces the
// profile's own generator seed, which changes the data itself.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	cfg := config{scale: 1}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 0, "input seed: permutes dataset rows and picks request payloads (0 keeps the generated order)")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "measurement time in seconds")
	flag.IntVar(&cfg.trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.Int64Var(&cfg.dataSeed, "data-seed", 0, "generator seed for the profile (0 = the profile's own)")
	flag.StringVar(&cfg.worker, "shardworker", "", "path of a built cmd/shardworker binary (shard-tcp)")
	flag.StringVar(&cfg.spans, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.StringVar(&cfg.updateGolden, "update-golden", "", "write this run's table digests into the given golden file")
	flag.Parse()

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Metric is one named measurement.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runSeconds is BENCHMARK.json's run_seconds and the default --seconds.
const runSeconds = 20

type config struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	scale        float64 // dataset scale factor; goldens hold only at 1
	dataSeed     int64
	worker       string
	spans        string
	updateGolden string
}

// metricDef describes one metric of the catalogue. BENCHMARK.json lists
// the same names, units and directions (the package test checks it).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are the metrics a user sees, reported by every workload.
// setup_s, table_s and tables_s are at the reference host speed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"table_s", "s", "lower", 0.25},
	{"tables_s", "s", "lower", 0.25},
	{"serve.p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// perLayer are the traced run's metrics. Every workload reports every
// one; a layer the workload never calls reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{name: n, unit: unit, better: better})
		}
	}
	add("s", "lower", "synth.gen_s")
	add("s", "lower", "candidates.s")
	add("ratio", "higher", "candidates.cpu_util")
	add("count", "lower", "candidates.count", "candidates.minsup", "candidates.attempts", "candidates.allocs")
	add("MB", "lower", "candidates.alloc_mb")
	for _, k := range []string{"select1", "select25"} {
		add("s", "lower", k+".s")
		add("ratio", "higher", k+".cpu_util")
		add("count", "lower", k+".rounds", k+".rules")
		add("ms", "lower", k+".first_round_ms", k+".round_ms.p50", k+".round_ms.tail", k+".self_ms")
		add("count", "lower", k+".allocs")
	}
	add("s", "lower", "greedy.s")
	add("ratio", "higher", "greedy.cpu_util")
	add("count", "lower", "greedy.rules", "greedy.allocs")
	add("s", "lower", "exact.s")
	add("ratio", "higher", "exact.cpu_util")
	add("count", "lower", "exact.iters")
	add("ms", "lower", "exact.iter_ms.p50", "exact.iter_ms.max")
	add("count", "lower", "exact.allocs")
	add("us", "lower", "compile.us")
	add("rows/s", "higher", "translate.rows_per_s")
	add("count", "lower", "translate.allocs_per_batch")
	add("ratio", "lower", "http.matcher_share")
	add("ms", "lower", "http.p50_ms.low", "http.p99_ms.low", "http.p50_ms.high", "http.p99_ms.high")
	add("rows/s", "higher", "http.max_rows_per_s")
	add("count", "lower", "http.shed_429", "http.timeout_504", "http.errors")
	add("count", "higher", "reload.count")
	add("ms", "lower", "reload.ms.p50", "reload.ms.max", "http.p99_ms.during_reload", "gen.late_ms.max")
	add("ms", "lower", "shard.select1.round_ms.p50", "shard.select1.round_ms.tail", "shard.hello_ms")
	add("bytes", "lower", "wire.bytes_out", "wire.bytes_in", "wire.bytes_per_round")
	add("s", "lower", "shard.worker_cpu_s")
	add("count", "lower", "gc.count")
	add("ms", "lower", "gc.pause_ms")
	for _, l := range shareLayers {
		add("%", "lower", "share."+l)
	}
	add("ratio", "higher", "host.speed")
	add("s", "lower", "trace.wall_s", "trace.overhead_s")
	add("ms", "lower", "trace.overhead_ms.serve_p50")
	return defs
}()

// shareLayers are the rows of the per-workload share table: each
// layer's self time as a percentage of the traced run's wall time.
var shareLayers = []string{"synth", "candidates", "select1", "select25", "greedy", "exact",
	"compile", "translate", "http", "reload", "load", "shard", "bench"}

// report fills a Result with every metric of defs, taking values from
// vals (missing ones read 0).
func report(defs []metricDef, vals map[string]float64) map[string]Metric {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		out[d.name] = Metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return names
}
