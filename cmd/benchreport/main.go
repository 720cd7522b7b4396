// Command benchreport runs the repository's benchmarks and emits a
// machine-readable JSON report — ns/op, B/op, allocs/op per benchmark,
// serial-vs-parallel speedup ratios, and the execution environment
// (GOMAXPROCS, CPU count) — so the perf trajectory of the hot paths is
// recorded per PR (BENCH_PR*.json) and CI can gate on regressions.
//
// Usage:
//
//	benchreport [-bench 'BenchmarkMine'] [-pkgs ./internal/core/] [-benchtime 50x]
//	            [-count 3] [-label after] [-out report.json]
//	            [-parse bench-output.txt] [-baseline baseline.json] [-threshold 0.25]
//
// Modes:
//   - default: invoke `go test -run=^$ -bench <regex> -benchmem` on the
//     given packages, parse the output, write the report;
//   - -parse file: parse a pre-recorded `go test -bench` output instead
//     of running (for recording historical baselines);
//   - -baseline file: after producing the report, compare ns/op against
//     the baseline report and exit non-zero when any benchmark regressed
//     by more than -threshold (default 0.25 = +25% ns/op). A missing
//     baseline file is not an error: the gate is dormant until a
//     baseline recorded on the same hardware is supplied.
//   - -compare old.json new.json: pure offline diff of two previously
//     recorded reports — no benchmarks are run. Prints the per-benchmark
//     ns/op delta table and exits non-zero when any shared benchmark
//     regressed by more than -threshold. Unlike -baseline, both files
//     must exist: naming a report is a claim that it was recorded, so a
//     missing file is an error rather than a dormant gate.
//
// With -count > 1 the minimum ns/op per benchmark is kept (the standard
// best-of reading: the least-noise sample), while allocs/op and B/op are
// taken from the same run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Report is the JSON document benchreport emits.
type Report struct {
	Label      string      `json:"label,omitempty"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Ratios     []Ratio     `json:"serial_vs_parallel,omitempty"`
}

// Benchmark is one aggregated benchmark result.
type Benchmark struct {
	Name     string  `json:"name"`
	NsOp     float64 `json:"ns_op"`
	BytesOp  float64 `json:"bytes_op,omitempty"`
	AllocsOp float64 `json:"allocs_op,omitempty"`
	Samples  int     `json:"samples"`
}

// Ratio pairs a benchmark's serial and parallel variants.
type Ratio struct {
	Name       string  `json:"name"`
	SerialNs   float64 `json:"serial_ns_op"`
	ParallelNs float64 `json:"parallel_ns_op"`
	// Speedup is serial/parallel wall time; > 1 means the parallel
	// variant is faster on this machine.
	Speedup float64 `json:"speedup"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchreport: ")

	var (
		bench     = flag.String("bench", "BenchmarkMine|BenchmarkApply|BenchmarkTranslator|BenchmarkAndCount|BenchmarkCoverCounts|BenchmarkIntersectIntoSum|BenchmarkWeightedSum|BenchmarkPhaseHandoff|BenchmarkShardTCPLoopback", "benchmark regex passed to go test -bench (miners, the compiled serving path including the translatord load harness, the bitset kernels, the pool phase handoff, and the shard TCP loopback transport)")
		pkgs      = flag.String("pkgs", "./internal/core/ ./internal/bitset/ ./internal/pool/ ./internal/server/ ./internal/shard/", "space-separated package patterns to benchmark")
		benchtime = flag.String("benchtime", "20x", "go test -benchtime value")
		count     = flag.Int("count", 3, "go test -count value (min ns/op is kept)")
		label     = flag.String("label", "", "free-form label recorded in the report")
		out       = flag.String("out", "", "output JSON file (default stdout)")
		parse     = flag.String("parse", "", "parse this pre-recorded go test -bench output instead of running")
		baseline  = flag.String("baseline", "", "baseline report to gate against (missing file = gate dormant)")
		threshold = flag.Float64("threshold", 0.25, "maximum tolerated ns/op regression vs the baseline (0.25 = +25%)")
		compare   = flag.Bool("compare", false, "offline mode: diff two recorded reports (old.json new.json), exit non-zero past -threshold")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("usage: benchreport -compare [-threshold 0.25] old.json new.json")
		}
		old, err := loadReport(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		cur, err := loadReport(flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		if err := diffReports(os.Stdout, old, cur, *threshold); err != nil {
			log.Fatal(err)
		}
		return
	}

	var raw []byte
	var err error
	if *parse != "" {
		raw, err = os.ReadFile(*parse)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem",
			"-benchtime", *benchtime, "-count", strconv.Itoa(*count)}
		args = append(args, strings.Fields(*pkgs)...)
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		raw, err = cmd.Output()
		if err != nil {
			log.Fatalf("go %s: %v", strings.Join(args, " "), err)
		}
	}

	rep := buildReport(string(raw))
	rep.Label = *label

	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	if *out == "" {
		fmt.Print(buf.String())
	} else if err := os.WriteFile(*out, []byte(buf.String()), 0o644); err != nil {
		log.Fatal(err)
	}

	if *baseline != "" {
		if err := gate(os.Stdout, rep, *baseline, *threshold); err != nil {
			log.Fatal(err)
		}
	}
}

// benchLine matches one `go test -bench -benchmem` result line, e.g.
// BenchmarkMineSelect/serial-4   100   115549 ns/op   34680 B/op   883 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+([\d.]+) allocs/op)?`)

// buildReport parses raw `go test -bench` output and aggregates it.
func buildReport(raw string) *Report {
	rep := &Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	best := map[string]*Benchmark{}
	var order []string
	for _, line := range strings.Split(raw, "\n") {
		line = strings.TrimSpace(line)
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			rep.CPU = cpu
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, _ := strconv.ParseFloat(m[2], 64)
		var bytes, allocs float64
		if m[3] != "" {
			bytes, _ = strconv.ParseFloat(m[3], 64)
		}
		if m[4] != "" {
			allocs, _ = strconv.ParseFloat(m[4], 64)
		}
		b, seen := best[m[1]]
		if !seen {
			b = &Benchmark{Name: m[1]}
			best[m[1]] = b
			order = append(order, m[1])
		}
		b.Samples++
		if b.Samples == 1 || ns < b.NsOp {
			b.NsOp, b.BytesOp, b.AllocsOp = ns, bytes, allocs
		}
	}
	for _, name := range order {
		rep.Benchmarks = append(rep.Benchmarks, *best[name])
	}
	rep.Ratios = pairRatios(rep.Benchmarks)
	return rep
}

// pairRatios derives serial-vs-parallel speedups from benchmarks named
// <stem>/serial<suffix> and <stem>/parallel<suffix> — the suffix covers
// variant pairs like serial-k1/parallel-k1. Variants without a
// counterpart (e.g. parallel-only block-size sweeps) have no ratio.
func pairRatios(benchmarks []Benchmark) []Ratio {
	byName := map[string]float64{}
	for _, b := range benchmarks {
		byName[b.Name] = b.NsOp
	}
	var ratios []Ratio
	for _, b := range benchmarks {
		i := strings.LastIndex(b.Name, "/serial")
		if i < 0 {
			continue
		}
		stem, suffix := b.Name[:i], b.Name[i+len("/serial"):]
		par, ok := byName[stem+"/parallel"+suffix]
		if !ok || par == 0 {
			continue
		}
		ratios = append(ratios, Ratio{
			Name:       stem + suffix,
			SerialNs:   b.NsOp,
			ParallelNs: par,
			Speedup:    b.NsOp / par,
		})
	}
	sort.Slice(ratios, func(a, b int) bool { return ratios[a].Name < ratios[b].Name })
	return ratios
}

// gate compares the current report against a baseline report and
// returns an error when any shared benchmark's ns/op regressed by more
// than threshold. A missing baseline file only logs a note.
func gate(w io.Writer, cur *Report, baselinePath string, threshold float64) error {
	base, err := loadReport(baselinePath)
	if os.IsNotExist(err) {
		fmt.Fprintf(w, "benchreport: no baseline at %s; regression gate dormant\n", baselinePath)
		return nil
	}
	if err != nil {
		return err
	}
	return diffReports(w, base, cur, threshold)
}

// loadReport reads and decodes one recorded report. A missing file is
// returned as the bare os.IsNotExist error so gate can stay dormant.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("report %s: %w", path, err)
	}
	return &rep, nil
}

// diffReports prints the per-benchmark ns/op delta table between two
// reports and returns an error when any shared benchmark regressed by
// more than threshold. Benchmarks present on only one side carry no
// verdict, but their counts are noted: a silently shrunk benchmark set
// would otherwise read as a clean pass.
func diffReports(w io.Writer, base, cur *Report, threshold float64) error {
	baseNs := map[string]float64{}
	for _, b := range base.Benchmarks {
		baseNs[b.Name] = b.NsOp
	}
	var regressed []string
	shared := 0
	for _, b := range cur.Benchmarks {
		was, ok := baseNs[b.Name]
		if !ok || was == 0 {
			continue
		}
		shared++
		change := b.NsOp/was - 1
		status := "ok"
		if change > threshold {
			status = "REGRESSED"
			regressed = append(regressed, b.Name)
		}
		fmt.Fprintf(w, "%-50s %12.0f -> %12.0f ns/op  %+6.1f%%  %s\n",
			b.Name, was, b.NsOp, change*100, status)
	}
	if onlyOld, onlyNew := len(base.Benchmarks)-shared, len(cur.Benchmarks)-shared; onlyOld > 0 || onlyNew > 0 {
		fmt.Fprintf(w, "benchreport: %d benchmark(s) only in the old report, %d only in the new; no verdict on those\n",
			onlyOld, onlyNew)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%%: %s",
			len(regressed), threshold*100, strings.Join(regressed, ", "))
	}
	return nil
}
