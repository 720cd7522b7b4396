package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"twoview"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric catalogue")

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []e2eDoc      `json:"end_to_end"`
	PerLayer   []layerDoc    `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eDoc struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDoc struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func catalogue() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadDoc{w.name, w.why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, e2eDoc{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, layerDoc{m.name, m.unit, m.better})
	}
	return f
}

// TestBenchmarkJSON keeps BENCHMARK.json and the catalogue in step.
func TestBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(catalogue(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from the catalogue; rerun with -update")
	}
	var layers map[string]json.RawMessage
	b, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &layers); err != nil {
		t.Fatal(err)
	}
	var expect map[string]json.RawMessage
	if err := json.Unmarshal(layers["expected"], &expect); err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayer {
		if _, ok := expect[m.name]; !ok {
			t.Errorf("layers.json: no expected effect for %s", m.name)
		}
	}
}

// buildWorker builds cmd/shardworker for the shard-tcp smoke run.
func buildWorker(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "shardworker")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/shardworker")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build shardworker: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs every workload at a tiny scale, untraced and traced,
// and checks the result's shape.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every workload")
	}
	worker := buildWorker(t)
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			cfg := config{workload: w.name, seed: 3, seconds: 1, trace: trace, scale: 0.05,
				worker: worker, spans: t.TempDir()}
			var out bytes.Buffer
			res, err := run(cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", w.name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%d: correct=%v failed=%d attempted=%d\n%s",
					w.name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%d: metric %s = %+v", w.name, trace, d.name, m)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w.name, d.name, m.Value)
				}
			}
			if trace == 1 && res.Metrics["trace.wall_s"].Value <= 0 {
				t.Errorf("%s: traced run reports no wall time", w.name)
			}
			line, err := json.Marshal(res)
			if err != nil || !strings.HasPrefix(string(line), `{"correct":true,"attempted":`) {
				t.Errorf("%s: result line %s (%v)", w.name, line, err)
			}
		}
	}
}

// smallTable mines a SELECT(1) table on a tiny dataset.
func smallTable(t *testing.T) (*twoview.Dataset, *twoview.Result, []float64) {
	t.Helper()
	p, err := twoview.ProfileByName("house")
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := twoview.Generate(p.Scaled(0.5))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cands, _, err := twoview.MineCandidatesCapped(ctx, d, p.MinSupport, candidateCap, twoview.Parallel(1))
	if err != nil {
		t.Fatal(err)
	}
	log := &iterLog{}
	res, err := twoview.MineSelect(ctx, d, cands, twoview.SelectOptions{K: 1, OnIteration: log.hook})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rules) < 2 {
		t.Fatalf("want a table of at least two rules, got %d", len(res.Table.Rules))
	}
	return d, res, log.scores
}

// TestCheckResultRejectsTamperedTable checks that the output checks
// catch a table that no longer matches the miner's final state.
func TestCheckResultRejectsTamperedTable(t *testing.T) {
	d, res, scores := smallTable(t)
	ctx := context.Background()
	if err := checkResult(ctx, d, res, scores); err != nil {
		t.Fatalf("untampered table fails: %v", err)
	}
	tampered := *res
	tab := *res.Table
	tab.Rules = tab.Rules[:len(tab.Rules)-1]
	tampered.Table = &tab
	if err := checkResult(ctx, d, &tampered, scores[:len(scores)-1]); err == nil {
		t.Error("a table with a rule dropped passes the checks")
	}
	rising := append([]float64(nil), scores...)
	rising[len(rising)-1] = rising[0] + 1
	if err := checkResult(ctx, d, res, rising); err == nil {
		t.Error("a rising OnIteration score passes the checks")
	}
	var text bytes.Buffer
	if err := twoview.WriteTable(&text, d, &tab); err != nil {
		t.Fatal(err)
	}
	if err := checkGolden("crime", "select1", text.Bytes(), ""); err == nil {
		t.Error("a foreign table matches the crime golden")
	}
}

// TestCheckReplyRejectsTamperedResponse checks the serving checks.
func TestCheckReplyRejectsTamperedResponse(t *testing.T) {
	want := [][]int{{1, 4}, {}, {2}}
	good := []byte(`{"rows":[[1,4],[],[2]],"epoch":2}`)
	if err := checkReply(good, want, 1, 2); err != nil {
		t.Fatalf("correct reply fails: %v", err)
	}
	for name, body := range map[string]string{
		"wrong item":  `{"rows":[[1,5],[],[2]],"epoch":2}`,
		"extra item":  `{"rows":[[1,4],[3],[2]],"epoch":2}`,
		"missing row": `{"rows":[[1,4],[]],"epoch":2}`,
		"stale epoch": `{"rows":[[1,4],[],[2]],"epoch":0}`,
		"future":      `{"rows":[[1,4],[],[2]],"epoch":3}`,
		"not json":    `{"rows":`,
	} {
		if err := checkReply([]byte(body), want, 1, 2); err == nil {
			t.Errorf("%s: tampered reply passes", name)
		}
	}
}

// TestTail checks the tail percentile keeps ten samples beyond it.
func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := tail(xs); got != 89 {
		t.Errorf("tail of 0..99 = %v, want 89", got)
	}
	if got := tail(xs[:5]); got != 4 {
		t.Errorf("tail of 0..4 = %v, want the maximum 4", got)
	}
}

// TestOpenLoopFailsTamperedReplies serves a table through a proxy that
// corrupts every other reply, and checks the load counts them as failed.
func TestOpenLoopFailsTamperedReplies(t *testing.T) {
	d, res, _ := smallTable(t)
	tr, err := twoview.CompileTranslator(d, res.Table)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := twoview.WriteTable(&text, d, res.Table); err != nil {
		t.Fatal(err)
	}
	b := &bench{cfg: config{seed: 1}, tr: newTracer(false, ""), layer: map[string]float64{}}
	ctx := context.Background()
	pls, err := b.payloads(ctx, d, tr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := startServer(d, mined{algo: "select1", res: res, text: text.Bytes(), tr: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	var n atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		status, reply, err := post(http.DefaultClient, s.url+r.URL.Path, body)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		if n.Add(1)%2 == 0 {
			reply = bytes.Replace(reply, []byte("["), []byte("[0,"), 3)
		}
		w.WriteHeader(status)
		w.Write(reply)
	}))
	defer proxy.Close()

	st := b.openLoop(0, proxy.URL, pls, 200, 500*time.Millisecond, 0)
	if st.wrong == 0 || b.failed.Load() == 0 {
		t.Fatalf("tampered replies not caught: wrong=%d failed=%d of %d sent", st.wrong, b.failed.Load(), st.sent)
	}
	if st.wrong+len(st.lat) != st.sent {
		t.Errorf("sent %d = %d wrong + %d answered?", st.sent, st.wrong, len(st.lat))
	}
}

// TestSpeedScalesByMeanSampleSpeed checks that a wall time is scaled by
// the mean per-sample speed of the samples inside its interval, and by
// all samples when the interval holds none.
func TestSpeedScalesByMeanSampleSpeed(t *testing.T) {
	t0 := time.Unix(100, 0)
	m := &speedMeter{
		at: []time.Time{t0, t0.Add(time.Second), t0.Add(2 * time.Second), t0.Add(3 * time.Second)},
		us: []float64{meterRefUs, 2 * meterRefUs, 4 * meterRefUs, 4 * meterRefUs},
	}
	if got, want := m.scaled(3, t0, t0.Add(time.Second)), 3*(1+0.5)/2; got != want {
		t.Errorf("scaled over the first two samples = %v, want %v", got, want)
	}
	if got, want := m.speed(t0.Add(10*time.Second), t0.Add(11*time.Second)), (1+0.5+0.25+0.25)/4; got != want {
		t.Errorf("speed of an empty interval = %v, want the mean of all samples %v", got, want)
	}
	if got := (&speedMeter{}).speed(t0, t0); got != 1 {
		t.Errorf("speed with no samples = %v, want 1", got)
	}
}
