package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Span is one timed interval recorded by the benchmark around a call
// into the program. Spans of one benchmark invocation share Run; Parent
// is 0 for the root.
type Span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Run    string             `json:"run"`
	Name   string             `json:"name"`
	Layer  string             `json:"layer"`
	Start  float64            `json:"start_ms"`
	End    float64            `json:"end_ms"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// Tracer keeps spans in memory until the run ends. A nil or disabled
// Tracer records nothing and every method is a cheap no-op, so the
// untraced runs share one code path with the traced one.
type Tracer struct {
	on    bool
	run   string
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer(on bool, run string) *Tracer {
	return &Tracer{on: on, run: run, epoch: time.Now()}
}

func (t *Tracer) enabled() bool { return t != nil && t.on }

func (t *Tracer) ms(at time.Time) float64 {
	return float64(at.Sub(t.epoch).Nanoseconds()) / 1e6
}

// Begin opens a span and returns its id (0 when tracing is off).
func (t *Tracer) Begin(parent int, name, layer string) int {
	if !t.enabled() {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Run: t.run, Name: name, Layer: layer, Start: t.ms(now)})
	return id
}

// End closes span id, attaching attrs.
func (t *Tracer) End(id int, attrs map[string]float64) {
	if !t.enabled() || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = t.ms(now)
	sp.Attrs = attrs
}

// Add records an already finished span.
func (t *Tracer) Add(parent int, name, layer string, start, end time.Time, attrs map[string]float64) int {
	if !t.enabled() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Run: t.run, Name: name, Layer: layer,
		Start: t.ms(start), End: t.ms(end), Attrs: attrs})
	return id
}

// Duration returns span id's length in seconds.
func (t *Tracer) Duration(id int) float64 {
	if !t.enabled() || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.spans[id-1]
	return (sp.End - sp.Start) / 1e3
}

// Write dumps every span as one JSON array.
func (t *Tracer) Write(path string) error {
	if !t.enabled() {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// interval is a closed span of time in milliseconds.
type interval struct{ a, b float64 }

func unionLen(iv []interval) float64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].a < iv[j].a })
	total, cur := 0.0, iv[0]
	for _, x := range iv[1:] {
		if x.a > cur.b {
			total += cur.b - cur.a
			cur = x
		} else if x.b > cur.b {
			cur.b = x.b
		}
	}
	return total + cur.b - cur.a
}

// LayerSelf returns, per layer, the time in seconds covered by the
// layer's spans minus the time covered by their children in other
// layers. Concurrent spans of one layer (two connections' requests)
// count once, so a layer's self time never exceeds the wall time.
func (t *Tracer) LayerSelf() map[string]float64 {
	if !t.enabled() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	own := map[string][]interval{}
	kids := map[string][]interval{}
	for _, sp := range t.spans {
		own[sp.Layer] = append(own[sp.Layer], interval{sp.Start, sp.End})
		if sp.Parent > 0 {
			if p := t.spans[sp.Parent-1]; p.Layer != sp.Layer {
				kids[p.Layer] = append(kids[p.Layer], interval{sp.Start, sp.End})
			}
		}
	}
	out := map[string]float64{}
	for layer, iv := range own {
		out[layer] = (unionLen(iv) - unionLen(kids[layer])) / 1e3
	}
	return out
}

// SelfMs returns span id's length minus its children's union, in ms.
func (t *Tracer) SelfMs(id int) float64 {
	if !t.enabled() || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var iv []interval
	for _, sp := range t.spans {
		if sp.Parent == id {
			iv = append(iv, interval{sp.Start, sp.End})
		}
	}
	sp := t.spans[id-1]
	return sp.End - sp.Start - unionLen(iv)
}

// ---- outside counters ----

// cpuSelf is the process's user+system CPU time from getrusage.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set from getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// procCPU reads another process's user+system CPU time from
// /proc/<pid>/stat.
func procCPU(pid int) time.Duration {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// The command name may hold spaces; fields restart after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	const ticks = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticks
}

// probe captures wall, CPU and allocation counters before a call.
type probe struct {
	wall  time.Time
	cpu   time.Duration
	ms    runtime.MemStats
	trace bool
}

// callStats are the deltas around one call.
type callStats struct {
	Seconds float64
	CPUUtil float64 // CPU delta ÷ (wall × workers)
	Allocs  float64
	AllocMB float64
	GCs     float64
	PauseMs float64
}

// startProbe reads the counters. MemStats stops the world, so it is
// read only in traced runs.
func startProbe(trace bool) probe {
	p := probe{trace: trace}
	if trace {
		runtime.ReadMemStats(&p.ms)
		p.cpu = cpuSelf()
	}
	p.wall = time.Now()
	return p
}

func (p probe) stop(workers int) callStats {
	wall := time.Since(p.wall)
	cs := callStats{Seconds: wall.Seconds()}
	if !p.trace {
		return cs
	}
	cpu := cpuSelf() - p.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if wall > 0 && workers > 0 {
		cs.CPUUtil = cpu.Seconds() / (wall.Seconds() * float64(workers))
	}
	cs.Allocs = float64(ms.Mallocs - p.ms.Mallocs)
	cs.AllocMB = float64(ms.TotalAlloc-p.ms.TotalAlloc) / (1 << 20)
	cs.GCs = float64(ms.NumGC - p.ms.NumGC)
	cs.PauseMs = float64(ms.PauseTotalNs-p.ms.PauseTotalNs) / 1e6
	return cs
}

// ---- sample statistics ----

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tail is the highest percentile with ten samples beyond it: the
// (n-10)-th smallest of n samples, or the maximum when n ≤ 10.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if len(s) <= 10 {
		return s[len(s)-1]
	}
	return s[len(s)-11]
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
