package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"twoview"
	"twoview/internal/server"
)

const (
	// batchRows is the row count of every served batch.
	batchRows = 64
	// payloadCount distinct batches are cycled through by the load.
	payloadCount = 256
	// conns is the number of keep-alive client connections.
	conns = 2
	// p99LimitMs is the latency limit of the rate ladder.
	p99LimitMs = 10.0
	// lowRate and highRate are serve-reload's fixed offered loads in
	// requests per second: about a quarter and two thirds of the ladder's
	// knee (1100-1300 requests/s on a 2-vCPU host).
	lowRate  = 300.0
	highRate = 700.0
	// probeRate is the mining workloads' serving load. Their rows are up
	// to ten times longer than adult's, and at this rate requests rarely
	// queue, so the latency is the service time.
	probeRate = 150.0
	// rungTime is how long each ladder rung offers its rate.
	rungTime = 1200 * time.Millisecond
)

// ladder is the fixed ascending list of offered rates (requests/s) the
// traced serving run climbs. Rungs from 1000 up are 8% apart, so the
// highest passing rung repeats within a tenth; the top rung is a bit
// over twice the knee measured on a 2-vCPU host.
var ladder = func() []float64 {
	rates := []float64{500, 750}
	for r := 1000.0; r < 3000; r *= 1.08 {
		rates = append(rates, float64(int(r)))
	}
	return rates
}()

// payload is one batch request, pre-encoded, and its expected answer.
type payload struct {
	view twoview.View
	rows [][]int
	body []byte
	want [][]int
}

// payloads builds the served batches from rows of d picked by the seed,
// alternating the source view, and computes each expected answer with
// the in-process Translator.
func (b *bench) payloads(ctx context.Context, d *twoview.Dataset, tr *twoview.Translator) ([]payload, error) {
	rng := rand.New(rand.NewSource(b.cfg.seed + 1))
	out := make([]payload, payloadCount)
	for j := range out {
		view, from := twoview.Left, "L"
		if j%2 == 1 {
			view, from = twoview.Right, "R"
		}
		rows := make([][]int, batchRows)
		for r := range rows {
			rows[r] = d.Row(view, rng.Intn(d.Size())).AppendIndices(nil)
		}
		want, err := tr.TranslateBatchIDs(ctx, view, rows)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(struct {
			From string  `json:"from"`
			Rows [][]int `json:"rows"`
		}{from, rows})
		if err != nil {
			return nil, err
		}
		out[j] = payload{view: view, rows: rows, body: body, want: want}
	}
	return out, nil
}

// served is internal/server's handler on a loopback listener.
type served struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startServer serves m's compiled Translator. POST /reload re-reads the
// table text and compiles it again, as translatord re-reads its file.
func startServer(d *twoview.Dataset, m mined) (*served, error) {
	reload := func(context.Context) (*twoview.Translator, error) {
		t, err := twoview.ReadTable(bytes.NewReader(m.text), d)
		if err != nil {
			return nil, err
		}
		return twoview.CompileTranslator(d, t)
	}
	srv := server.New(m.tr, server.Options{Reload: reload, Log: log.New(io.Discard, "", 0)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: srv, hs: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second},
		url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() { s.hs.Serve(ln); close(s.done) }()
	return s, nil
}

func (s *served) close() {
	s.srv.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
}

// loadStats summarises one open-loop load.
type loadStats struct {
	rate      float64
	lat       []float64 // ms from due time to reply, successful requests
	latReload []float64 // the same, for requests overlapping a reload
	sent      int
	failed    int
	shed      int // 429
	timeouts  int // 504
	errs      int // transport errors and other statuses
	wrong     int // 200 with a wrong answer or epoch
	lateMaxMs float64
	backlog   int // due requests not yet sent when the schedule ended
	reloadMs  []float64
}

// passes reports whether the load met the ladder's limit: p99 within
// p99LimitMs, every request answered, no backlog left.
func (st loadStats) passes() bool {
	return st.failed == 0 && st.backlog <= conns && len(st.lat) > 0 && quantile(st.lat, 0.99) <= p99LimitMs
}

// serveLoad starts a server for m, offers rate requests/s for dur, and
// stops it.
func (b *bench) serveLoad(ctx context.Context, parent int, d *twoview.Dataset, m mined, dur time.Duration, rate float64, reloads bool) loadStats {
	pls, err := b.servePayloads(ctx, d, m)
	if err != nil {
		b.attempt(err)
		return loadStats{}
	}
	s, err := startServer(d, m)
	if err != nil {
		b.attempt(err)
		return loadStats{}
	}
	defer s.close()
	var every time.Duration
	if reloads {
		every = time.Second
	}
	return b.openLoop(parent, s.url, pls, rate, dur, every)
}

func (b *bench) servePayloads(ctx context.Context, d *twoview.Dataset, m mined) ([]payload, error) {
	if b.pls == nil {
		pls, err := b.payloads(ctx, d, m.tr)
		if err != nil {
			return nil, err
		}
		b.pls = pls
	}
	return b.pls, nil
}

// openLoop offers rate requests per second for dur: one goroutine
// schedules each request at its due time, and conns sender goroutines,
// each on one keep-alive connection, send them in order. Latency runs
// from the due time, so a stalled sender or server delays the requests
// queued behind it too. With reloadEvery > 0 a third connection posts
// /reload at that period.
func (b *bench) openLoop(parent int, url string, pls []payload, rate float64, dur time.Duration, reloadEvery time.Duration) loadStats {
	type job struct {
		i   int
		due time.Time
	}
	n := max(1, int(rate*dur.Seconds()))
	jobs := make(chan job, n) // room for every request: the scheduler never blocks
	st := loadStats{rate: rate}
	var mu sync.Mutex
	var started, confirmed atomic.Uint64
	confirmed.Store(1)
	var reloadSpans []interval
	lid := b.tr.Begin(parent, fmt.Sprintf("load %.0f/s", rate), "load")
	defer b.tr.End(lid, nil)
	t0 := time.Now()
	stopSending := make(chan struct{})
	start := time.Now().Add(2 * time.Millisecond)
	end := start.Add(dur)

	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		client := &http.Client{Timeout: 15 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for j := range jobs {
				select {
				case <-stopSending:
					continue // past the grace period: left unsent
				default:
				}
				pl := pls[j.i%len(pls)]
				sent := time.Now()
				lo := confirmed.Load()
				status, body, err := post(client, url+"/translate/batch", pl.body)
				done := time.Now()
				hi := 1 + started.Load()
				var cerr error
				switch {
				case err != nil:
					cerr = err
				case status != http.StatusOK:
					cerr = fmt.Errorf("batch request: status %d", status)
				default:
					if e := checkReply(body, pl.want, lo, hi); e != nil {
						cerr = e
					}
				}
				ms := float64(done.Sub(j.due).Nanoseconds()) / 1e6
				b.tr.Add(lid, "POST /translate/batch", "http", j.due, done,
					map[string]float64{"sent_ms": float64(sent.Sub(j.due).Nanoseconds()) / 1e6, "status": float64(status)})
				mu.Lock()
				st.sent++
				switch {
				case cerr == nil:
					st.lat = append(st.lat, ms)
				case err != nil:
					st.errs++
				case status == http.StatusTooManyRequests:
					st.shed++
				case status == http.StatusGatewayTimeout:
					st.timeouts++
				case status != http.StatusOK:
					st.errs++
				default:
					st.wrong++
				}
				if cerr != nil {
					st.failed++
				}
				for _, r := range reloadSpans {
					if cerr == nil && r.a <= ms2(t0, done) && ms2(t0, sent) <= r.b {
						st.latReload = append(st.latReload, ms)
						break
					}
				}
				mu.Unlock()
				b.attempt(cerr)
			}
		}()
	}

	reloadDone := make(chan struct{})
	go func() {
		defer close(reloadDone)
		if reloadEvery <= 0 {
			return
		}
		client := &http.Client{Timeout: 15 * time.Second}
		defer client.CloseIdleConnections()
		for at := start.Add(reloadEvery / 2); at.Before(end); at = at.Add(reloadEvery) {
			time.Sleep(time.Until(at))
			started.Add(1)
			rs := time.Now()
			status, body, err := post(client, url+"/reload", nil)
			re := time.Now()
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("reload: status %d: %s", status, body)
			}
			var rep struct {
				Epoch uint64 `json:"epoch"`
			}
			if err == nil {
				err = json.Unmarshal(body, &rep)
			}
			b.tr.Add(lid, "POST /reload", "reload", rs, re, nil)
			mu.Lock()
			if err == nil {
				if rep.Epoch > confirmed.Load() {
					confirmed.Store(rep.Epoch)
				}
				st.reloadMs = append(st.reloadMs, float64(re.Sub(rs).Nanoseconds())/1e6)
			}
			reloadSpans = append(reloadSpans, interval{ms2(t0, rs), ms2(t0, re)})
			mu.Unlock()
			b.attempt(err)
		}
	}()

	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		if late := float64(time.Since(due).Nanoseconds()) / 1e6; late > st.lateMaxMs {
			st.lateMaxMs = late
		}
		jobs <- job{i, due}
	}
	st.backlog = len(jobs)
	close(jobs)
	grace := time.AfterFunc(time.Second, func() { close(stopSending) })
	wg.Wait()
	grace.Stop()
	<-reloadDone
	return st
}

func ms2(t0, t time.Time) float64 { return float64(t.Sub(t0).Nanoseconds()) / 1e6 }

// post sends one POST and reads the whole reply.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, b, nil
}

// translateInProcess times TranslateBatchIDs on the served payloads
// in-process: the matcher's share of a served request.
func (b *bench) translateInProcess(ctx context.Context, parent int, d *twoview.Dataset, m mined) {
	pls, err := b.servePayloads(ctx, d, m)
	if err != nil {
		b.attempt(err)
		return
	}
	id := b.tr.Begin(parent, "TranslateBatchIDs", "translate")
	pr := startProbe(true)
	batches := 0
	for stop := time.Now().Add(300 * time.Millisecond); time.Now().Before(stop); batches++ {
		pl := pls[batches%len(pls)]
		if _, err := m.tr.TranslateBatchIDs(ctx, pl.view, pl.rows); err != nil {
			b.attempt(err)
			break
		}
	}
	cs := pr.stop(1)
	b.tr.End(id, nil)
	b.attempt(nil)
	b.layer["translate.rows_per_s"] = float64(batches*batchRows) / cs.Seconds
	b.layer["translate.allocs_per_batch"] = cs.Allocs / float64(max(1, batches))
}

// serveCounters stores a load's failure counters and generator lateness.
func (b *bench) serveCounters(st loadStats) {
	b.layer["http.shed_429"] += float64(st.shed)
	b.layer["http.timeout_504"] += float64(st.timeouts)
	b.layer["http.errors"] += float64(st.errs + st.wrong)
	b.layer["gen.late_ms.max"] = max(b.layer["gen.late_ms.max"], st.lateMaxMs)
}

// serveLayers is the traced serving workload: the fixed low rate, the
// high rate with reloads (already run as high), then the ladder.
func (b *bench) serveLayers(ctx context.Context, parent int, d *twoview.Dataset, m mined, high loadStats) {
	low := b.serveLoad(ctx, parent, d, m, 2*time.Second, lowRate, false)
	b.layer["http.p50_ms.low"] = quantile(low.lat, 0.50)
	b.layer["http.p99_ms.low"] = quantile(low.lat, 0.99)
	b.layer["http.p50_ms.high"] = quantile(high.lat, 0.50)
	b.layer["http.p99_ms.high"] = quantile(high.lat, 0.99)
	b.layer["http.p99_ms.during_reload"] = quantile(high.latReload, 0.99)
	b.layer["reload.count"] = float64(len(high.reloadMs))
	b.layer["reload.ms.p50"] = median(high.reloadMs)
	b.layer["reload.ms.max"] = maxOf(high.reloadMs)
	b.serveCounters(low)
	b.serveCounters(high)

	fmt.Fprintf(b.out, "%-10s %10s %8s %8s %8s %7s %s\n", "rate/s", "rows/s", "p50_ms", "p99_ms", "late_ms", "backlog", "ok")
	best := 0.0
	for _, rate := range ladder {
		st := b.serveLoad(ctx, parent, d, m, rungTime, rate, false)
		b.serveCounters(st)
		ok := st.passes()
		fmt.Fprintf(b.out, "%-10.0f %10.0f %8.3f %8.3f %8.3f %7d %v\n", rate, rate*batchRows,
			quantile(st.lat, 0.5), quantile(st.lat, 0.99), st.lateMaxMs, st.backlog, ok)
		if !ok {
			break
		}
		best = rate
	}
	b.layer["http.max_rows_per_s"] = best * batchRows
}
