package main

import (
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts. On a shared 2-vCPU VM the same fixed
// computation takes up to twice as long in some seconds as in others,
// because other tenants load the physical cores under the vCPUs. Neither
// wall time nor CPU time hides that: a pass of a few seconds moved by
// 20-40% from run to run with the code unchanged. A speedMeter therefore
// samples a small fixed probe kernel every meterEvery while the program
// runs, timing each sample by its thread's CPU time, and the set-up and
// table times are reported at the probe's reference speed: the measured
// wall time multiplied by the host's mean speed over the same interval. The
// probe is the benchmark's own code, so a change to the program moves the
// reported times and leaves the scale alone.
const (
	meterEvery = 10 * time.Millisecond
	// meterRefUs is the probe kernel's thread CPU time, in µs, at the
	// reference speed: the fast end (5th percentile) of its samples on the
	// 2-vCPU Xeon VM the benchmark was tuned on.
	meterRefUs = 15.0
)

// meterSets is the probe kernel's fixed input: pseudo-random bitsets of
// a dataset column's size, so the kernel does what the miners' cover
// counting does (AND and popcount over words in cache).
var meterSets = func() [][]uint64 {
	rng := rand.New(rand.NewSource(1))
	sets := make([][]uint64, 24)
	for i := range sets {
		sets[i] = make([]uint64, 48)
		for j := range sets[i] {
			sets[i][j] = rng.Uint64() & rng.Uint64()
		}
	}
	return sets
}()

var meterSink uint64

// meterKernel counts the common bits of every pair of meterSets.
func meterKernel() {
	var s uint64
	for i, a := range meterSets {
		for _, b := range meterSets[i+1:] {
			for k := range a {
				s += uint64(bits.OnesCount64(a[k] & b[k]))
			}
		}
	}
	meterSink += s
}

// threadCPU is the calling OS thread's CPU time. It leaves out the time
// the thread waits to run, so a busy worker pool does not inflate a
// sample.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// speedMeter samples the probe kernel in the background.
type speedMeter struct {
	mu   sync.Mutex
	at   []time.Time // when each sample started
	us   []float64   // its thread CPU time in µs
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

func startSpeedMeter() *speedMeter {
	m := &speedMeter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		// The two thread CPU clock reads must come from one thread.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(meterEvery)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
			at := time.Now()
			c := threadCPU()
			meterKernel()
			us := float64((threadCPU() - c).Nanoseconds()) / 1e3
			m.mu.Lock()
			m.at = append(m.at, at)
			m.us = append(m.us, us)
			m.mu.Unlock()
		}
	}()
	return m
}

// close stops the sampling and waits for it to end. Later calls do
// nothing.
func (m *speedMeter) close() {
	m.once.Do(func() { close(m.stop) })
	<-m.done
}

// speed is the host's mean speed relative to the reference between from
// and to: the mean of meterRefUs/sample over the samples taken in that
// interval, or over all samples when the interval holds none. Progress
// at a speed s for dt is s·dt reference seconds, so the mean of the
// per-sample speeds, not of the sample times, scales a wall time.
func (m *speedMeter) speed(from, to time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	sum, n := 0.0, 0
	for i, at := range m.at {
		if !at.Before(from) && !at.After(to) && m.us[i] > 0 {
			sum += meterRefUs / m.us[i]
			n++
		}
	}
	if n == 0 {
		for _, us := range m.us {
			if us > 0 {
				sum += meterRefUs / us
				n++
			}
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// scaled converts wall seconds measured between from and to into
// seconds at the reference speed.
func (m *speedMeter) scaled(secs float64, from, to time.Time) float64 {
	return secs * m.speed(from, to)
}

// summary is the sample count and the 5th percentile and median sample
// time in µs, for the run's log.
func (m *speedMeter) summary() (n int, p5, p50 float64) {
	m.mu.Lock()
	s := append([]float64(nil), m.us...)
	m.mu.Unlock()
	if len(s) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(s)
	return len(s), s[len(s)/20], s[len(s)/2]
}
