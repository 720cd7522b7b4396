package core

import "time"

// IterationStats records one step of table construction. The series over
// all iterations regenerates Fig. 2 of the paper (numbers of uncovered
// and erroneous items, and the evolution of the encoded lengths).
type IterationStats struct {
	Iteration  int     // 1-based
	Rule       Rule    // the rule added in this iteration
	Gain       float64 // Δ_{D,T}(rule) at the time of addition
	Score      float64 // L(D_L↔R, T) after the addition
	UncoveredL int     // |U_L| after the addition
	UncoveredR int     // |U_R|
	ErrorsL    int     // |E_L|
	ErrorsR    int     // |E_R|
	TableLen   float64 // L(T)
	CorrLenL   float64 // L(D_L←R | T) = L(C_L | T)
	CorrLenR   float64 // L(D_L→R | T) = L(C_R | T)
}

// IterationFunc is the OnIteration progress hook shared by all three
// miners: it observes each added rule and steers the run — returning
// false stops mining cleanly after the current iteration (the partial
// table is returned with a nil error). A hook that only observes returns
// true. It is invoked between search phases, never concurrently.
type IterationFunc func(IterationStats) bool

// Result is the output of a TRANSLATOR algorithm.
type Result struct {
	Table      *Table
	State      *State           // final state; Score, L%, |C|% etc.
	Iterations []IterationStats // one entry per added rule
	Runtime    time.Duration
}

// record captures the cover's state after adding rule r and appends it
// to the result, forwarding to the progress callback if any. It reports
// whether mining should continue: false as soon as the OnIteration hook
// asks for an early stop.
func (res *Result) record(c cover, r Rule, gain float64, onIter IterationFunc) bool {
	it := c.Stats()
	it.Iteration = len(res.Iterations) + 1
	it.Rule, it.Gain = r, gain
	res.Iterations = append(res.Iterations, it)
	return onIter == nil || onIter(it)
}

// finish fills in the final state, the table and the runtime.
func (res *Result) finish(c cover, elapsed func() time.Duration) {
	res.State = c.State()
	res.Table = res.State.Table()
	res.Runtime = elapsed()
}

// gainEpsilon guards against accepting rules whose gain is positive
// only through floating-point noise.
const gainEpsilon = 1e-9

// stopwatch starts timing and returns a function reporting the elapsed
// wall time. It is the single sanctioned wall-clock read in this
// package: the duration lands in Result.Runtime, which is observational
// metadata and never feeds back into a mining decision, so confining
// time.Now/Since here keeps the nowallclock invariant auditable at one
// site.
func stopwatch() func() time.Duration {
	start := time.Now() //lint:wallclock-ok observational: feeds Result.Runtime only, never a mining decision
	return func() time.Duration {
		return time.Since(start) //lint:wallclock-ok observational: feeds Result.Runtime only, never a mining decision
	}
}
