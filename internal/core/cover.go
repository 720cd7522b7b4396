package core

import (
	"context"
	"errors"

	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
	"twoview/internal/pool"
)

// cover is the cover-state backend the three TRANSLATOR drivers run
// against. Each driver (MineExact, MineSelect, MineGreedy) is written
// once over this interface; where the cover state lives — one
// in-process State (stateCover below) or item-range partitions behind
// a supervisor (internal/shard) — is the backend's business. Every
// backend must return bit-identical floats for the same rule history,
// which is what keeps the mined tables independent of the backend.
//
// The methods are exported so that internal/shard, which core cannot
// import, can implement the interface; the interface itself is not.
type cover interface {
	// Score appends to dst, for each index in idx (into the run's
	// candidate list), the pair (gainF, gainB): Δ_{D|T} of the
	// candidate's X→Y and X←Y directions against the current cover,
	// without rule lengths.
	Score(ctx context.Context, idx []int32, dst [][2]float64) ([][2]float64, error)
	// Apply adds an accepted rule to the cover.
	Apply(r Rule) error
	// Stats returns the cover-derived fields of IterationStats (Score
	// through CorrLenR) for the rules applied so far.
	Stats() IterationStats
	// BestRule runs EXACT's search for the rule of maximal gain against
	// the current cover; ok is false when no rule occurs in the data.
	// Only covers opened with ExactOptions support it.
	BestRule(ctx context.Context) (r Rule, gain float64, ok bool, err error)
	// State returns the final State of the applied rules.
	State() *State
	// Speculate reports whether GREEDY should score windows of
	// candidates ahead of its walk. False means scoring one candidate
	// at its turn is cheapest (a serial in-process cover).
	Speculate() bool
	// Close releases the backend's resources.
	Close()
}

// newShardCover builds the sharded cover behind ParallelOptions.Shards.
// The implementation lives in internal/shard, which core cannot import
// (shard builds on core), so it is injected: internal/shard registers
// it in an init function, and linking it in — the twoview facade and
// the CLIs blank-import it — arms the knob. It is written once, before
// any mining call, and read by OpenCover.
var newShardCover func(ctx context.Context, d *dataset.Dataset, cands []Candidate, exact *ExactOptions, par ParallelOptions) cover

// RegisterShardCover installs the sharded cover constructor. It is
// called from an init function; calling it later than that is a race
// with mining. The type parameter lets internal/shard pass its
// constructor as is, checked at compile time against the unexported
// interface.
func RegisterShardCover[C cover](f func(ctx context.Context, d *dataset.Dataset, cands []Candidate, exact *ExactOptions, par ParallelOptions) C) {
	newShardCover = func(ctx context.Context, d *dataset.Dataset, cands []Candidate, exact *ExactOptions, par ParallelOptions) cover {
		return f(ctx, d, cands, exact, par)
	}
}

// errNoShardCover reports a sharded run without a linked engine.
var errNoShardCover = errors.New(
	"core: ParallelOptions.Shards > 0 but no sharded engine is linked in (import the twoview facade or twoview/internal/shard)")

// OpenCover opens the cover backend a mining run with these options
// runs on: the in-process State, or the sharded cover when Shards > 0
// or ShardAddrs is set (a non-empty address list implies
// Shards = len(ShardAddrs) when Shards is 0). exact is non-nil for
// EXACT runs, which need BestRule. The drivers call it; it is exported
// for the cross-backend conformance test in internal/shard. Close the
// cover when done.
func OpenCover(ctx context.Context, d *dataset.Dataset, coder *mdl.Coder, cands []Candidate, exact *ExactOptions, par ParallelOptions) (cover, error) {
	if par.Shards <= 0 && len(par.ShardAddrs) == 0 {
		return newStateCover(d, coder, cands, exact, par), nil
	}
	if newShardCover == nil {
		return nil, errNoShardCover
	}
	return newShardCover(ctx, d, cands, exact, par), nil
}

// stateCover is the monolithic cover: one State, with candidate scoring
// and EXACT's branch-and-bound on the internal/pool worker runtime.
type stateCover struct {
	s       *State
	cands   []Candidate
	rt      *pool.Runtime
	workers int
	search  *exactRun // EXACT runs only
}

func newStateCover(d *dataset.Dataset, coder *mdl.Coder, cands []Candidate, exact *ExactOptions, par ParallelOptions) *stateCover {
	sc := &stateCover{
		s:       NewState(d, coder),
		cands:   cands,
		rt:      par.runtime(),
		workers: par.workerCount(len(cands)),
	}
	if exact != nil {
		// One worker pool serves every iteration's best-rule search:
		// the per-worker states (and their per-depth DFS scratch)
		// persist across iterations.
		sc.search = newExactRun(sc.s, *exact)
	}
	return sc
}

// A parallel scoring phase splits a batch into up to scoreTasks chunks
// of minChunk to scoreChunk candidates; a batch of at most minChunk
// candidates is one chunk, scored inline, since a phase handoff would
// cost more than it saves. The chunking depends on the batch size only,
// never on the worker count; and since every candidate's gains depend
// only on the state and the chunks' outputs are concatenated in index
// order, it never changes a value.
const (
	minChunk   = 32
	scoreChunk = 256
	scoreTasks = 8
)

// Score reads the state only, so chunks of candidates are scored
// concurrently on the pool.
func (sc *stateCover) Score(ctx context.Context, idx []int32, dst [][2]float64) ([][2]float64, error) {
	if sc.workers <= 1 || len(idx) <= minChunk {
		// The serial pass probes ctx at chunk granularity, like the
		// parallel path at its task boundaries.
		for lo := 0; lo < len(idx); lo += scoreChunk {
			if err := ctx.Err(); err != nil {
				return dst, err
			}
			dst = sc.scoreRange(idx[lo:min(lo+scoreChunk, len(idx))], dst)
		}
		return dst, nil
	}
	chunk := min(scoreChunk, max(minChunk, len(idx)/scoreTasks))
	return pool.MapChunksIntoCtxOn(sc.rt, ctx, dst, sc.workers, len(idx), chunk, func(lo, hi int) [][2]float64 {
		return sc.scoreRange(idx[lo:hi], make([][2]float64, 0, hi-lo))
	})
}

func (sc *stateCover) scoreRange(idx []int32, dst [][2]float64) [][2]float64 {
	for _, ci := range idx {
		c := &sc.cands[ci]
		dst = append(dst, [2]float64{
			sc.s.gainDir(dataset.Left, c.TidX, c.Y),
			sc.s.gainDir(dataset.Right, c.TidY, c.X),
		})
	}
	return dst
}

func (sc *stateCover) Apply(r Rule) error {
	sc.s.AddRule(r)
	return nil
}

func (sc *stateCover) Stats() IterationStats {
	s := sc.s
	return IterationStats{
		Score:      s.Score(),
		UncoveredL: s.UncoveredOnes(dataset.Left),
		UncoveredR: s.UncoveredOnes(dataset.Right),
		ErrorsL:    s.ErrorOnes(dataset.Left),
		ErrorsR:    s.ErrorOnes(dataset.Right),
		TableLen:   s.TableLen(),
		CorrLenL:   s.CorrLen(dataset.Left),
		CorrLenR:   s.CorrLen(dataset.Right),
	}
}

func (sc *stateCover) BestRule(ctx context.Context) (Rule, float64, bool, error) {
	return sc.search.bestRule(ctx)
}

func (sc *stateCover) State() *State { return sc.s }

// Speculate: scoring ahead only pays when there are workers to keep
// busy; alone, scoring each candidate once at its turn strictly
// dominates scoring ahead and discarding on accept.
func (sc *stateCover) Speculate() bool { return sc.workers > 1 }

func (sc *stateCover) Close() {}

// qub is the quick upper bound of §5.2 (State.Qub). It reads only the
// coder, never the cover, so the set of candidates that can ever score
// a positive gain is fixed for a whole run.
func qub(coder *mdl.Coder, x, y itemset.Itemset, suppX, suppY int) float64 {
	return float64(suppX)*coder.SetLen(dataset.Right, y) +
		float64(suppY)*coder.SetLen(dataset.Left, x) -
		coder.RuleLen(x, y, true)
}

// qubSurvivors appends to dst the indices of the candidates whose quick
// bound exceeds gainEpsilon, in index order: SELECT and GREEDY filter
// once per run and never score the others.
func qubSurvivors(coder *mdl.Coder, cands []Candidate, dst []int32) []int32 {
	for ci := range cands {
		c := &cands[ci]
		if qub(coder, c.X, c.Y, c.TidX.Count(), c.TidY.Count()) > gainEpsilon {
			dst = append(dst, int32(ci))
		}
	}
	return dst
}

// instantiate composes a candidate's three rules from its directional
// gains: X→Y and X←Y pay the unidirectional rule length, X↔Y the
// bidirectional one. lenUni and lenBi are coder.RuleLen(X, Y, false)
// and coder.RuleLen(X, Y, true).
func instantiate(c *Candidate, g [2]float64, lenUni, lenBi float64) [3]scoredRule {
	return [3]scoredRule{
		{Rule{X: c.X, Dir: Forward, Y: c.Y}, g[0] - lenUni},
		{Rule{X: c.X, Dir: Backward, Y: c.Y}, g[1] - lenUni},
		{Rule{X: c.X, Dir: Both, Y: c.Y}, g[0] + g[1] - lenBi},
	}
}

// scoredRule is one instantiated rule with its gain Δ_{D,T}.
type scoredRule struct {
	rule Rule
	gain float64
}

// before is SELECT's total order on scored rules: gain descending, then
// Rule.Compare.
func (a scoredRule) before(b scoredRule) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.rule.Compare(b.rule) < 0
}
