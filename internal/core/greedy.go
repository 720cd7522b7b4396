package core

import (
	"context"
	"slices"

	"twoview/internal/dataset"
	"twoview/internal/mdl"
)

// This file implements TRANSLATOR-GREEDY (§5.4): single-pass filtering in
// the style of KRIMP. Candidates are ordered descending first by length
// and then by support; each candidate is considered exactly once, the best
// of its three rule instantiations is added if its gain is strictly
// positive, and discarded candidates are never revisited.
//
// The pass is sequential by definition — every accepted rule changes the
// state all later candidates are scored against — so it parallelizes by
// speculation: candidates are scored against the current state in windows
// (one cover Score call each), the window is walked serially, and on the
// first accepted rule the not-yet-walked remainder of the window is
// discarded and re-scored against the updated state. Every decision is
// therefore made against exactly the state the serial pass would have
// used, and since most candidates are rejected (their state-dependent
// scores untouched by the rare accepts), most speculative work is kept.

// GreedyOptions configures MineGreedy.
type GreedyOptions struct {
	// MaxRules stops after this many rules; 0 means no limit.
	MaxRules int
	// BlockSize caps the speculative scoring window: the number of
	// candidates scored ahead per pool phase grows geometrically from 8
	// up to this bound. 0 means the default of 512. The value trades
	// re-scored waste on accept against scheduling granularity; results
	// are identical for any value (window boundaries depend only on the
	// accept positions, which are schedule-independent).
	BlockSize int
	// OnIteration observes each added rule and may stop the run early by
	// returning false (the partial table is returned with a nil error).
	OnIteration IterationFunc
	// ParallelOptions sets the worker-pool size for speculative
	// candidate scoring; results are identical for any value.
	ParallelOptions
}

// The speculation window grows geometrically from greedyMinBlock to
// GreedyOptions.BlockSize (default greedyMaxBlock): each accepted rule
// invalidates the rest of its window, and accepts cluster at the head of
// the length/support-descending candidate order, so the window restarts
// small after every accept and doubles across accept-free windows.
// Window boundaries depend only on the accept positions — which are
// schedule-independent — never on the worker count, so the scored
// values (and all decisions) are identical for any parallelism; the
// sizes only trade re-scored waste on accept against scheduling
// granularity.
const (
	greedyMinBlock = 8
	greedyMaxBlock = 512
)

// MineGreedy runs TRANSLATOR-GREEDY over the given candidates.
//
// Cancelling ctx aborts the pass at the next checkpoint (a window
// boundary or a task boundary inside the speculative scoring phase) and
// returns the table mined so far alongside ctx.Err(). With an
// uncancelled context the result is bit-identical for every worker
// count and the error is nil.
func MineGreedy(ctx context.Context, d *dataset.Dataset, cands []Candidate, opt GreedyOptions) (*Result, error) {
	elapsed := stopwatch()
	coder := mdl.NewCoder(d)
	c, err := OpenCover(ctx, d, coder, cands, nil, opt.ParallelOptions)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	res := &Result{}

	// Walk order: length desc, then support desc, then deterministic.
	// Candidates the quick bound rules out are never walked: they could
	// only be discarded. The order and window buffers come from the
	// session's scratch pool.
	sc := opt.getScratch()
	order := qubSurvivors(coder, cands, sc.idx[:0])
	slices.SortFunc(order, func(a, b int32) int {
		ca, cb := &cands[a], &cands[b]
		la, lb := len(ca.X)+len(ca.Y), len(cb.X)+len(cb.Y)
		if la != lb {
			return lb - la
		}
		if ca.Supp != cb.Supp {
			return cb.Supp - ca.Supp
		}
		ra := Rule{X: ca.X, Y: ca.Y}
		rb := Rule{X: cb.X, Y: cb.Y}
		return ra.Compare(rb)
	})

	maxBlock := opt.BlockSize
	if maxBlock <= 0 {
		maxBlock = greedyMaxBlock
	}
	minBlock := min(greedyMinBlock, maxBlock)
	if !c.Speculate() {
		// Windows of one: each candidate is scored exactly once, at its
		// turn.
		minBlock, maxBlock = 1, 1
	}
	gains := sc.gains[:0]
	pos, block := 0, minBlock
	stopped := false
	for pos < len(order) && !stopped {
		if err = ctx.Err(); err != nil {
			break
		}
		if opt.MaxRules > 0 && len(res.Iterations) >= opt.MaxRules {
			break
		}
		// Speculatively score the window against the current state.
		end := min(pos+block, len(order))
		if gains, err = c.Score(ctx, order[pos:end], gains[:0]); err != nil {
			break
		}
		// Serial walk: the first accepted rule invalidates the remaining
		// speculative scores (the state changed), so the walk restarts
		// right after it with a fresh, minimum-size window.
		next := end
		block = min(block*2, maxBlock)
		for j := pos; j < end; j++ {
			cd := &cands[order[j]]
			rs := instantiate(cd, gains[j-pos], coder.RuleLen(cd.X, cd.Y, false), coder.RuleLen(cd.X, cd.Y, true))
			best := rs[0]
			for _, r := range rs[1:] {
				if r.gain > best.gain {
					best = r
				}
			}
			if best.gain <= gainEpsilon {
				continue // discarded and never considered again
			}
			if err = c.Apply(best.rule); err != nil {
				break
			}
			if !res.record(c, best.rule, best.gain, opt.OnIteration) {
				stopped = true
			}
			next = j + 1
			block = minBlock
			break
		}
		if err != nil {
			break
		}
		pos = next
	}
	sc.idx, sc.gains = order, gains
	opt.putScratch(sc)
	res.finish(c, elapsed)
	return res, err
}
