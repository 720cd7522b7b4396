package core

import (
	"context"
	"sort"

	"twoview/internal/dataset"
	"twoview/internal/mdl"
)

// This file implements TRANSLATOR-SELECT(k) (Algorithm 3): in each round,
// score every rule constructible from the candidate set (three directions
// per candidate itemset), take the k rules with the highest gain, and add
// them one by one, discarding rules whose itemsets overlap the items used
// by a rule already added in the same round. Rounds repeat until no rule
// improves compression.
//
// The driver runs over a cover backend (see cover.go): each round is one
// Score call over the candidates the state-free quick bound admits, and
// every accepted rule one Apply.
//
// Line 8's re-check of a selected rule against the current table needs
// no second evaluation: a rule is only added if its X and Y are disjoint
// from every itemset already used in this round, and rules added earlier
// in the round change the cover only at items of their own X and Y. A
// rule that passes the overlap filter therefore reads exactly the
// round-start state at its turn, and its re-check gain (0+a)+b−c equals
// the scored a+b−c bit for bit (Rule.Len is Coder.RuleLen).

// SelectOptions configures MineSelect.
type SelectOptions struct {
	// K is the number of rules selected per round; the paper evaluates
	// k=1 and k=25. Values < 1 mean 1.
	K int
	// MaxRules stops after this many rules in total; 0 means no limit.
	MaxRules int
	// OnIteration observes each added rule and may stop the run early by
	// returning false (the partial table is returned with a nil error).
	OnIteration IterationFunc
	// ParallelOptions sets the worker-pool size for per-round scoring;
	// results are identical for any value.
	ParallelOptions
}

// MineSelect runs TRANSLATOR-SELECT(k) over the given candidates.
//
// Cancelling ctx aborts the run at the next checkpoint (a round
// boundary or a task boundary inside the scoring phase) and returns the
// table mined so far alongside ctx.Err(). With an uncancelled context
// the result is bit-identical for every worker count and the error is
// nil.
func MineSelect(ctx context.Context, d *dataset.Dataset, cands []Candidate, opt SelectOptions) (*Result, error) {
	elapsed := stopwatch()
	if opt.K < 1 {
		opt.K = 1
	}
	coder := mdl.NewCoder(d)
	c, err := OpenCover(ctx, d, coder, cands, nil, opt.ParallelOptions)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	res := &Result{}

	// The round buffers come from the session's scratch pool, so rounds
	// (and repeated runs) reach a steady state where they allocate
	// nothing: the survivors and their rule lengths, the per-round
	// gains and scored rules, and the per-round used-item masks.
	sc := opt.getScratch()
	survivors := qubSurvivors(coder, cands, sc.idx[:0])
	lens := sc.lens[:0]
	for _, ci := range survivors {
		cd := &cands[ci]
		lens = append(lens, [2]float64{coder.RuleLen(cd.X, cd.Y, false), coder.RuleLen(cd.X, cd.Y, true)})
	}
	gains, scored := sc.gains[:0], sc.scored[:0]
	usedL, usedR := &sc.usedL, &sc.usedR
	stopped := false
	for !stopped {
		if err = ctx.Err(); err != nil {
			break
		}
		if opt.MaxRules > 0 && len(res.Iterations) >= opt.MaxRules {
			break
		}
		// Line 3: select the k rules with the highest Δ_{D,T} among all
		// rules constructible from the candidates.
		if gains, err = c.Score(ctx, survivors, gains[:0]); err != nil {
			break
		}
		scored = scored[:0]
		for i, ci := range survivors {
			for _, sr := range instantiate(&cands[ci], gains[i], lens[i][0], lens[i][1]) {
				if sr.gain > gainEpsilon {
					scored = append(scored, sr)
				}
			}
		}
		if len(scored) == 0 {
			break
		}
		sort.Slice(scored, func(a, b int) bool {
			if scored[a].gain != scored[b].gain {
				return scored[a].gain > scored[b].gain
			}
			return scored[a].rule.Compare(scored[b].rule) < 0
		})
		if len(scored) > opt.K {
			scored = scored[:opt.K]
		}

		// Lines 5-10: add the selected rules, skipping rules whose
		// itemsets overlap items already used in this round (their gain
		// has changed and they may no longer belong to the top-k). The
		// scored gain doubles as the Line-8 re-check (see the file
		// comment). The used items are tracked as per-view bitmasks,
		// reset (not reallocated) each round.
		usedL.Reset(d.Items(dataset.Left))
		usedR.Reset(d.Items(dataset.Right))
		added := false
		for _, sr := range scored {
			if opt.MaxRules > 0 && len(res.Iterations) >= opt.MaxRules {
				break
			}
			if anyIn(sr.rule.X, usedL) || anyIn(sr.rule.Y, usedR) {
				continue
			}
			if err = c.Apply(sr.rule); err != nil {
				break
			}
			if !res.record(c, sr.rule, sr.gain, opt.OnIteration) {
				stopped = true
			}
			for _, it := range sr.rule.X {
				usedL.Add(it)
			}
			for _, it := range sr.rule.Y {
				usedR.Add(it)
			}
			added = true
			if stopped {
				break // OnIteration asked for an early stop
			}
		}
		if err != nil || !added {
			break
		}
	}
	// Hand the grown capacities back to the pool.
	sc.idx, sc.lens, sc.gains, sc.scored = survivors, lens, gains, scored
	opt.putScratch(sc)
	res.finish(c, elapsed)
	return res, err
}
