package core

import (
	"context"

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
// The driver runs over a cover backend (see cover.go): every accepted
// rule is one Apply, and the gains come from Score calls over the
// candidates the state-free quick bound admits.
//
// Only the first round scores every survivor. The driver caches each
// survivor's (gainF, gainB) across rounds and re-scores only the dirty
// ones, which is exact: gainF = gainDir(Left, TidX, Y) reads nothing of
// the cover but the right-view ucol/ecol columns of the items of Y, and
// gainB = gainDir(Right, TidY, X) only the left-view columns of X;
// Apply changes only the columns of the accepted rule's consequents (Y
// in the right view when the rule applies from the left, X in the left
// view when it applies from the right). A survivor whose Y misses every
// right-view consequent applied since its gains were computed, and
// whose X misses every left-view one, therefore reads exactly the
// columns it read then, and a fresh Score would return its cached gains
// bit for bit. The per-view dirty masks collect one round's consequents;
// the next round re-scores the survivors that meet them and writes the
// fresh gains back in place.
//
// The k best rules are kept in a bounded insertion list under the same
// total order a full sort would use (gain descending, then
// Rule.Compare), so the selection equals the first k of the sorted
// rules.
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
	// nothing: the survivors and their rule lengths, the cached gains,
	// the re-scored batch, the selected rules and the per-round item
	// masks.
	sc := opt.getScratch()
	survivors := qubSurvivors(coder, cands, sc.idx[:0])
	lens := sc.lens[:0]
	for _, ci := range survivors {
		cd := &cands[ci]
		lens = append(lens, [2]float64{coder.RuleLen(cd.X, cd.Y, false), coder.RuleLen(cd.X, cd.Y, true)})
	}
	gains, fresh := sc.gains[:0], sc.fresh[:0]
	batch, at := sc.batch[:0], sc.at[:0]
	top := sc.top[:0]
	usedL, usedR := &sc.usedL, &sc.usedR
	dirtyL, dirtyR := &sc.dirtyL, &sc.dirtyR
	stopped := false
	for round := 0; !stopped; round++ {
		if err = ctx.Err(); err != nil {
			break
		}
		if opt.MaxRules > 0 && len(res.Iterations) >= opt.MaxRules {
			break
		}
		// Line 3: select the k rules with the highest Δ_{D,T} among all
		// rules constructible from the candidates. The first round
		// scores every survivor, later ones the dirty survivors only
		// (see the file comment).
		if round == 0 {
			gains, err = c.Score(ctx, survivors, gains)
		} else {
			batch, at = batch[:0], at[:0]
			for i, ci := range survivors {
				cd := &cands[ci]
				if anyIn(cd.Y, dirtyR) || anyIn(cd.X, dirtyL) {
					batch = append(batch, ci)
					at = append(at, int32(i))
				}
			}
			if fresh, err = c.Score(ctx, batch, fresh[:0]); err == nil {
				for j, i := range at {
					gains[i] = fresh[j]
				}
			}
		}
		if err != nil {
			break
		}
		top = top[:0]
		for i, ci := range survivors {
			for _, sr := range instantiate(&cands[ci], gains[i], lens[i][0], lens[i][1]) {
				if sr.gain > gainEpsilon {
					top = pushTop(top, sr, opt.K)
				}
			}
		}
		if len(top) == 0 {
			break
		}

		// Lines 5-10: add the selected rules, skipping rules whose
		// itemsets overlap items already used in this round (their gain
		// has changed and they may no longer belong to the top-k). The
		// scored gain doubles as the Line-8 re-check (see the file
		// comment). The used items and the consequents the next round
		// must re-score are tracked as per-view bitmasks, reset (not
		// reallocated) each round.
		usedL.Reset(d.Items(dataset.Left))
		usedR.Reset(d.Items(dataset.Right))
		dirtyL.Reset(d.Items(dataset.Left))
		dirtyR.Reset(d.Items(dataset.Right))
		added := false
		for _, sr := range top {
			if opt.MaxRules > 0 && len(res.Iterations) >= opt.MaxRules {
				break
			}
			r := sr.rule
			if anyIn(r.X, usedL) || anyIn(r.Y, usedR) {
				continue
			}
			if err = c.Apply(r); err != nil {
				break
			}
			if !res.record(c, r, sr.gain, opt.OnIteration) {
				stopped = true
			}
			for _, it := range r.X {
				usedL.Add(it)
			}
			for _, it := range r.Y {
				usedR.Add(it)
			}
			if r.AppliesTo(dataset.Left) {
				for _, it := range r.Y {
					dirtyR.Add(it)
				}
			}
			if r.AppliesTo(dataset.Right) {
				for _, it := range r.X {
					dirtyL.Add(it)
				}
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
	sc.idx, sc.lens, sc.gains, sc.fresh = survivors, lens, gains, fresh
	sc.batch, sc.at, sc.top = batch, at, top
	opt.putScratch(sc)
	res.finish(c, elapsed)
	return res, err
}

// pushTop inserts sr into top, which holds at most k rules sorted by
// gain descending, then Rule.Compare; when top is full, the last rule
// falls off, or sr is dropped when it would be last.
func pushTop(top []scoredRule, sr scoredRule, k int) []scoredRule {
	n := len(top)
	if n == k {
		if !sr.before(top[n-1]) {
			return top
		}
		n--
		top = top[:n]
	}
	i := n
	for i > 0 && sr.before(top[i-1]) {
		i--
	}
	top = append(top, scoredRule{})
	copy(top[i+1:], top[i:n])
	top[i] = sr
	return top
}
