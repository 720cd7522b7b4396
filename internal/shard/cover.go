package shard

import (
	"context"

	"twoview/internal/core"
	"twoview/internal/dataset"
)

// cover is the sharded cover backend under core's three drivers: SCORE
// rounds score candidates, APPLY rounds apply accepted rules, and the
// coordinator mirrors (core.CoverTotals, and core.TubMirror for EXACT)
// answer for the scalars the monolithic State would hold. It implements
// core's cover interface.
type cover struct {
	r      *run
	totals *core.CoverTotals
	table  core.Table
	// tubm and ex are set for EXACT runs only: the tub mirror orders
	// the pair enumeration, which ex runs.
	tubm *core.TubMirror
	ex   *exactSearch
}

// core cannot import this package (shard builds on core), so the
// wiring is inverted: init registers the cover constructor, and
// anything that links internal/shard in — the twoview facade, the CLIs
// — arms core.ParallelOptions.Shards.
func init() { core.RegisterShardCover(openCover) }

// openCover is the registered constructor: the miner-facing knobs
// mapped to a shard Config.
func openCover(ctx context.Context, d *dataset.Dataset, cands []core.Candidate, exact *core.ExactOptions, par core.ParallelOptions) *cover {
	return newCover(ctx, d, cands, exact, configFrom(par))
}

// newCover starts a sharded run over d and cands and returns its cover.
// exact is non-nil for EXACT runs.
func newCover(ctx context.Context, d *dataset.Dataset, cands []core.Candidate, exact *core.ExactOptions, cfg Config) *cover {
	r := newRun(ctx, d, cands, cfg)
	c := &cover{r: r, totals: core.NewCoverTotals(d, r.coder)}
	if exact != nil {
		c.tubm = core.NewTubMirror(d, r.coder)
		c.ex = newExactSearch(r, exact.DisableQub, c.tubm)
	}
	return c
}

// Score runs one SCORE round over the candidates and folds each entry's
// counts into its directional gains. The round observes the run's
// context, which is ctx.
func (c *cover) Score(_ context.Context, idx []int32, dst [][2]float64) ([][2]float64, error) {
	if len(idx) == 0 {
		return dst, nil
	}
	reps, err := c.r.sv.scoreCands(idx)
	if err != nil {
		return dst, err
	}
	for i := range idx {
		dst = append(dst, c.r.fold(reps, i))
	}
	return dst, nil
}

// Apply runs an APPLY round for an accepted rule and folds the
// acknowledgements into the coordinator mirrors: the scalar totals
// always, and for EXACT the per-item covered tidsets into the tub
// mirror, in the monolith's application order (consequent order within
// a direction, X→Y direction before X←Y).
func (c *cover) Apply(rule core.Rule) error {
	r := c.r
	reps, err := r.sv.apply(rule, c.tubm != nil)
	if err != nil {
		return err
	}
	for p, rep := range reps {
		r.fwdParts[p] = rep.counts[0].Fwd
		r.backParts[p] = rep.counts[0].Back
	}
	c.totals.Apply(rule, r.fwdParts, r.backParts)
	if c.tubm != nil {
		for _, rep := range reps {
			for i, ic := range rep.counts[0].Fwd {
				c.tubm.ApplyItem(dataset.Right, int(ic.Item), rep.covers.fwd[i])
			}
		}
		for _, rep := range reps {
			for i, ic := range rep.counts[0].Back {
				c.tubm.ApplyItem(dataset.Left, int(ic.Item), rep.covers.back[i])
			}
		}
	}
	c.table.Rules = append(c.table.Rules, rule)
	return nil
}

// Stats reads the coordinator mirrors: the same fields, with the same
// bits, as the monolithic State reports.
func (c *cover) Stats() core.IterationStats {
	return core.IterationStats{
		Score:      c.totals.Score(&c.table),
		UncoveredL: c.totals.UOnes[dataset.Left],
		UncoveredR: c.totals.UOnes[dataset.Right],
		ErrorsL:    c.totals.EOnes[dataset.Left],
		ErrorsR:    c.totals.EOnes[dataset.Right],
		TableLen:   c.table.Len(c.r.coder),
		CorrLenL:   c.totals.CorrLen[dataset.Left],
		CorrLenR:   c.totals.CorrLen[dataset.Right],
	}
}

func (c *cover) BestRule(ctx context.Context) (core.Rule, float64, bool, error) {
	return c.ex.bestRule(ctx)
}

// State replays the accepted rules through a monolithic State, for
// Result.State's reports.
func (c *cover) State() *core.State {
	return core.EvaluateTable(c.r.d, c.r.coder, &c.table)
}

// Speculate: every Score call is a round trip to the shards, so GREEDY
// always scores windows.
func (c *cover) Speculate() bool { return true }

func (c *cover) Close() { c.r.close() }
