package shard

import (
	"context"
	"slices"
	"sort"

	"twoview/internal/bitset"
	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
)

// This file is the sharded cover's EXACT best-rule search
// (cover.BestRule). The enumeration — the ECLAT-style DFS over
// occurring pairs, in the monolith's exact item order — runs on the
// coordinator, which owns every float the search ranks by; the shards
// evaluate batches of enumerated pairs (integer counts only). Three
// deliberate differences from the monolith, none observable in the
// result:
//
//   - No rub pruning and no seed phase: both only shrink the set of
//     evaluated pairs, and the pruning threshold is always an achieved
//     gain ≤ the final best gain, so every pair they skip loses
//     strictly (qub/rub bound the gain from above, and the skip test
//     is strict <). Evaluating a superset changes no champion under
//     the (gain, Rule.Compare) total order. rub would need the tub
//     sums fused into every tidset intersection — all-shard traffic
//     per DFS node — for bounds that §6.1 shows decay after the first
//     iterations anyway; qub needs only the path lengths and support
//     counts the coordinator already has, so it is kept.
//   - Pairs are evaluated in batches (one SCORE round per batch)
//     instead of immediately, so the incumbent the qub filter sees
//     lags the monolith's by at most a batch — a larger evaluated
//     superset, same champion.
//   - The item potentials that order the search come from the
//     coordinator's TubMirror, maintained from the covered tidsets the
//     apply acknowledgements carry — the identical update history, so
//     the identical float bits — instead of from a live State.
type exactSearch struct {
	r          *run
	disableQub bool
	tubm       *core.TubMirror

	// ctx of the current bestRule call, probed inside the DFS at the
	// monolith's granularity.
	ctx   context.Context
	ticks uint

	// items is rebuilt (re-sorted by potential) every iteration; the
	// slice is reused.
	items []exItem
	// levels is the per-depth DFS scratch, grown on first descent.
	levels []exLevel
	// batch accumulates enumerated pairs between SCORE rounds; keep is
	// the flush-local surviving-index scratch and pairs the wire view.
	batch []pairEval
	keep  []int
	pairs []pairMsg

	full, fullY, fullXY *bitset.Set

	// The champion under the (gain, Rule.Compare) total order. Its
	// itemsets alias the batch entries' owned clones.
	best     core.Rule
	bestGain float64
	found    bool
}

// exItem is the monolith's joinedItem: one item of the joined alphabet.
type exItem struct {
	view dataset.View
	id   int
	col  *bitset.Set
	len  float64
	pot  float64
}

type exLevel struct {
	xy, side *bitset.Set
	set      itemset.Itemset
}

// pairEval is one enumerated pair awaiting evaluation: owned itemset
// clones, the support counts for qub, and the DFS-path-accumulated
// lengths (whose float addition order the monolith's champion gains
// depend on — which is why the coordinator, which replicates the DFS
// paths, must accumulate them rather than recompute Σ ItemLen in any
// other order).
type pairEval struct {
	x, y         itemset.Itemset
	suppX, suppY int
	lenX, lenY   float64
}

// exactBatch is the SCORE-round batch size: enumeration cost per pair
// is tiny next to a round's dispatch-gather overhead, so batches keep
// the shards' phases meaty. The value affects only how far the qub
// incumbent lags, never the result.
const exactBatch = 256

// exactCtxProbeMask mirrors the monolith's in-branch cancellation probe
// granularity: one ctx.Err() per 1024 extensions.
const exactCtxProbeMask = 1<<10 - 1

func newExactSearch(r *run, disableQub bool, tubm *core.TubMirror) *exactSearch {
	n := r.d.Size()
	es := &exactSearch{r: r, disableQub: disableQub, tubm: tubm}
	es.full = bitset.New(n)
	es.full.Fill()
	es.fullY, es.fullXY = es.full.Clone(), es.full.Clone()
	return es
}

// bestRule finds argmax_r Δ_{D,T}(r) with the monolith's deterministic
// tie-break: enumerate in the potential-sorted item order, evaluate
// through SCORE rounds, keep the champion.
func (es *exactSearch) bestRule(ctx context.Context) (core.Rule, float64, bool, error) {
	d := es.r.d
	es.ctx = ctx
	items := es.items[:0]
	for _, v := range []dataset.View{dataset.Left, dataset.Right} {
		cols := d.Columns(v)
		for i := 0; i < d.Items(v); i++ {
			if cols[i].Empty() {
				continue
			}
			items = append(items, exItem{
				view: v,
				id:   i,
				col:  cols[i],
				len:  es.r.coder.ItemLen(v, i),
				pot:  es.tubm.SumTub(v.Opposite(), cols[i]),
			})
		}
	}
	slices.SortFunc(items, func(a, b exItem) int {
		switch {
		case a.pot > b.pot:
			return -1
		case a.pot < b.pot:
			return 1
		case a.view != b.view:
			return int(a.view) - int(b.view)
		default:
			return a.id - b.id
		}
	})
	es.items = items
	es.best, es.bestGain, es.found = core.Rule{}, 0, false

	for k := range items {
		if err := es.extend(nil, nil, es.full, es.fullY, es.fullXY, k, 0, 0, 0); err != nil {
			return core.Rule{}, 0, false, err
		}
	}
	if err := es.flush(); err != nil {
		return core.Rule{}, 0, false, err
	}
	if !es.found {
		return core.Rule{}, 0, false, nil
	}
	return core.Rule{X: es.best.X.Clone(), Dir: es.best.Dir, Y: es.best.Y.Clone()}, es.bestGain, true, nil
}

func (es *exactSearch) bufs(depth int) *exLevel {
	for len(es.levels) <= depth {
		n := es.r.d.Size()
		es.levels = append(es.levels, exLevel{xy: bitset.New(n), side: bitset.New(n)})
	}
	return &es.levels[depth]
}

// extend grows the pair (x, y) by the item at position k, enqueues the
// result for evaluation when both sides are non-empty, and recurses
// into positions > k — the monolith's extend minus the rub arithmetic.
func (es *exactSearch) extend(x, y itemset.Itemset, tidX, tidY, tidXY *bitset.Set, k, depth int, lenX, lenY float64) error {
	if es.ticks++; es.ticks&exactCtxProbeMask == 0 {
		if err := es.ctx.Err(); err != nil {
			return err
		}
	}
	it := es.items[k]
	bufs := es.bufs(depth)
	childXY := bufs.xy
	if bitset.IntersectInto(childXY, tidXY, it.col) == 0 {
		return nil // X∪Y must occur in the data (§5.2)
	}
	bufs.set = insertItemInto(bufs.set, x, y, it)
	var cx, cy itemset.Itemset
	var ctX, ctY *bitset.Set
	clenX, clenY := lenX, lenY
	if it.view == dataset.Left {
		cx, cy = bufs.set, y
		ctX = bufs.side
		bitset.IntersectInto(ctX, tidX, it.col)
		ctY = tidY
		clenX += it.len
	} else {
		cx, cy = x, bufs.set
		ctX = tidX
		ctY = bufs.side
		bitset.IntersectInto(ctY, tidY, it.col)
		clenY += it.len
	}
	if len(cx) > 0 && len(cy) > 0 {
		if err := es.enqueue(cx, cy, ctX, ctY, clenX, clenY); err != nil {
			return err
		}
	}
	for k2 := k + 1; k2 < len(es.items); k2++ {
		if err := es.extend(cx, cy, ctX, ctY, childXY, k2, depth+1, clenX, clenY); err != nil {
			return err
		}
	}
	return nil
}

// insertItemInto writes (x or y) ∪ {it.id} into dst, reusing capacity —
// the monolith's insertItemInto.
func insertItemInto(dst itemset.Itemset, x, y itemset.Itemset, it exItem) itemset.Itemset {
	s := x
	if it.view == dataset.Right {
		s = y
	}
	i := sort.SearchInts(s, it.id)
	dst = append(dst[:0], s[:i]...)
	dst = append(dst, it.id)
	return append(dst, s[i:]...)
}

// enqueue records an enumerated pair for the next SCORE round, flushing
// a full batch.
func (es *exactSearch) enqueue(x, y itemset.Itemset, tidX, tidY *bitset.Set, lenX, lenY float64) error {
	es.batch = append(es.batch, pairEval{
		x: x.Clone(), y: y.Clone(),
		suppX: tidX.Count(), suppY: tidY.Count(),
		lenX: lenX, lenY: lenY,
	})
	if len(es.batch) >= exactBatch {
		return es.flush()
	}
	return nil
}

// flush evaluates the accumulated batch: filter by qub against the live
// incumbent (strict <, like the monolith's evaluate — a pair whose
// bound merely equals the incumbent may still win the Compare
// tie-break), run one SCORE round over the survivors, fold the counts
// into the three directions' gains with the monolith's arithmetic, and
// update the champion under its exact comparison rule.
func (es *exactSearch) flush() error {
	if len(es.batch) == 0 {
		return nil
	}
	batch := es.batch
	es.batch = es.batch[:0]
	keep := es.keep[:0]
	pairs := es.pairs[:0]
	for i := range batch {
		pe := &batch[i]
		if !es.disableQub {
			qub := float64(pe.suppX)*pe.lenY + float64(pe.suppY)*pe.lenX - (pe.lenX + pe.lenY + 1)
			if qub < es.bestGain {
				continue
			}
		}
		keep = append(keep, i)
		pairs = append(pairs, pairMsg{x: pe.x, y: pe.y})
	}
	es.keep, es.pairs = keep, pairs
	if len(pairs) == 0 {
		return nil
	}
	reps, err := es.r.sv.scorePairs(pairs)
	if err != nil {
		return err
	}
	for pi, bi := range keep {
		pe := &batch[bi]
		g := es.r.fold(reps, pi)
		gainF, gainB := g[0], g[1]
		lenBi := pe.lenX + pe.lenY + 1
		lenUni := pe.lenX + pe.lenY + 2
		for _, cand := range [3]struct {
			dir  core.Direction
			gain float64
		}{
			{core.Forward, gainF - lenUni},
			{core.Backward, gainB - lenUni},
			{core.Both, gainF + gainB - lenBi},
		} {
			rl := core.Rule{X: pe.x, Dir: cand.dir, Y: pe.y}
			if cand.gain > es.bestGain ||
				(es.found && cand.gain == es.bestGain && rl.Compare(es.best) < 0) {
				es.best = rl
				es.bestGain = cand.gain
				es.found = true
			}
		}
	}
	return nil
}
