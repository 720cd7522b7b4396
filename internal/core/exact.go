package core

import (
	"context"
	"slices"
	"sort"

	"twoview/internal/bitset"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
	"twoview/internal/pool"
)

// This file implements TRANSLATOR-EXACT (Algorithm 2): starting from the
// empty table, iteratively add the rule with the globally maximal gain
// until no rule improves compression. The best rule is found by an
// ECLAT-style depth-first search over all pairs of itemsets occurring
// jointly in the data, with branch-and-bound pruning via the rule-based
// upper bound rub and evaluation skipping via the quick bound qub (§5.2).
//
// As the paper observes (§6.1), the bounds are highly effective in the
// first iterations and lose power once per-rule gains shrink, so exact
// search is "most attractive when one is only interested in few rules";
// MaxRules caps the iterations for that use.
//
// The best-rule search parallelizes naturally: within one call the state
// is read-only, so the seed singleton pairs and the top-level branches of
// the depth-first search are distributed over an internal/pool worker
// pool. Workers share the incumbent best gain through a pool.Max, so the
// rub/qub pruning threshold tightens across all of them as soon as any
// worker improves it. Each worker keeps its own champion rule under the
// (gain, Rule.Compare) total order and the champions are merged under the
// same order, making the result independent of the number of workers and
// of scheduling (see the note on tie pruning at threshold()).
//
// The rub bound rub(X◇Y) = Σ_{X⊆tL} tub(tR) + Σ_{Y⊆tR} tub(tL) − L(X↔Y)
// is maintained incrementally across DFS levels: extending a pair changes
// the support of only one side, so that side's tub sum is re-accumulated
// while intersecting its tidset (bitset.IntersectIntoSum) and the other
// side's sum is inherited from the parent node unchanged. The inherited
// value was accumulated over the same tidset in the same ascending order,
// so the bound — and therefore every pruning decision — is bit-identical
// to recomputing both sums from scratch at each node. The supports |tidX|
// and |tidY| that qub needs are counted by the same intersections and
// carried down the same way.
//
// The exact gains are maintained the same way, as integer cover terms.
// Invariant: at every node where X and Y are both non-empty,
//
//	tx[j] = covered − errors of X[j] against tidY (gain of X ← Y),
//	ty[j] = covered − errors of Y[j] against tidX (gain of X → Y),
//
// aligned with the sorted itemsets (covered and errors as counted by
// bitset.CoverCounts; see State.gainDir); while either side is empty
// both slices are empty. Extending side S by an item changes only S's
// tidset, so the child inserts one term for the new item — against the
// other side's unchanged tidset, at the index the item takes in S —
// and recomputes the other side's terms against S's new tidset: |other
// side|+1 kernel calls per node instead of |X|+|Y| per evaluated pair.
// evaluate sums ItemLen·term in consequent order, skipping zero terms,
// through the same State.addTerm as gainDir, so every gain is
// bit-identical to scoring the pair from scratch (exact_reference_test.go
// pins this against the direct search).

// ExactOptions configures MineExact.
type ExactOptions struct {
	// MaxRules stops after this many rules; 0 means no limit (the
	// natural MDL stopping criterion applies either way).
	MaxRules int
	// OnIteration observes each added rule and may stop the run early by
	// returning false (the partial table is returned with a nil error).
	OnIteration IterationFunc
	// DisableRub and DisableQub turn off the §5.2 pruning bounds. The
	// search then degenerates to exhaustive enumeration of occurring
	// pairs; results are identical. Used by the ablation benchmarks.
	DisableRub bool
	DisableQub bool
	// ParallelOptions sets the worker-pool size for the per-iteration
	// best-rule search; results are identical for any value.
	ParallelOptions
}

// MineExact runs TRANSLATOR-EXACT on d and returns the induced translation
// table. It is parameter-free (ExactOptions only bounds or observes it).
//
// Cancelling ctx aborts the search at the next checkpoint — the
// iteration boundary, a phase task boundary, or the periodic in-branch
// probe of the depth-first search — and returns the table mined so far
// alongside ctx.Err(). With an uncancelled context the result is
// bit-identical for every worker count and the error is nil.
func MineExact(ctx context.Context, d *dataset.Dataset, opt ExactOptions) (*Result, error) {
	elapsed := stopwatch()
	c, err := OpenCover(ctx, d, mdl.NewCoder(d), nil, &opt, opt.ParallelOptions)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	res := &Result{}
	for opt.MaxRules == 0 || len(res.Iterations) < opt.MaxRules {
		if err = ctx.Err(); err != nil {
			break
		}
		var r Rule
		var gain float64
		var ok bool
		if r, gain, ok, err = c.BestRule(ctx); err != nil || !ok || gain <= gainEpsilon {
			break
		}
		if err = c.Apply(r); err != nil {
			break
		}
		if !res.record(c, r, gain, opt.OnIteration) {
			break
		}
	}
	res.finish(c, elapsed)
	return res, err
}

// joinedItem is one item of the joined alphabet used by the search.
type joinedItem struct {
	view dataset.View
	id   int         // id within its view
	col  *bitset.Set // tidset
	supp int         // |col|
	len  float64     // L(item | its view)
	pot  float64     // ordering potential Σ_{t∈supp} tub(t_opposite)
}

// pairNode is one node of the branch-and-bound search: the pair (x, y)
// with everything its extensions inherit, so a child pays only for the
// side that changed.
type pairNode struct {
	x, y              itemset.Itemset
	tidX, tidY, tidXY *bitset.Set // supports of x (left), y (right), x ∪ y
	nX, nY            int         // |tidX|, |tidY|
	lenX, lenY        float64     // L(x|D_L), L(y|D_R)
	sumRX, sumLY      float64     // rub sums Σ_{t∈tidX} tub_R(t), Σ_{t∈tidY} tub_L(t)
	tx, ty            []int       // cover terms (see the file comment)
}

// exactRun is the cross-iteration context of one MineExact call: the
// worker pool, the per-worker search states and the structures every
// iteration's best-rule search shares. Building it once means worker
// scratch (per-depth tidsets, itemset buffers) and the parked pool
// workers are reused by all iterations.
type exactRun struct {
	s    *State
	opt  ExactOptions
	pool *pool.Pool[*exactSearch]
	// ctx is the context of the current bestRule call, installed before
	// the phases are submitted (the phase barrier publishes it to the
	// workers) and probed periodically inside the DFS.
	ctx context.Context

	// items is rebuilt (re-sorted by potential) every iteration; the
	// slice itself is reused, as are its per-view partitions. All worker
	// states read them through the run.
	items  []joinedItem
	lefts  []*joinedItem
	rights []*joinedItem

	// shared is the cross-worker incumbent gain, Reset between
	// iterations; nil when serial.
	shared *pool.Max

	// root is the empty pair at full support, rebuilt (its rub sums)
	// every iteration and shared read-only by the workers.
	root pairNode
}

// exactSearch carries one worker's share of a best-rule search.
type exactSearch struct {
	*exactRun

	// Per-depth scratch, so the DFS allocates only when it goes deeper
	// than ever before — across all iterations of the run.
	levels []*levelBufs
	// Scratch node, singletons and terms for the seed pass.
	seed                   pairNode
	sx, sy, seedTX, seedTY [1]int

	// The champion rule. best.X and best.Y alias bestX and bestY, a pair
	// of per-worker buffers improvements copy into in place, so taking
	// the lead does not allocate; bestRule clones the merged winner once
	// per iteration before it escapes to the caller.
	best         Rule
	bestX, bestY itemset.Itemset
	bestGain     float64
	found        bool

	// Cancellation probe state: ticks counts visited DFS nodes, and
	// stopped latches once the run's context reports cancellation, so
	// the recursion unwinds without re-probing at every level.
	ticks   uint
	stopped bool
}

// exactCtxProbeMask gates the in-branch cancellation probe of the
// branch-and-bound DFS: one ctx.Err() call per 1024 extensions.
const exactCtxProbeMask = 1<<10 - 1

// levelBufs is the storage of the node at one depth: siblings at the
// same depth overwrite it after the subtree below has returned.
type levelBufs struct {
	node   pairNode
	xy     *bitset.Set     // joint support of the extended pair
	side   *bitset.Set     // per-view support of the extended side
	set    itemset.Itemset // the extended itemset at this depth
	tx, ty []int           // the node's cover terms
}

func (se *exactSearch) bufs(depth int) *levelBufs {
	for len(se.levels) <= depth {
		n := se.s.d.Size()
		se.levels = append(se.levels, &levelBufs{xy: bitset.New(n), side: bitset.New(n)})
	}
	return se.levels[depth]
}

// threshold returns the tightest known incumbent gain, against which the
// rub/qub bounds prune. Pruning is strict (bound < threshold): a subtree
// whose bound merely equals the incumbent may still hold an equal-gain
// rule that wins the Rule.Compare tie-break, and visiting those keeps the
// reported rule identical whether the threshold was raised by this worker
// or another one — i.e. independent of worker count and scheduling.
func (se *exactSearch) threshold() float64 {
	if se.shared == nil {
		return se.bestGain
	}
	return se.shared.Load()
}

// newExactRun builds the cross-iteration search context: the worker
// pool (sized once — the set of occurring items never changes within
// one MineExact call), the shared incumbent, and the root tidsets.
func newExactRun(s *State, opt ExactOptions) *exactRun {
	d := s.d
	occurring := 0
	for _, v := range []dataset.View{dataset.Left, dataset.Right} {
		cols := d.Columns(v)
		for i := 0; i < d.Items(v); i++ {
			if !cols[i].Empty() {
				occurring++
			}
		}
	}
	run := &exactRun{s: s, opt: opt}
	workers := opt.workerCount(occurring)
	if workers > 1 {
		run.shared = new(pool.Max)
	}
	run.pool = pool.NewOn(opt.runtime(), workers, func(int) *exactSearch {
		return &exactSearch{exactRun: run}
	})
	n := d.Size()
	full := bitset.New(n)
	full.Fill()
	run.root = pairNode{tidX: full, tidY: full, tidXY: full, nX: n, nY: n}
	return run
}

// bestRule returns argmax_r Δ_{D,T}(r) over all rules whose X∪Y occurs in
// the data, with a deterministic tie-break. ok is false when the dataset
// admits no rule at all. The search runs on the run's worker pool in two
// phases — singleton seeding, then one task per top-level DFS branch
// (dynamic assignment: branch costs are heavily skewed toward early
// items) — followed by a champion merge under the (gain, Rule.Compare)
// total order. A cancelled ctx aborts both phases and returns ctx.Err();
// the partial champions are discarded.
func (run *exactRun) bestRule(ctx context.Context) (Rule, float64, bool, error) {
	s, opt := run.s, run.opt
	d := s.d
	// Rebuild the item order: the potentials depend on the current
	// state, so they change as rules are added. The slice is reused.
	items := run.items[:0]
	for _, v := range []dataset.View{dataset.Left, dataset.Right} {
		cols := d.Columns(v)
		for i := 0; i < d.Items(v); i++ {
			if cols[i].Empty() {
				continue // items that never occur cannot enter a rule
			}
			items = append(items, joinedItem{
				view: v,
				id:   i,
				col:  cols[i],
				supp: cols[i].Count(),
				len:  s.coder.ItemLen(v, i),
				pot:  s.SumTub(v.Opposite(), cols[i]),
			})
		}
	}
	// Descending by potential; deterministic tie-break by view then id.
	// slices.SortFunc rather than sort.Slice: the generic sort keeps the
	// per-iteration re-sort allocation-free.
	slices.SortFunc(items, func(a, b joinedItem) int {
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
	run.items = items

	// Reset the per-iteration search state; worker scratch persists.
	run.ctx = ctx
	if run.shared != nil {
		run.shared.Reset()
	}
	for _, se := range run.pool.States() {
		se.best, se.bestGain, se.found = Rule{}, 0, false
		se.stopped = false
	}

	// Root values of the incremental rub sums: both sides start at full
	// support, so the sums cover every transaction of the target view.
	if !opt.DisableRub {
		run.root.sumRX = s.SumTub(dataset.Right, run.root.tidX)
		run.root.sumLY = s.SumTub(dataset.Left, run.root.tidY)
	}

	lefts, rights := run.splitViews(items)
	// Seed phase: each task is one left singleton crossed with every
	// right singleton. The resulting incumbent is a true gain, so pruning
	// against it is sound — it just starts the DFS with a competitive
	// threshold instead of zero, which the tub-based item order alone
	// cannot guarantee. Exactness is unaffected: the DFS still visits
	// every candidate subtree whose bound reaches the incumbent.
	if err := run.pool.RunCtx(ctx, len(lefts), func(se *exactSearch, i int) {
		for _, ri := range rights {
			if !lefts[i].col.Intersects(ri.col) {
				continue // the pair must occur in the data
			}
			se.seedPair(lefts[i], ri)
		}
	}); err != nil {
		return Rule{}, 0, false, err
	}
	// DFS phase: each task is one top-level branch (extend the empty
	// pair with item k, then search positions > k). The root node is
	// only read, so all workers share it.
	if err := run.pool.RunCtx(ctx, len(items), func(se *exactSearch, k int) {
		se.extend(&run.root, k, 0)
	}); err != nil {
		return Rule{}, 0, false, err
	}

	// Champion merge under the same (gain, Rule.Compare) total order the
	// workers use internally, so the result is bit-identical to the
	// serial search.
	var best Rule
	bestGain := 0.0
	found := false
	for _, se := range run.pool.States() {
		if !se.found {
			continue
		}
		if !found || se.bestGain > bestGain ||
			(se.bestGain == bestGain && se.best.Compare(best) < 0) {
			best, bestGain, found = se.best, se.bestGain, true
		}
	}
	if !found {
		return Rule{}, 0, false, nil
	}
	// The winner still aliases its worker's champion buffers, which the
	// next iteration overwrites; clone once here — the only per-iteration
	// champion allocation left.
	return Rule{X: best.X.Clone(), Dir: best.Dir, Y: best.Y.Clone()}, bestGain, true, nil
}

// bestRule runs a single best-rule search on a transient run context,
// for one-shot callers (tests, benchmarks); MineExact reuses one run
// across its iterations instead.
func bestRule(s *State, opt ExactOptions) (Rule, float64, bool) {
	r, gain, ok, _ := newExactRun(s, opt).bestRule(context.Background())
	return r, gain, ok
}

// splitViews partitions the search items by view, preserving the global
// potential order within each side. The partition slices live on the run
// and are reused by every iteration.
func (run *exactRun) splitViews(items []joinedItem) (lefts, rights []*joinedItem) {
	run.lefts, run.rights = run.lefts[:0], run.rights[:0]
	for i := range items {
		if items[i].view == dataset.Left {
			run.lefts = append(run.lefts, &items[i])
		} else {
			run.rights = append(run.rights, &items[i])
		}
	}
	return run.lefts, run.rights
}

// seedPair evaluates the singleton pair ({li}, {ri}) through the
// search's scratch seed node (evaluate clones before keeping anything).
func (se *exactSearch) seedPair(li, ri *joinedItem) {
	se.sx[0], se.sy[0] = li.id, ri.id
	se.seedTX[0] = se.s.coverTerm(dataset.Left, ri.col, li.id)
	se.seedTY[0] = se.s.coverTerm(dataset.Right, li.col, ri.id)
	se.seed = pairNode{
		x: se.sx[:], y: se.sy[:],
		tidX: li.col, tidY: ri.col,
		nX: li.supp, nY: ri.supp,
		lenX: li.len, lenY: ri.len,
		tx: se.seedTX[:], ty: se.seedTY[:],
	}
	se.evaluate(&se.seed)
}

// dfs extends the node p with the items at positions ≥ start in the
// global order; depth is the recursion level of the children, used for
// their scratch buffers.
func (se *exactSearch) dfs(p *pairNode, start, depth int) {
	for k := start; k < len(se.items); k++ {
		se.extend(p, k, depth)
	}
}

// extend grows the node p by the single item at position k into this
// depth's node, evaluates it when both sides are non-empty, and recurses
// into extensions at positions > k. Only one side's support shrinks, so
// its tub partial sum and its size are re-accumulated while intersecting
// (one fused pass), the other side's are inherited unchanged, and the
// cover terms are updated as the file comment describes.
func (se *exactSearch) extend(p *pairNode, k, depth int) {
	// Cancellation probe: once the run's context is cancelled the whole
	// recursion unwinds via the latched flag. The champions this search
	// has accumulated are discarded by bestRule, so cutting mid-branch
	// cannot leak a schedule-dependent result.
	if se.stopped {
		return
	}
	if se.ticks++; se.ticks&exactCtxProbeMask == 0 && se.ctx.Err() != nil {
		se.stopped = true
		return
	}
	it := &se.items[k]
	bufs := se.bufs(depth)
	// The joint support of the extended pair.
	if bitset.IntersectInto(bufs.xy, p.tidXY, it.col) == 0 {
		return // X∪Y must occur in the data (§5.2)
	}
	// The extended side lives in this depth's scratch itemset, and
	// evaluate clones before keeping a rule.
	var at int
	bufs.set, at = insertItemInto(bufs.set, p.x, p.y, it)
	useRub := !se.opt.DisableRub
	c := &bufs.node
	*c = *p
	c.tidXY = bufs.xy
	if it.view == dataset.Left {
		c.x, c.tidX = bufs.set, bufs.side
		if useRub {
			c.sumRX, c.nX = bitset.IntersectIntoSum(c.tidX, p.tidX, it.col, se.s.tub[dataset.Right])
		} else {
			c.nX = bitset.IntersectInto(c.tidX, p.tidX, it.col)
		}
		c.lenX += it.len
	} else {
		c.y, c.tidY = bufs.set, bufs.side
		if useRub {
			c.sumLY, c.nY = bitset.IntersectIntoSum(c.tidY, p.tidY, it.col, se.s.tub[dataset.Left])
		} else {
			c.nY = bitset.IntersectInto(c.tidY, p.tidY, it.col)
		}
		c.lenY += it.len
	}
	if useRub {
		// rub(X◇Y) = Σ_{X⊆tL} tub(tR) + Σ_{Y⊆tR} tub(tL) − L(X↔Y),
		// antitone under extension, so it prunes the whole subtree.
		rub := c.sumRX + c.sumLY - (c.lenX + c.lenY + 1)
		if rub < se.threshold() {
			return
		}
	}
	// With a side still empty, c inherits p's (empty) terms unchanged.
	if len(c.x) > 0 && len(c.y) > 0 {
		se.updateTerms(p, c, it, at, bufs)
		se.evaluate(c)
	}
	se.dfs(c, k+1, depth+1)
}

// updateTerms derives the child c's cover terms from its parent p after
// c extended one side by it, which landed at index at of that side; both
// sides of c are non-empty. The extended side gains one term, against
// the other side's unchanged tidset; the other side's terms are all
// recomputed against the extended side's new tidset. If the extended
// side was empty in p, p carries no terms and the new item's term is
// the whole slice.
func (se *exactSearch) updateTerms(p, c *pairNode, it *joinedItem, at int, bufs *levelBufs) {
	s := se.s
	if it.view == dataset.Left {
		bufs.tx = insertTerm(bufs.tx, p.tx, at, s.coverTerm(dataset.Left, c.tidY, it.id))
		bufs.ty = s.appendCoverTerms(bufs.ty[:0], dataset.Right, c.tidX, c.y)
	} else {
		bufs.ty = insertTerm(bufs.ty, p.ty, at, s.coverTerm(dataset.Right, c.tidX, it.id))
		bufs.tx = s.appendCoverTerms(bufs.tx[:0], dataset.Left, c.tidY, c.x)
	}
	c.tx, c.ty = bufs.tx, bufs.ty
}

// insertTerm writes terms with t inserted at index at into dst, reusing
// its capacity.
func insertTerm(dst, terms []int, at, t int) []int {
	dst = append(dst[:0], terms[:at]...)
	dst = append(dst, t)
	return append(dst, terms[at:]...)
}

// insertItemInto writes (x or y) ∪ {it.id} into dst, reusing its
// capacity, and returns the index it.id took: the side matching it.view
// is extended (it.id may fall anywhere, since the global search order
// mixes the two views arbitrarily).
func insertItemInto(dst itemset.Itemset, x, y itemset.Itemset, it *joinedItem) (itemset.Itemset, int) {
	s := x
	if it.view == dataset.Right {
		s = y
	}
	i := sort.SearchInts(s, it.id)
	dst = append(dst[:0], s[:i]...)
	dst = append(dst, it.id)
	return append(dst, s[i:]...), i
}

// evaluate computes the exact gains of the three rules formed by the
// node's pair from its cover terms and updates the incumbent. The pair
// may live in scratch buffers; the champion is copied into the worker's
// preallocated buffers, not cloned.
func (se *exactSearch) evaluate(n *pairNode) {
	s := se.s
	lenBi := n.lenX + n.lenY + 1
	lenUni := n.lenX + n.lenY + 2
	if !se.opt.DisableQub {
		// qub(X◇Y) = |supp(X)|·L(Y) + |supp(Y)|·L(X) − L(X↔Y) bounds all
		// three directions; skip the exact gain computation if hopeless.
		qub := float64(n.nX)*n.lenY + float64(n.nY)*n.lenX - lenBi
		if qub < se.threshold() {
			return
		}
	}
	gainF := s.termsGain(dataset.Right, n.y, n.ty)
	gainB := s.termsGain(dataset.Left, n.x, n.tx)
	for _, cand := range [3]struct {
		dir  Direction
		gain float64
	}{
		{Forward, gainF - lenUni},
		{Backward, gainB - lenUni},
		{Both, gainF + gainB - lenBi},
	} {
		r := Rule{X: n.x, Dir: cand.dir, Y: n.y}
		if cand.gain > se.bestGain ||
			(se.found && cand.gain == se.bestGain && r.Compare(se.best) < 0) {
			se.bestX = append(se.bestX[:0], n.x...)
			se.bestY = append(se.bestY[:0], n.y...)
			se.best = Rule{X: se.bestX, Dir: cand.dir, Y: se.bestY}
			se.bestGain = cand.gain
			se.found = true
			if se.shared != nil {
				se.shared.Raise(cand.gain)
			}
		}
	}
}
