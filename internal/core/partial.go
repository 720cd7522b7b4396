package core

import (
	"twoview/internal/bitset"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
)

// This file is the state side of the sharded mining engine
// (internal/shard): PartialState is the columnar cover state restricted
// to one item-range partition, and ItemCount/GainFromCounts/CoverTotals
// are the pieces a coordinator needs to reassemble the monolith's exact
// float arithmetic from the partitions' integer summaries.
//
// The split of responsibilities is what makes sharding bit-identical:
//
//   - a partition performs only *integer* work — popcounts over its own
//     ucol/ecol columns (the same fused kernels gainDir/applyDir use) —
//     and ships per-item (covered, errors) pairs;
//   - the coordinator performs all *float* accumulation, in exactly the
//     order gainDir/applyDir would (consequent-item order, with the
//     same skip-on-equal guard), via GainFromCounts and CoverTotals.
//
// Integer counts are schedule- and failure-independent, so the merged
// floats are too: any shard count, any worker count, and any recovery
// history produce the same bits as the monolithic State.

// ItemCount is the unit of the sharded gain protocol: for one rule
// direction and one consequent item, the number of transactions where
// the item becomes covered and where it becomes a new error. A slice of
// ItemCounts in consequent-item order is the entire message a shard
// sends per scored rule direction.
type ItemCount struct {
	Item    int32
	Covered int32
	Errors  int32
}

// DirCounts carries the per-item counts of both directions of one rule:
// Fwd for the X→Y direction (target view Right, items of Y) and Back
// for X←Y (target view Left, items of X). A direction the rule does not
// apply to is nil.
type DirCounts struct {
	Fwd  []ItemCount
	Back []ItemCount
}

// PartialState is the columnar cover state of one item-range partition:
// the ucol/ecol tidset columns of State, but only for target-view items
// in [lo, hi) per view, and none of the row-wise mirrors, scalars or
// tub arrays (those live with the coordinator; see CoverTotals). It is
// the private, message-isolated state a mining shard owns.
//
// A PartialState is a pure function of (dataset, ranges, rule log):
// rebuilding one with NewPartialState + Replay after a shard crash
// yields bit-identical columns, which is the recovery story of the
// shard supervisor.
type PartialState struct {
	d          *dataset.Dataset
	lo, hi     [2]int
	ucol, ecol [2][]bitset.Set

	// Serial scratch for Apply (covered/error tidsets and antecedent
	// supports), like State.scratch. ScoreDir never touches these, so
	// concurrent ScoreDir calls against one PartialState are safe.
	scratch, tids *bitset.Set
}

// NewPartialState returns the partition [loL, hiL) × [loR, hiR) of the
// empty-table cover state: every owned U column is the item's support
// tidset, every owned E column is empty — exactly the owned slice of
// NewState's columns.
func NewPartialState(d *dataset.Dataset, loL, hiL, loR, hiR int) *PartialState {
	ps := &PartialState{d: d}
	ps.lo[dataset.Left], ps.hi[dataset.Left] = loL, hiL
	ps.lo[dataset.Right], ps.hi[dataset.Right] = loR, hiR
	n := d.Size()
	for _, v := range []dataset.View{dataset.Left, dataset.Right} {
		lo, hi := ps.lo[v], ps.hi[v]
		cols := d.Columns(v)
		ps.ucol[v] = bitset.NewBatch(hi-lo, n)
		ps.ecol[v] = bitset.NewBatch(hi-lo, n)
		for i := lo; i < hi; i++ {
			ps.ucol[v][i-lo].Copy(cols[i])
		}
	}
	ps.scratch = bitset.New(n)
	ps.tids = bitset.New(n)
	return ps
}

// Range returns the partition's item range [lo, hi) for the target view.
func (ps *PartialState) Range(target dataset.View) (lo, hi int) {
	return ps.lo[target], ps.hi[target]
}

// UncoveredCol returns the partition's U column of item i (absolute id)
// of the target view. i must be inside the partition. Read-only.
func (ps *PartialState) UncoveredCol(target dataset.View, i int) *bitset.Set {
	return &ps.ucol[target][i-ps.lo[target]]
}

// ErrorsCol returns the partition's E column of item i (absolute id) of
// the target view. i must be inside the partition. Read-only.
func (ps *PartialState) ErrorsCol(target dataset.View, i int) *bitset.Set {
	return &ps.ecol[target][i-ps.lo[target]]
}

// ScoreDir computes the per-item counts of one rule direction for the
// consequent items this partition owns, appending to dst: per owned
// item y of cons, the covered count |tids ∩ ucol[y]| and the new-error
// count |tids \ (supp(y) ∪ ecol[y])| — the same fused kernel as
// State.gainDir (bitset.CoverCounts), yielding the same integers.
// Items outside the partition are someone else's; items inside are
// emitted even at (0, 0), so a coordinator can concatenate the
// partitions' slices in partition order and walk cons exactly once (a
// wire transport may compress the zero entries; see internal/shard's
// protocol doc).
//
// ScoreDir only reads the partition, so any number of concurrent
// ScoreDir calls (a shard's worker pool scoring a candidate batch) are
// safe against each other.
func (ps *PartialState) ScoreDir(target dataset.View, tids *bitset.Set, cons itemset.Itemset, dst []ItemCount) []ItemCount {
	lo, hi := ps.lo[target], ps.hi[target]
	ucol, ecol := ps.ucol[target], ps.ecol[target]
	cols := ps.d.Columns(target)
	//lint:ctxprobe-ok bounded per-rule work (|cons| kernel calls); the sharded cover probes ctx at message granularity
	for _, y := range cons {
		if y < lo || y >= hi {
			continue
		}
		covered, errs := bitset.CoverCounts(tids, &ucol[y-lo], cols[y], &ecol[y-lo])
		dst = append(dst, ItemCount{Item: int32(y), Covered: int32(covered), Errors: int32(errs)})
	}
	return dst
}

// ScoreRule scores both directions of the rule skeleton (x, y) against
// the partition, with optional precomputed support tidsets (nil tidsets
// are computed into internal scratch — not safe concurrently; pass
// cached tidsets from parallel scorers). The returned DirCounts always
// carries both directions: the coordinator composes →/←/↔ gains from
// the same two count vectors, like evaluate/scoreRange do from gainDir.
func (ps *PartialState) ScoreRule(x, y itemset.Itemset, tidX, tidY *bitset.Set, fwd, back []ItemCount) DirCounts {
	if tidX == nil {
		ps.d.SupportSetInto(ps.tids, dataset.Left, x)
		tidX = ps.tids
	}
	fwd = ps.ScoreDir(dataset.Right, tidX, y, fwd)
	if tidY == nil {
		ps.d.SupportSetInto(ps.tids, dataset.Right, y)
		tidY = ps.tids
	}
	back = ps.ScoreDir(dataset.Left, tidY, x, back)
	return DirCounts{Fwd: fwd, Back: back}
}

// CoverObserver observes, during PartialState.Apply, the covered tidset
// of each owned consequent item — the transactions where the item just
// moved from U to covered — in application order. The set is scratch:
// observers must copy what they keep. The sharded cover's EXACT runs ship
// these tidsets in the apply acknowledgement so the coordinator can
// maintain its transaction-granular bounds (TubMirror); SELECT and
// GREEDY runs pass nil and the counts alone suffice.
type CoverObserver func(target dataset.View, item int, covered *bitset.Set)

// Apply adds rule r to the partition — the owned slice of
// State.applyDir's column updates — and returns the per-item counts of
// both applied directions (appending to fwd/back), from which a
// coordinator updates its scalar mirrors (CoverTotals.Apply). Like
// applyDir it must never run concurrently with itself or ScoreDir on
// the same partition; a shard applies between scoring phases.
func (ps *PartialState) Apply(r Rule, fwd, back []ItemCount, onCover CoverObserver) DirCounts {
	if r.AppliesTo(dataset.Left) {
		ps.d.SupportSetInto(ps.tids, dataset.Left, r.X)
		fwd = ps.applyDir(dataset.Right, ps.tids, r.Y, fwd, onCover)
	}
	if r.AppliesTo(dataset.Right) {
		ps.d.SupportSetInto(ps.tids, dataset.Right, r.Y)
		back = ps.applyDir(dataset.Left, ps.tids, r.X, back, onCover)
	}
	return DirCounts{Fwd: fwd, Back: back}
}

// applyDir updates the owned U/E columns for one rule direction,
// mirroring State.applyDir restricted to the partition: per owned
// consequent item, materialize the covered tidset and the new-error
// tidset, update the columns wholesale, and record the two counts.
func (ps *PartialState) applyDir(target dataset.View, tids *bitset.Set, cons itemset.Itemset, dst []ItemCount, onCover CoverObserver) []ItemCount {
	lo, hi := ps.lo[target], ps.hi[target]
	cols := ps.d.Columns(target)
	//lint:ctxprobe-ok bounded per-rule work (|cons| kernel calls); shards apply between message checkpoints
	for _, y := range cons {
		if y < lo || y >= hi {
			continue
		}
		ucol, ecol := &ps.ucol[target][y-lo], &ps.ecol[target][y-lo]

		covered := ps.scratch
		covCnt := bitset.IntersectInto(covered, tids, ucol)
		if onCover != nil {
			onCover(target, y, covered)
		}
		if covCnt > 0 {
			ucol.AndNot(covered)
		}

		errs := ps.scratch
		errs.Copy(tids)
		errs.AndNot(cols[y])
		errs.AndNot(ecol)
		errCnt := errs.Count()
		if errCnt > 0 {
			ecol.Or(errs)
		}

		dst = append(dst, ItemCount{Item: int32(y), Covered: int32(covCnt), Errors: int32(errCnt)})
	}
	return dst
}

// Replay rebuilds the partition's cover columns from an accepted-rule
// log by applying every rule in order, discarding the counts (the
// coordinator already accounted for them when the rules were accepted).
// NewPartialState + Replay is the deterministic recovery path of the
// shard supervisor: the resulting columns are bit-identical to those of
// a partition that lived through the run, because the columns are a
// pure function of (dataset, ranges, log). onRule, if non-nil, observes
// each rule before it is applied (the supervisor threads a fault point
// through it).
func (ps *PartialState) Replay(log []Rule, onRule func(i int, r Rule)) {
	for i, r := range log {
		if onRule != nil {
			onRule(i, r)
		}
		ps.Apply(r, nil, nil, nil)
	}
}

// GainFromCounts folds per-item count messages into the gain
// contribution of one rule direction, with exactly State.gainDir's
// float arithmetic: accumulate in consequent-item order, skip items
// whose covered and error counts cancel (also guarding the
// zero-support-item Inf·0 case), one multiply-add per remaining item.
// parts are the partitions' ItemCount slices in partition order; since
// partitions are ascending contiguous item ranges and each ScoreDir
// emits in cons order, their concatenation is the full cons walk.
func GainFromCounts(coder *mdl.Coder, target dataset.View, parts ...[]ItemCount) float64 {
	gain := 0.0
	for _, part := range parts {
		for _, c := range part {
			if c.Covered == c.Errors {
				continue
			}
			gain += coder.ItemLen(target, int(c.Item)) * float64(c.Covered-c.Errors)
		}
	}
	return gain
}

// CoverTotals mirrors, on the coordinator side of a sharded run, the
// scalar summaries the monolithic State maintains: |U| and |E| per
// target view and the correction lengths L(C|T). It is fed by the
// per-item counts of the shards' Apply replies and reproduces
// State.applyDir's scalar updates bit-for-bit, so a sharded run reports
// the same IterationStats as the monolith.
type CoverTotals struct {
	coder *mdl.Coder

	UOnes   [2]int
	EOnes   [2]int
	CorrLen [2]float64
}

// NewCoverTotals returns the empty-table scalars, accumulated in the
// same order as NewState (transactions ascending, per view): uOnes from
// the row popcounts and corrLen from the per-row encoded lengths.
func NewCoverTotals(d *dataset.Dataset, coder *mdl.Coder) *CoverTotals {
	ct := &CoverTotals{coder: coder}
	n := d.Size()
	for _, v := range []dataset.View{dataset.Left, dataset.Right} {
		for t := 0; t < n; t++ {
			row := d.Row(v, t)
			ct.UOnes[v] += row.Count()
			ct.CorrLen[v] += coder.BitsLen(v, row)
		}
	}
	return ct
}

// ApplyDir folds the per-item counts of one applied rule direction into
// the scalars, mirroring the tail of State.applyDir per item in
// consequent order: covered items leave U, new errors enter E, and the
// correction length moves by ItemLen·(errs−covered) in a single
// multiply (skipped when the counts cancel, like gainDir — so the gain
// accepted for the rule equals the score change exactly). parts are the
// partitions' slices in partition order, concatenating to the full
// consequent walk.
func (ct *CoverTotals) ApplyDir(target dataset.View, parts ...[]ItemCount) {
	for _, part := range parts {
		for _, c := range part {
			ct.UOnes[target] -= int(c.Covered)
			ct.EOnes[target] += int(c.Errors)
			if c.Covered != c.Errors {
				ct.CorrLen[target] += ct.coder.ItemLen(target, int(c.Item)) * float64(int(c.Errors)-int(c.Covered))
			}
		}
	}
}

// Apply folds both directions of one applied rule, in AddRule's order
// (the X→Y direction first, then X←Y). fwdParts/backParts are the
// partitions' Apply replies in partition order; a direction the rule
// does not apply to must be empty.
func (ct *CoverTotals) Apply(r Rule, fwdParts, backParts [][]ItemCount) {
	if r.AppliesTo(dataset.Left) {
		ct.ApplyDir(dataset.Right, fwdParts...)
	}
	if r.AppliesTo(dataset.Right) {
		ct.ApplyDir(dataset.Left, backParts...)
	}
}

// Score returns L(D_L↔R, T) for the given table under these totals,
// like State.Score.
func (ct *CoverTotals) Score(table *Table) float64 {
	return table.Len(ct.coder) + ct.CorrLen[dataset.Left] + ct.CorrLen[dataset.Right]
}

// TubMirror maintains the transaction-based upper bounds tub(t) =
// L(U_t | D_target) on the coordinator side of a sharded run, fed by
// the per-item covered tidsets the shards' apply acknowledgements carry
// (see CoverObserver). The sharded cover's EXACT search needs it for the
// monolith's item potential ordering (bestRule sorts by Σ tub), whose
// float accumulation history must be reproduced exactly; SELECT and
// GREEDY never read tub and run without one.
type TubMirror struct {
	coder *mdl.Coder
	tub   [2][]float64
}

// NewTubMirror returns the empty-table bounds, initialized like
// NewState: tub(t) = L(row | D_target) per transaction in ascending
// order.
func NewTubMirror(d *dataset.Dataset, coder *mdl.Coder) *TubMirror {
	tm := &TubMirror{coder: coder}
	n := d.Size()
	for _, v := range []dataset.View{dataset.Left, dataset.Right} {
		tm.tub[v] = make([]float64, n)
		for t := 0; t < n; t++ {
			tm.tub[v][t] = coder.BitsLen(v, d.Row(v, t))
		}
	}
	return tm
}

// ApplyItem folds one applied consequent item's covered tidset into the
// bounds, mirroring State.applyDir's per-item walk: each covered
// transaction loses the item's length, visited in ascending transaction
// order. Callers must feed items in application order (consequent order
// within a direction, X→Y direction before X←Y) for the accumulation
// history — and hence the bits — to match the monolith.
func (tm *TubMirror) ApplyItem(target dataset.View, item int, covered *bitset.Set) {
	l := tm.coder.ItemLen(target, item)
	tub := tm.tub[target]
	covered.ForEach(func(t int) bool {
		tub[t] -= l
		return true
	})
}

// SumTub returns Σ_{t ∈ tids} tub(t) for the target view, accumulated
// in ascending transaction order like State.SumTub.
func (tm *TubMirror) SumTub(target dataset.View, tids *bitset.Set) float64 {
	return bitset.WeightedSum(tids, tm.tub[target])
}
