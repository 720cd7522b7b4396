package core

import (
	"math"

	"twoview/internal/bitset"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
)

// State maintains, incrementally, everything needed to score a growing
// translation table: per transaction and per target view the uncovered
// items U (in the data but not yet translated) and the errors E
// (translated but not in the data), the encoded correction lengths, the
// table length, and the transaction-based upper bounds tub (§5.1–5.2).
//
// The correction state is kept in two layouts at once:
//
//   - row-wise, u[v][t]/e[v][t]: one bitset over I_v per transaction,
//     the layout of Algorithm 1 and of the read accessors
//     (Uncovered/Errors, table reports, reconstruction tests);
//   - columnar, ucol[v][i]/ecol[v][i]: one tidset over the transactions
//     per *item*, the same vertical layout as Dataset.Columns. This is
//     the layout every gain evaluation reads: scoring a candidate rule
//     against a support tidset becomes a handful of fused
//     popcount loops per consequent item (see gainDir) instead of
//     per-transaction bit probes.
//
// Both mirrors are updated together by AddRule/applyDir; the columnar
// mirror is property-tested against a row-wise reference in
// columnar_test.go. All bitsets are carved out of per-view batch
// allocations (bitset.NewBatch), so building a State costs O(1)
// allocations per view rather than O(|D| + |I|).
//
// Invariants (checked in tests):
//   - U_t ⊆ t and E_t ∩ t = ∅ for the target view's row t;
//   - t′ = (t \ U_t) ∪ E_t matches TranslateRow for the current table;
//   - E only grows as rules are added (errors are never removed);
//   - ucol[v][i] = {t : i ∈ u[v][t]} and ecol[v][i] = {t : i ∈ e[v][t]};
//   - corrLen[v] = Σ_t BitsLen(U_t) + BitsLen(E_t).
type State struct {
	d     *dataset.Dataset
	coder *mdl.Coder
	table Table

	// Arrays indexed by the *target* view of a translation:
	// target Right ⇔ translation D_L→R, target Left ⇔ D_L←R.
	u       [2][]bitset.Set // row-wise U, indexed by transaction
	e       [2][]bitset.Set // row-wise E, indexed by transaction
	ucol    [2][]bitset.Set // columnar U, indexed by item (tidsets)
	ecol    [2][]bitset.Set // columnar E, indexed by item (tidsets)
	uOnes   [2]int
	eOnes   [2]int
	corrLen [2]float64
	tub     [2][]float64 // tub(t) = L(U_t | D_target) per transaction

	scratch *bitset.Set // width |D|, used serially by applyDir
}

// NewState returns the state of the empty translation table: everything is
// uncovered, nothing is in error, and the score is the baseline L(D,∅).
func NewState(d *dataset.Dataset, coder *mdl.Coder) *State {
	s := &State{d: d, coder: coder}
	n := d.Size()
	for _, v := range []dataset.View{dataset.Left, dataset.Right} {
		items := d.Items(v)
		s.u[v] = bitset.NewBatch(n, items)
		s.e[v] = bitset.NewBatch(n, items)
		s.tub[v] = make([]float64, n)
		for t := 0; t < n; t++ {
			row := d.Row(v, t)
			s.u[v][t].Copy(row)
			s.uOnes[v] += row.Count()
			s.tub[v][t] = coder.BitsLen(v, row)
			s.corrLen[v] += s.tub[v][t]
		}
		// Initially U_t = t, so the U column of item i is exactly the
		// item's support tidset. Materializing Columns here also makes
		// the lazily built cache safe to read from parallel phases.
		cols := d.Columns(v)
		s.ucol[v] = bitset.NewBatch(items, n)
		s.ecol[v] = bitset.NewBatch(items, n)
		for i := 0; i < items; i++ {
			s.ucol[v][i].Copy(cols[i])
		}
	}
	s.scratch = bitset.New(n)
	return s
}

// Dataset returns the underlying dataset.
func (s *State) Dataset() *dataset.Dataset { return s.d }

// Coder returns the coder used for all lengths.
func (s *State) Coder() *mdl.Coder { return s.coder }

// Table returns the current translation table. Callers must not modify it.
func (s *State) Table() *Table { return &s.table }

// Uncovered returns U_t for the given target view. Read-only.
func (s *State) Uncovered(target dataset.View, t int) *bitset.Set { return &s.u[target][t] }

// Errors returns E_t for the given target view. Read-only.
func (s *State) Errors(target dataset.View, t int) *bitset.Set { return &s.e[target][t] }

// UncoveredCol returns the columnar mirror of U for item i of the target
// view: the tidset {t : i ∈ U_t}. Read-only.
func (s *State) UncoveredCol(target dataset.View, i int) *bitset.Set { return &s.ucol[target][i] }

// ErrorsCol returns the columnar mirror of E for item i of the target
// view: the tidset {t : i ∈ E_t}. Read-only.
func (s *State) ErrorsCol(target dataset.View, i int) *bitset.Set { return &s.ecol[target][i] }

// UncoveredOnes returns |U| for the target view (Fig. 2, top).
func (s *State) UncoveredOnes(target dataset.View) int { return s.uOnes[target] }

// ErrorOnes returns |E| for the target view (Fig. 2, top).
func (s *State) ErrorOnes(target dataset.View) int { return s.eOnes[target] }

// CorrectionOnes returns |C| = |U|+|E| summed over both views, the
// numerator of the |C|% metric of Table 3.
func (s *State) CorrectionOnes() int {
	return s.uOnes[0] + s.uOnes[1] + s.eOnes[0] + s.eOnes[1]
}

// CorrLen returns L(C_target | T) in bits.
func (s *State) CorrLen(target dataset.View) float64 { return s.corrLen[target] }

// TableLen returns L(T) in bits.
func (s *State) TableLen() float64 { return s.table.Len(s.coder) }

// Score returns the total encoded size L(D_L↔R, T) = L(T) + L(C_L|T) +
// L(C_R|T) minimized in Problem 1.
func (s *State) Score() float64 {
	return s.TableLen() + s.corrLen[dataset.Left] + s.corrLen[dataset.Right]
}

// Baseline returns L(D,∅), the score of the empty table.
func (s *State) Baseline() float64 { return s.coder.BaselineLen(s.d) }

// Tub returns the transaction-based upper bound tub(t) = L(U_t|D_target)
// for the given target view (§5.2). It is kept up to date by AddRule.
func (s *State) Tub(target dataset.View, t int) float64 { return s.tub[target][t] }

// SumTub returns Σ_{t ∈ tids} tub(t) for the target view, accumulated in
// ascending transaction order (the same order ForEach would visit, so
// the value is bit-identical to the closure-based walk it replaced —
// WeightedSum guarantees that order under both kernel builds).
func (s *State) SumTub(target dataset.View, tids *bitset.Set) float64 {
	return bitset.WeightedSum(tids, s.tub[target])
}

// gainDir computes Δ_{D|T} for one direction of a rule (Equation 2): the
// antecedent's support tidset in view `from` and the consequent itemset in
// the opposite view. It does not subtract the rule length.
//
// This is the innermost loop of all three miners, and it runs entirely on
// the columnar mirror: per consequent item y, the number of transactions
// where y becomes covered is |tids ∩ ucol[y]| and the number where y
// becomes an error is |tids \ (supp(y) ∪ ecol[y])| — both counted by
// one fused popcount word loop over the four streams
// (bitset.CoverCounts), no per-transaction branching, no allocation.
// The exact search keeps the same per-item terms incrementally
// (exact.go) and sums them with termsGain; both sums go through addTerm
// in consequent order, so they agree bit for bit.
func (s *State) gainDir(from dataset.View, tids *bitset.Set, cons itemset.Itemset) float64 {
	target := from.Opposite()
	ucol, ecol, cols := s.ucol[target], s.ecol[target], s.d.Columns(target)
	gain := 0.0
	//lint:ctxprobe-ok bounded per-rule work (|cons| kernel calls); callers probe ctx at rule granularity
	for _, y := range cons {
		// L(Y ∩ U_t) − L(Y \ (t_R ∪ E_t)) terms.
		covered, errs := bitset.CoverCounts(tids, &ucol[y], cols[y], &ecol[y])
		gain = s.addTerm(gain, target, y, covered-errs)
	}
	return gain
}

// coverTerm returns covered − errors for item y of the target view
// against an antecedent support tidset (bitset.CoverCounts): how many of
// those transactions y would newly cover, minus how many it would newly
// put in error.
func (s *State) coverTerm(target dataset.View, tids *bitset.Set, y int) int {
	covered, errs := bitset.CoverCounts(tids, &s.ucol[target][y], s.d.Columns(target)[y], &s.ecol[target][y])
	return covered - errs
}

// appendCoverTerms appends coverTerm(target, tids, y) for every item y
// of cons to dst, in consequent order.
func (s *State) appendCoverTerms(dst []int, target dataset.View, tids *bitset.Set, cons itemset.Itemset) []int {
	ucol, ecol, cols := s.ucol[target], s.ecol[target], s.d.Columns(target)
	//lint:ctxprobe-ok bounded per node (|cons| kernel calls); the exact DFS probes ctx every 1024 nodes
	for _, y := range cons {
		covered, errs := bitset.CoverCounts(tids, &ucol[y], cols[y], &ecol[y])
		dst = append(dst, covered-errs)
	}
	return dst
}

// addTerm folds one consequent item's cover term into a direction's
// gain: the single multiply gainDir and termsGain share.
func (s *State) addTerm(gain float64, target dataset.View, y, term int) float64 {
	if term == 0 {
		// Skip the multiply: ±0 contributions cancel, and a
		// zero-support item (ItemLen +Inf) over an empty tidset
		// must contribute 0, not Inf·0 = NaN.
		return gain
	}
	return gain + s.coder.ItemLen(target, y)*float64(term)
}

// termsGain is gainDir for a consequent whose cover terms are already
// known (terms[j] belongs to cons[j]): the same sum in the same order,
// hence the same bits.
func (s *State) termsGain(target dataset.View, cons itemset.Itemset, terms []int) float64 {
	gain := 0.0
	for j, y := range cons {
		gain = s.addTerm(gain, target, y, terms[j])
	}
	return gain
}

// Gain returns Δ_{D,T}(r) = Δ_{D|T}(r) − L(r) (Equation 1): the decrease in
// total compressed size obtained by adding r to the current table.
func (s *State) Gain(r Rule) float64 {
	return s.GainWithTids(r, nil, nil)
}

// GainWithTids is Gain with optional precomputed support tidsets for X (in
// the left view) and Y (in the right view); nil tidsets are computed on
// the fly. Passing cached tidsets avoids recomputation in the search
// algorithms' inner loops.
func (s *State) GainWithTids(r Rule, tidX, tidY *bitset.Set) float64 {
	gain := 0.0
	if r.AppliesTo(dataset.Left) {
		if tidX == nil {
			tidX = s.d.SupportSet(dataset.Left, r.X)
		}
		gain += s.gainDir(dataset.Left, tidX, r.Y)
	}
	if r.AppliesTo(dataset.Right) {
		if tidY == nil {
			tidY = s.d.SupportSet(dataset.Right, r.Y)
		}
		gain += s.gainDir(dataset.Right, tidY, r.X)
	}
	return gain - r.Len(s.coder)
}

// Qub returns the quick upper bound qub(X ◇ Y) of §5.2, valid for all
// three directions of the rule: |supp(X)|·L(Y|D_R) + |supp(Y)|·L(X|D_L) −
// L(X↔Y). It cannot be used for subtree pruning but safely skips exact
// gain computations.
func (s *State) Qub(x, y itemset.Itemset, suppX, suppY int) float64 {
	return qub(s.coder, x, y, suppX, suppY)
}

// Rub returns the rule-based upper bound rub(X ◇ Y) of §5.2: it bounds the
// gain of the rule and of every extension of it, so subtrees with
// rub ≤ best gain can be pruned.
func (s *State) Rub(x, y itemset.Itemset, tidX, tidY *bitset.Set) float64 {
	return s.SumTub(dataset.Right, tidX) + s.SumTub(dataset.Left, tidY) -
		s.coder.RuleLen(x, y, true)
}

// applyDir updates U, E (both layouts), tub and corrLen for one direction
// of a rule. Like gainDir it works item-major: per consequent item y it
// materializes the covered tidset tids ∩ ucol[y] and the new-error tidset
// tids \ (supp(y) ∪ ecol[y]) with word-level operations, updates the
// columns wholesale, and walks only the affected transactions to keep the
// row mirror and tub in sync. For each transaction the per-item deltas are
// applied in consequent order, exactly as the row-wise version did, so tub
// stays bit-identical. applyDir is only called between search phases
// (AddRule), never concurrently, so it may use the state's scratch set.
func (s *State) applyDir(from dataset.View, tids *bitset.Set, cons itemset.Itemset) {
	target := from.Opposite()
	u, e := s.u[target], s.e[target]
	cols := s.d.Columns(target)
	tub := s.tub[target]
	//lint:ctxprobe-ok bounded per-rule work (|cons| kernel calls); AddRule runs between iteration checkpoints
	for _, y := range cons {
		l := s.coder.ItemLen(target, y)
		ucol, ecol := &s.ucol[target][y], &s.ecol[target][y]

		// Transactions where y was still uncovered: it becomes covered.
		covered := s.scratch
		covCnt := bitset.IntersectInto(covered, tids, ucol)
		if covCnt > 0 {
			ucol.AndNot(covered)
			covered.ForEach(func(t int) bool {
				u[t].Remove(y)
				tub[t] -= l
				return true
			})
		}

		// Transactions where y is neither in the data nor already an
		// error: it becomes a new error (errors are never removed).
		errs := s.scratch
		errs.Copy(tids)
		errs.AndNot(cols[y])
		errs.AndNot(ecol)
		errCnt := errs.Count()
		if errCnt > 0 {
			ecol.Or(errs)
			errs.ForEach(func(t int) bool {
				e[t].Add(y)
				return true
			})
		}

		s.uOnes[target] -= covCnt
		s.eOnes[target] += errCnt
		if covCnt != errCnt {
			// Same single-multiply form as gainDir, so Gain(r) computed
			// immediately before AddRule(r) matches the score change
			// exactly (negation is lossless in floating point).
			s.corrLen[target] += l * float64(errCnt-covCnt)
		}
	}
}

// AddRule appends r to the table and updates all incremental structures.
// The change in Score equals -Gain(r) computed immediately before the call.
func (s *State) AddRule(r Rule) {
	if r.AppliesTo(dataset.Left) {
		s.applyDir(dataset.Left, s.d.SupportSet(dataset.Left, r.X), r.Y)
	}
	if r.AppliesTo(dataset.Right) {
		s.applyDir(dataset.Right, s.d.SupportSet(dataset.Right, r.Y), r.X)
	}
	s.table.Rules = append(s.table.Rules, r)
	s.checkFinite()
}

// EvaluateTable scores an arbitrary translation table against a dataset by
// replaying its rules through a fresh state. Because translation is
// order-independent, the resulting state is canonical for the table. This
// is how baseline rule sets (MAGNUM OPUS, REREMI, KRIMP) are compared
// under the paper's encoding in Table 3.
func EvaluateTable(d *dataset.Dataset, coder *mdl.Coder, t *Table) *State {
	s := NewState(d, coder)
	for _, r := range t.Rules {
		s.AddRule(r)
	}
	return s
}

// CompressionRatio returns L% = L(D,T) / L(D,∅) as a percentage. An empty
// dataset has ratio 100 (nothing to compress). Ratios above 100 mean the
// table inflates the translation.
func (s *State) CompressionRatio() float64 {
	base := s.Baseline()
	if base == 0 {
		return 100
	}
	return 100 * s.Score() / base
}

// CorrectionRatio returns |C|% = |C| / ((|I_L|+|I_R|)·|D|) as a percentage
// (Table 3).
func (s *State) CorrectionRatio() float64 {
	cells := (s.d.Items(dataset.Left) + s.d.Items(dataset.Right)) * s.d.Size()
	if cells == 0 {
		return 0
	}
	return 100 * float64(s.CorrectionOnes()) / float64(cells)
}

// checkFinite panics if the score became NaN/Inf, which would indicate a
// rule or correction referencing a zero-support item.
func (s *State) checkFinite() {
	if sc := s.Score(); math.IsNaN(sc) || math.IsInf(sc, 0) {
		panic("core: non-finite score; rule or correction uses a zero-support item")
	}
}
