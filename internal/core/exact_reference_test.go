package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"twoview/internal/bitset"
	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
	"twoview/internal/synth"
)

// This file pins MineExact's branch-and-bound — which keeps each
// node's per-item cover terms incrementally and carries supports down
// the search — to referenceExact: the same depth-first search written
// the direct way, recomputing both directions' gains item by item from
// the cover columns at every evaluated pair and counting every support
// afresh. It is an executable specification, serial and built on the
// State's exported accessors only, so it shares no search code with
// the miner. It lives in the external test package because it draws
// on the synthetic profiles (internal/synth imports core).

// refGainEpsilon mirrors core's acceptance threshold for a positive gain.
const refGainEpsilon = 1e-9

type refItem struct {
	view     dataset.View
	id       int
	col      *bitset.Set
	len, pot float64 // L(item | its view), Σ_{t∈col} tub(t_opposite)
}

// refExact is one best-rule search of the reference.
type refExact struct {
	s        *core.State
	opt      core.ExactOptions
	items    []refItem
	levels   [][2]*bitset.Set // per-depth joint and side supports
	tmp      *bitset.Set
	best     core.Rule
	bestGain float64
	found    bool
}

// referenceExact runs TRANSLATOR-EXACT with the reference search and
// returns the recorded iterations (rule, gain and score after adding).
func referenceExact(d *dataset.Dataset, opt core.ExactOptions) []core.IterationStats {
	s := core.NewState(d, mdl.NewCoder(d))
	var its []core.IterationStats
	for opt.MaxRules == 0 || len(its) < opt.MaxRules {
		re := &refExact{s: s, opt: opt, tmp: bitset.New(d.Size())}
		r, gain, ok := re.bestRule()
		if !ok || gain <= refGainEpsilon {
			break
		}
		s.AddRule(r)
		its = append(its, core.IterationStats{Iteration: len(its) + 1, Rule: r, Gain: gain, Score: s.Score()})
	}
	return its
}

// bestRule orders the occurring items by descending potential (view,
// then id, on ties), seeds the incumbent with every singleton pair and
// runs the pruned depth-first search over the joined items.
func (re *refExact) bestRule() (core.Rule, float64, bool) {
	s, d := re.s, re.s.Dataset()
	for _, v := range []dataset.View{dataset.Left, dataset.Right} {
		for i, col := range d.Columns(v) {
			if !col.Empty() {
				re.items = append(re.items, refItem{view: v, id: i, col: col,
					len: s.Coder().ItemLen(v, i), pot: s.SumTub(v.Opposite(), col)})
			}
		}
	}
	sort.Slice(re.items, func(a, b int) bool {
		ia, ib := re.items[a], re.items[b]
		if ia.pot != ib.pot {
			return ia.pot > ib.pot
		}
		if ia.view != ib.view {
			return ia.view < ib.view
		}
		return ia.id < ib.id
	})
	for _, li := range re.items {
		for _, ri := range re.items {
			if li.view == dataset.Left && ri.view == dataset.Right && li.col.Intersects(ri.col) {
				re.evaluate(itemset.New(li.id), itemset.New(ri.id), li.col, ri.col, li.len, ri.len)
			}
		}
	}
	full := bitset.New(d.Size())
	full.Fill()
	re.dfs(nil, nil, full, full, full, 0, 0, 0, 0)
	return re.best, re.bestGain, re.found
}

// dfs extends (x, y) by every item at position ≥ start: one side's
// support shrinks, the joint support must stay non-empty, rub prunes
// the subtree (summed afresh over both supports, in the same ascending
// order the miner's fused kernels use) and both-sided pairs are
// evaluated.
func (re *refExact) dfs(x, y itemset.Itemset, tidX, tidY, tidXY *bitset.Set, start, depth int, lenX, lenY float64) {
	if depth == len(re.levels) {
		n := re.s.Dataset().Size()
		re.levels = append(re.levels, [2]*bitset.Set{bitset.New(n), bitset.New(n)})
	}
	childXY, side := re.levels[depth][0], re.levels[depth][1]
	for k := start; k < len(re.items); k++ {
		it := re.items[k]
		childXY.Copy(tidXY)
		childXY.And(it.col)
		if childXY.Empty() {
			continue
		}
		cx, cy, ctX, ctY, clenX, clenY := x, y, tidX, tidY, lenX, lenY
		if it.view == dataset.Left {
			cx = x.Union(itemset.New(it.id))
			ctX = side
			ctX.Copy(tidX)
			ctX.And(it.col)
			clenX += it.len
		} else {
			cy = y.Union(itemset.New(it.id))
			ctY = side
			ctY.Copy(tidY)
			ctY.And(it.col)
			clenY += it.len
		}
		if !re.opt.DisableRub {
			rub := re.s.SumTub(dataset.Right, ctX) + re.s.SumTub(dataset.Left, ctY) - (clenX + clenY + 1)
			if rub < re.bestGain {
				continue
			}
		}
		if len(cx) > 0 && len(cy) > 0 {
			re.evaluate(cx, cy, ctX, ctY, clenX, clenY)
		}
		re.dfs(cx, cy, ctX, ctY, childXY, k+1, depth+1, clenX, clenY)
	}
}

// evaluate scores the three rules of (x, y) and keeps the champion under
// the (gain, Rule.Compare) order.
func (re *refExact) evaluate(x, y itemset.Itemset, tidX, tidY *bitset.Set, lenX, lenY float64) {
	lenBi := lenX + lenY + 1
	lenUni := lenX + lenY + 2
	if !re.opt.DisableQub {
		qub := float64(tidX.Count())*lenY + float64(tidY.Count())*lenX - lenBi
		if qub < re.bestGain {
			return
		}
	}
	gainF := re.gainDir(dataset.Right, tidX, y)
	gainB := re.gainDir(dataset.Left, tidY, x)
	for _, cand := range []struct {
		dir  core.Direction
		gain float64
	}{
		{core.Forward, gainF - lenUni},
		{core.Backward, gainB - lenUni},
		{core.Both, gainF + gainB - lenBi},
	} {
		r := core.Rule{X: x, Dir: cand.dir, Y: y}
		if cand.gain > re.bestGain || (re.found && cand.gain == re.bestGain && r.Compare(re.best) < 0) {
			re.best = core.Rule{X: x.Clone(), Dir: cand.dir, Y: y.Clone()}
			re.bestGain, re.found = cand.gain, true
		}
	}
}

// gainDir is Δ_{D|T} of one direction (Equation 2) for the consequent
// cons in the target view, its two counts per item taken with plain set
// operations: covered = |tids ∩ U[y]|, errors = |tids \ (supp(y) ∪ E[y])|.
func (re *refExact) gainDir(target dataset.View, tids *bitset.Set, cons itemset.Itemset) float64 {
	gain := 0.0
	for _, y := range cons {
		covered := bitset.AndCount(tids, re.s.UncoveredCol(target, y))
		re.tmp.Copy(tids)
		re.tmp.AndNot(re.s.Dataset().Columns(target)[y])
		re.tmp.AndNot(re.s.ErrorsCol(target, y))
		errs := re.tmp.Count()
		if covered == errs {
			continue
		}
		gain += re.s.Coder().ItemLen(target, y) * float64(covered-errs)
	}
	return gain
}

// refRandomDataset draws a small two-view dataset with a few planted
// cross-view patterns, so multi-item rules and several iterations occur.
func refRandomDataset(r *rand.Rand) *dataset.Dataset {
	nL, nR := 3+r.Intn(6), 3+r.Intn(6)
	d := dataset.MustNew(dataset.GenericNames("l", nL), dataset.GenericNames("r", nR))
	type pattern struct{ x, y []int }
	pats := make([]pattern, 1+r.Intn(3))
	for i := range pats {
		pats[i] = pattern{r.Perm(nL)[:1+r.Intn(3)], r.Perm(nR)[:1+r.Intn(3)]}
	}
	rows := 20 + r.Intn(100)
	for t := 0; t < rows; t++ {
		inL, inR := make([]bool, nL), make([]bool, nR)
		for _, p := range pats {
			if r.Float64() < 0.3 {
				for _, i := range p.x {
					inL[i] = true
				}
				for _, i := range p.y {
					inR[i] = true
				}
			}
		}
		var left, right []int
		for i := range inL {
			if inL[i] || r.Float64() < 0.2 {
				left = append(left, i)
			}
		}
		for i := range inR {
			if inR[i] || r.Float64() < 0.2 {
				right = append(right, i)
			}
		}
		if err := d.AddRow(left, right); err != nil {
			panic(err)
		}
	}
	return d
}

// TestExactMatchesReference asserts that MineExact accepts the
// reference's rule, with the same gain and score bits, on every
// iteration — over random data and two Table-1 profiles at a small
// scale, at several worker counts, with the §5.2 bounds on and off.
func TestExactMatchesReference(t *testing.T) {
	// maxRules caps a run (0: to convergence); noRubMax caps it without
	// rub, where the search enumerates every occurring pair, so the
	// profiles stop sooner.
	type dataCase struct {
		name               string
		d                  *dataset.Dataset
		profile            bool
		maxRules, noRubMax int
	}
	var cases []dataCase
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 12; i++ {
		cases = append(cases, dataCase{name: fmt.Sprintf("random%d", i), d: refRandomDataset(r)})
	}
	for _, pc := range []dataCase{
		{name: "car", profile: true, noRubMax: 2},
		{name: "tictactoe", profile: true, maxRules: 2, noRubMax: 1},
	} {
		p, err := synth.ProfileByName(pc.name)
		if err != nil {
			t.Fatal(err)
		}
		if pc.d, _, err = synth.Generate(p.Scaled(0.05)); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, pc)
	}
	bounds := []struct {
		name         string
		noRub, noQub bool
	}{{"rub+qub", false, false}, {"qub", true, false}, {"rub", false, true}, {"none", true, true}}
	multi := 0
	for _, dc := range cases {
		for _, b := range bounds {
			if testing.Short() && dc.profile && (b.noRub || b.noQub) {
				continue // -short: the profiles run with both bounds only
			}
			opt := core.ExactOptions{MaxRules: dc.maxRules, DisableRub: b.noRub, DisableQub: b.noQub}
			if b.noRub && dc.noRubMax > 0 {
				opt.MaxRules = dc.noRubMax
			}
			want := referenceExact(dc.d, opt)
			if b.name == "rub+qub" && len(want) > 1 {
				multi++
			}
			for _, workers := range []int{1, 2, 4} {
				opt.Workers = workers
				res, err := core.MineExact(context.Background(), dc.d, opt)
				if err != nil {
					t.Fatal(err)
				}
				got := res.Iterations
				label := fmt.Sprintf("%s/%s/workers=%d", dc.name, b.name, workers)
				if len(got) != len(want) {
					t.Fatalf("%s: %d iterations, reference %d", label, len(got), len(want))
				}
				for i := range want {
					g, w := got[i], want[i]
					if g.Rule.Compare(w.Rule) != 0 ||
						math.Float64bits(g.Gain) != math.Float64bits(w.Gain) ||
						math.Float64bits(g.Score) != math.Float64bits(w.Score) {
						t.Fatalf("%s iteration %d: got %v gain %v score %v, reference %v gain %v score %v",
							label, i+1, g.Rule, g.Gain, g.Score, w.Rule, w.Gain, w.Score)
					}
				}
			}
		}
	}
	// Terms only matter against a non-empty table: most runs must take
	// more than one rule, or the data no longer exercises them.
	if 2*multi < len(cases) {
		t.Fatalf("only %d of %d datasets took more than one rule", multi, len(cases))
	}
}
