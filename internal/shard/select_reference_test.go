package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/mdl"
	"twoview/internal/synth"
)

// This file pins core.MineSelect's incremental rounds (cached gains,
// dirty re-scoring, bounded top-k) to referenceSelect: the round loop
// that re-scores every quick-bound survivor each round and sorts all
// scored rules, kept as an executable specification the way eclat
// keeps referenceMine. It lives here because this is the one test
// binary that links both cover backends (core's own tests must run
// without a sharded engine), so the same oracle checks the monolithic
// cover and the sharded one.

// gainEpsilon mirrors core's acceptance threshold for a positive gain.
const gainEpsilon = 1e-9

// referenceSelect is TRANSLATOR-SELECT(k) with a full re-score and a
// full sort every round, on the cover backend par selects. It returns
// the recorded iterations.
func referenceSelect(ctx context.Context, d *dataset.Dataset, cands []core.Candidate, k int, par core.ParallelOptions) ([]core.IterationStats, error) {
	coder := mdl.NewCoder(d)
	c, err := core.OpenCover(ctx, d, coder, cands, nil, par)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	var survivors []int32
	for ci := range cands {
		cd := &cands[ci]
		qub := float64(cd.TidX.Count())*coder.SetLen(dataset.Right, cd.Y) +
			float64(cd.TidY.Count())*coder.SetLen(dataset.Left, cd.X) -
			coder.RuleLen(cd.X, cd.Y, true)
		if qub > gainEpsilon {
			survivors = append(survivors, int32(ci))
		}
	}
	type scored struct {
		rule core.Rule
		gain float64
	}
	var its []core.IterationStats
	for {
		gains, err := c.Score(ctx, survivors, nil)
		if err != nil {
			return its, err
		}
		var all []scored
		for i, ci := range survivors {
			cd, g := &cands[ci], gains[i]
			uni, bi := coder.RuleLen(cd.X, cd.Y, false), coder.RuleLen(cd.X, cd.Y, true)
			for _, sr := range []scored{
				{core.Rule{X: cd.X, Dir: core.Forward, Y: cd.Y}, g[0] - uni},
				{core.Rule{X: cd.X, Dir: core.Backward, Y: cd.Y}, g[1] - uni},
				{core.Rule{X: cd.X, Dir: core.Both, Y: cd.Y}, g[0] + g[1] - bi},
			} {
				if sr.gain > gainEpsilon {
					all = append(all, sr)
				}
			}
		}
		if len(all) == 0 {
			return its, nil
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].gain != all[b].gain {
				return all[a].gain > all[b].gain
			}
			return all[a].rule.Compare(all[b].rule) < 0
		})
		if len(all) > k {
			all = all[:k]
		}
		usedL, usedR := map[int]bool{}, map[int]bool{}
		added := false
		for _, sr := range all {
			if anyUsed(sr.rule.X, usedL) || anyUsed(sr.rule.Y, usedR) {
				continue
			}
			if err := c.Apply(sr.rule); err != nil {
				return its, err
			}
			it := c.Stats()
			it.Iteration, it.Rule, it.Gain = len(its)+1, sr.rule, sr.gain
			its = append(its, it)
			for _, i := range sr.rule.X {
				usedL[i] = true
			}
			for _, i := range sr.rule.Y {
				usedR[i] = true
			}
			added = true
		}
		if !added {
			return its, nil
		}
	}
}

func anyUsed(s []int, used map[int]bool) bool {
	for _, i := range s {
		if used[i] {
			return true
		}
	}
	return false
}

// sameIterations requires got to equal want rule for rule, with every
// float of every iteration equal bit for bit.
func sameIterations(t *testing.T, label string, got, want []core.IterationStats) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d iterations, reference %d", label, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Iteration != w.Iteration || g.Rule.Compare(w.Rule) != 0 {
			t.Fatalf("%s: iteration %d = %d %v, reference %d %v", label, i, g.Iteration, g.Rule, w.Iteration, w.Rule)
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"Gain", g.Gain, w.Gain}, {"Score", g.Score, w.Score}, {"TableLen", g.TableLen, w.TableLen},
			{"CorrLenL", g.CorrLenL, w.CorrLenL}, {"CorrLenR", g.CorrLenR, w.CorrLenR},
		} {
			if math.Float64bits(f.got) != math.Float64bits(f.want) {
				t.Fatalf("%s: iteration %d %s = %v, reference %v", label, i, f.name, f.got, f.want)
			}
		}
		if g.UncoveredL != w.UncoveredL || g.UncoveredR != w.UncoveredR || g.ErrorsL != w.ErrorsL || g.ErrorsR != w.ErrorsR {
			t.Fatalf("%s: iteration %d counts %+v, reference %+v", label, i, g, w)
		}
	}
}

// threePlantDataset plants three overlapping associations across the
// views plus noise, so SELECT runs several rounds in which accepted
// rules dirty only part of the candidates.
func threePlantDataset(seed int64) *dataset.Dataset {
	r := rand.New(rand.NewSource(seed))
	d := dataset.MustNew(dataset.GenericNames("l", 10), dataset.GenericNames("r", 10))
	plants := [][2][]int{{{0, 1}, {0, 1}}, {{1, 2, 3}, {2, 3}}, {{4, 5}, {3, 4, 5}}}
	for i := 0; i < 120; i++ {
		var inL, inR [10]bool
		for _, p := range plants {
			if r.Intn(3) == 0 {
				for _, j := range p[0] {
					inL[j] = true
				}
				for _, j := range p[1] {
					inR[j] = true
				}
			}
		}
		for j := 0; j < 10; j++ {
			if r.Intn(6) == 0 {
				inL[j] = true
			}
			if r.Intn(6) == 0 {
				inR[j] = true
			}
		}
		var left, right []int
		for j := 0; j < 10; j++ {
			if inL[j] {
				left = append(left, j)
			}
			if inR[j] {
				right = append(right, j)
			}
		}
		if err := d.AddRow(left, right); err != nil {
			panic(err)
		}
	}
	return d
}

// twinDataset plants two associations of identical shape on disjoint
// items and rows, so their rules tie on gain exactly and the order
// between them comes from Rule.Compare alone.
func twinDataset() *dataset.Dataset {
	d := dataset.MustNew(dataset.GenericNames("l", 5), dataset.GenericNames("r", 5))
	for i := 0; i < 40; i++ {
		var left, right []int
		switch {
		case i < 15:
			left, right = []int{0, 1}, []int{0, 1}
		case i < 30:
			left, right = []int{2, 3}, []int{2, 3}
		default:
			left, right = []int{4}, []int{4}
		}
		if err := d.AddRow(left, right); err != nil {
			panic(err)
		}
	}
	return d
}

// TestSelectMatchesReference requires MineSelect to equal the
// full-rescore reference on planted data and small-scale profiles, for
// k ∈ {1, 3, 25} × workers {1, 2, 4} on the monolithic cover and on two
// shards.
func TestSelectMatchesReference(t *testing.T) {
	ctx := context.Background()
	type input struct {
		name string
		d    *dataset.Dataset
		sup  int
	}
	inputs := []input{{"planted", threePlantDataset(3), 5}, {"twins", twinDataset(), 5}}
	for _, pc := range []struct {
		name  string
		scale float64
	}{{"house", 0.5}, {"mammals", 0.05}, {"cal500", 0.3}, {"adult", 0.02}, {"tictactoe", 0.3}} {
		p, err := synth.ProfileByName(pc.name)
		if err != nil {
			t.Fatal(err)
		}
		p = p.Scaled(pc.scale)
		d, _, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{pc.name, d, p.MinSupport})
	}
	for _, in := range inputs {
		cands, _, err := core.MineCandidatesCapped(ctx, in.d, in.sup, 5000, core.Parallel(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3, 25} {
			want, err := referenceSelect(ctx, in.d, cands, k, core.Parallel(1))
			if err != nil {
				t.Fatal(err)
			}
			if len(want) < 2 {
				t.Fatalf("%s k=%d: reference accepts %d rules; the input must run several rounds", in.name, k, len(want))
			}
			for _, shards := range []int{0, 2} {
				for _, workers := range []int{1, 2, 4} {
					label := fmt.Sprintf("%s k=%d shards=%d workers=%d", in.name, k, shards, workers)
					// MaxRules never binds a correct run; it turns a stale
					// cached gain, which re-accepts a rule forever, into a
					// length mismatch.
					res, err := core.MineSelect(ctx, in.d, cands, core.SelectOptions{K: k, MaxRules: len(want) + 1,
						ParallelOptions: core.ParallelOptions{Workers: workers, Shards: shards}})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameIterations(t, label, res.Iterations, want)
				}
			}
		}
	}
}
