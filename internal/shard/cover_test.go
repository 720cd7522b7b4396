package shard

import (
	"context"
	"fmt"
	"math"
	"testing"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
)

// TestCoverConformance pins the sharded cover to the monolithic one at
// the backend layer, below the drivers: on planted data, for 1, 2 and 3
// shards, every candidate's (gainF, gainB) and the IterationStats after
// each Apply of a fixed →/←/↔ rule sequence must agree bit for bit. A
// swapped forward/backward fold fails here, at the layer where it would
// happen, rather than as a different mined table.
func TestCoverConformance(t *testing.T) {
	ctx := context.Background()
	d := twoPlantDataset(t, 29)
	cands := mustCandidates(t, d)
	idx := make([]int32, len(cands))
	for i := range idx {
		idx[i] = int32(i)
	}
	rules := coverRules
	for _, tc := range []struct{ shards int }{{1}, {2}, {3}} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			mono, err := core.OpenCover(ctx, d, mdl.NewCoder(d), cands, nil, core.ParallelOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer mono.Close()
			sh := newCover(ctx, d, cands, nil, Config{Shards: tc.shards, Workers: 2})
			defer sh.Close()

			for step := 0; step <= len(rules); step++ {
				if step > 0 {
					r := rules[step-1]
					if err := mono.Apply(r); err != nil {
						t.Fatal(err)
					}
					if err := sh.Apply(r); err != nil {
						t.Fatal(err)
					}
					sameStats(t, fmt.Sprintf("after rule %d (%v)", step, r), mono.Stats(), sh.Stats())
				}
				want, err := mono.Score(ctx, idx, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sh.Score(ctx, idx, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("step %d: %d scores, want %d", step, len(got), len(want))
				}
				for i := range want {
					for dir, name := range [2]string{"gainF", "gainB"} {
						if math.Float64bits(got[i][dir]) != math.Float64bits(want[i][dir]) {
							t.Fatalf("step %d, candidate %d (%v|%v): %s = %v, monolith %v",
								step, i, cands[i].X, cands[i].Y, name, got[i][dir], want[i][dir])
						}
					}
				}
			}
		})
	}
}

// coverRules is the fixed →/←/↔ rule sequence the cover-level tests
// apply.
var coverRules = []core.Rule{
	{X: itemset.New(0, 1), Dir: core.Forward, Y: itemset.New(0, 1)},
	{X: itemset.New(2, 3), Dir: core.Backward, Y: itemset.New(2, 3)},
	{X: itemset.New(4), Dir: core.Both, Y: itemset.New(4, 5)},
	{X: itemset.New(0, 5), Dir: core.Backward, Y: itemset.New(1)},
	{X: itemset.New(3), Dir: core.Forward, Y: itemset.New(2, 5)},
}

// TestCoverCleanGainsUnchanged pins the invariant behind SELECT's cached
// gains at the backend layer: after each Apply of coverRules, every
// candidate the rule leaves clean — its Y misses the rule's right-view
// consequent (Y, when the rule applies from the left) and its X misses
// the left-view one (X, when it applies from the right) — must score
// bit for bit what it scored before the Apply, on the monolith and on
// 1, 2 and 3 shards.
func TestCoverCleanGainsUnchanged(t *testing.T) {
	ctx := context.Background()
	d := twoPlantDataset(t, 29)
	cands := mustCandidates(t, d)
	idx := make([]int32, len(cands))
	for i := range idx {
		idx[i] = int32(i)
	}
	for _, shards := range []int{0, 1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var c interface {
				Score(context.Context, []int32, [][2]float64) ([][2]float64, error)
				Apply(core.Rule) error
				Close()
			}
			if shards == 0 {
				mono, err := core.OpenCover(ctx, d, mdl.NewCoder(d), cands, nil, core.ParallelOptions{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				c = mono
			} else {
				c = newCover(ctx, d, cands, nil, Config{Shards: shards, Workers: 2})
			}
			defer c.Close()
			cached, err := c.Score(ctx, idx, nil)
			if err != nil {
				t.Fatal(err)
			}
			for step, r := range coverRules {
				if err := c.Apply(r); err != nil {
					t.Fatal(err)
				}
				fresh, err := c.Score(ctx, idx, nil)
				if err != nil {
					t.Fatal(err)
				}
				dirty := 0
				for i, cd := range cands {
					if r.AppliesTo(dataset.Left) && overlaps(cd.Y, r.Y) ||
						r.AppliesTo(dataset.Right) && overlaps(cd.X, r.X) {
						dirty++
						continue
					}
					for dir, name := range [2]string{"gainF", "gainB"} {
						if math.Float64bits(fresh[i][dir]) != math.Float64bits(cached[i][dir]) {
							t.Fatalf("after rule %d (%v), clean candidate %d (%v|%v): %s = %v, cached %v",
								step+1, r, i, cd.X, cd.Y, name, fresh[i][dir], cached[i][dir])
						}
					}
				}
				if dirty == 0 || dirty == len(cands) {
					t.Fatalf("rule %d (%v) dirties %d of %d candidates; the check needs both kinds", step+1, r, dirty, len(cands))
				}
				cached = fresh
			}
		})
	}
}

func overlaps(a, b itemset.Itemset) bool {
	for _, i := range a {
		if b.Contains(i) {
			return true
		}
	}
	return false
}

// sameStats asserts two covers report bit-identical IterationStats.
func sameStats(t *testing.T, label string, want, got core.IterationStats) {
	t.Helper()
	for _, f := range []struct {
		name      string
		want, got float64
	}{
		{"Score", want.Score, got.Score},
		{"TableLen", want.TableLen, got.TableLen},
		{"CorrLenL", want.CorrLenL, got.CorrLenL},
		{"CorrLenR", want.CorrLenR, got.CorrLenR},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Fatalf("%s: %s = %v, monolith %v", label, f.name, f.got, f.want)
		}
	}
	if got.UncoveredL != want.UncoveredL || got.UncoveredR != want.UncoveredR ||
		got.ErrorsL != want.ErrorsL || got.ErrorsR != want.ErrorsR {
		t.Fatalf("%s: counts %+v, monolith %+v", label, got, want)
	}
}
