package core

import (
	"context"
	"fmt"
	"testing"

	"twoview/internal/dataset"
	"twoview/internal/itemset"
)

// TestDegenerateInputs runs degenerate dataset shapes through the whole
// pipeline — capped candidate mining, SELECT(1), SELECT(25), GREEDY and
// the compiled Translator — and pins the exact outputs: none of these
// shapes admits a rule that compresses, so every table is empty, L% is
// 100 and every translation is empty.
func TestDegenerateInputs(t *testing.T) {
	span := func(lo, hi int) []int {
		var s []int
		for i := lo; i < hi; i++ {
			s = append(s, i)
		}
		return s
	}
	type row = [2][]int
	full := row{span(0, 3), span(0, 3)}
	type cand struct {
		x, y itemset.Itemset
		supp int
	}
	cases := []struct {
		name   string
		nL, nR int
		rows   []row
		cands  []cand
	}{
		{"zero rows", 3, 3, nil, nil},
		{"all-empty rows", 3, 3, []row{{}, {}, {}}, nil},
		{"empty vocabulary", 0, 0, []row{{}, {}}, nil},
		{"all-ones columns", 3, 3, []row{full, full, full, full},
			[]cand{{span(0, 3), span(0, 3), 4}}},
		{"single row", 4, 4, []row{{{0, 2}, {1, 3}}},
			[]cand{{itemset.New(0, 2), itemset.New(1, 3), 1}}},
		{"70x70 two rows", 70, 70, []row{{span(0, 45), span(0, 45)}, {span(25, 70), span(25, 70)}},
			[]cand{{span(25, 45), span(25, 45), 2}, {span(0, 45), span(0, 45), 1}, {span(25, 70), span(25, 70), 1}}},
	}
	ctx := context.Background()
	for _, c := range cases {
		d := dataset.MustNew(dataset.GenericNames("l", c.nL), dataset.GenericNames("r", c.nR))
		for _, r := range c.rows {
			if err := d.AddRow(r[0], r[1]); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 2} {
			label := fmt.Sprintf("%s workers=%d", c.name, workers)
			par := Parallel(workers)
			cands, minsup, err := MineCandidatesCapped(ctx, d, 1, 1000, par)
			if err != nil || minsup != 1 {
				t.Fatalf("%s: candidates minsup %d, err %v", label, minsup, err)
			}
			if len(cands) != len(c.cands) {
				t.Fatalf("%s: %d candidates, want %d", label, len(cands), len(c.cands))
			}
			for i, w := range c.cands {
				if g := cands[i]; !g.X.Equal(w.x) || !g.Y.Equal(w.y) || g.Supp != w.supp {
					t.Fatalf("%s: candidate %d = %v|%v/%d, want %v|%v/%d", label, i, g.X, g.Y, g.Supp, w.x, w.y, w.supp)
				}
			}
			var results []*Result
			for _, k := range []int{1, 25} {
				res, err := MineSelect(ctx, d, cands, SelectOptions{K: k, ParallelOptions: par})
				if err != nil {
					t.Fatalf("%s: SELECT(%d): %v", label, k, err)
				}
				results = append(results, res)
			}
			res, err := MineGreedy(ctx, d, cands, GreedyOptions{ParallelOptions: par})
			if err != nil {
				t.Fatalf("%s: GREEDY: %v", label, err)
			}
			results = append(results, res)
			for i, res := range results {
				if n := len(res.Table.Rules); n != 0 || len(res.Iterations) != 0 {
					t.Fatalf("%s: table %d has %d rules, want none", label, i, n)
				}
				if l := res.State.CompressionRatio(); l != 100 {
					t.Fatalf("%s: table %d L%% = %v, want 100", label, i, l)
				}
			}
			tr, err := CompileTranslator(d, res.Table)
			if err != nil || tr.Rules() != 0 {
				t.Fatalf("%s: translator with %d rules, err %v", label, tr.Rules(), err)
			}
			for i := 0; i < d.Size(); i++ {
				for _, from := range []dataset.View{dataset.Left, dataset.Right} {
					if got := tr.Translate(from, d.Row(from, i)); len(got) != 0 {
						t.Fatalf("%s: row %d from %v translates to %v", label, i, from, got)
					}
				}
			}
		}
	}
}
