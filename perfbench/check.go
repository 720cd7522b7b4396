package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"

	"twoview"
)

// checkResult verifies one mined table against properties that hold for
// every correct run:
//   - EvaluateTable's L% recomputes Summarize's bit for bit;
//   - Apply's Uncovered/Errors in each direction equal the final
//     State's counts for the target view;
//   - the OnIteration scores never increase.
func checkResult(ctx context.Context, d *twoview.Dataset, res *twoview.Result, scores []float64) error {
	if res == nil || res.Table == nil || res.State == nil {
		return fmt.Errorf("miner returned no table")
	}
	ev, sum := twoview.EvaluateTable(d, res.Table).LPct, twoview.Summarize(d, res).LPct
	if math.Float64bits(ev) != math.Float64bits(sum) {
		return fmt.Errorf("EvaluateTable L%% %v != Summarize L%% %v", ev, sum)
	}
	for _, from := range []twoview.View{twoview.Left, twoview.Right} {
		rep, err := twoview.Apply(ctx, d, res.Table, from)
		if err != nil {
			return fmt.Errorf("Apply from %v: %w", from, err)
		}
		to := from.Opposite()
		if u, e := res.State.UncoveredOnes(to), res.State.ErrorOnes(to); rep.Uncovered != u || rep.Errors != e {
			return fmt.Errorf("Apply from %v: uncovered/errors %d/%d, final state has %d/%d",
				from, rep.Uncovered, rep.Errors, u, e)
		}
	}
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[i-1] {
			return fmt.Errorf("OnIteration score rose at iteration %d: %v -> %v", i+1, scores[i-1], scores[i])
		}
	}
	if len(scores) != len(res.Table.Rules) {
		return fmt.Errorf("%d OnIteration calls for %d rules", len(scores), len(res.Table.Rules))
	}
	return nil
}

// goldenFile holds the sha256 of WriteTable's output for each
// profile/algorithm at paper scale and the profile's own generator seed.
// shard-tcp and paper-sparse share the elections entries, so both must
// produce the same bytes.
//
//go:embed golden.json
var goldenFile []byte

var (
	goldenOnce sync.Once
	goldens    map[string]string
	goldenErr  error
)

func digest(text []byte) string {
	h := sha256.Sum256(text)
	return hex.EncodeToString(h[:])
}

// checkGolden compares a table's digest with the recorded one. With
// update set, it records the digest in that file instead.
func checkGolden(profile, algo string, text []byte, update string) error {
	goldenOnce.Do(func() { goldenErr = json.Unmarshal(goldenFile, &goldens) })
	if goldenErr != nil {
		return fmt.Errorf("golden.json: %w", goldenErr)
	}
	key, got := profile+"/"+algo, digest(text)
	if update != "" {
		all := map[string]string{}
		if b, err := os.ReadFile(update); err == nil {
			json.Unmarshal(b, &all)
		}
		all[key] = got
		b, _ := json.MarshalIndent(all, "", "  ")
		return os.WriteFile(update, append(b, '\n'), 0o644)
	}
	want, ok := goldens[key]
	if !ok {
		return fmt.Errorf("%s: no golden digest recorded", key)
	}
	if want != got {
		return fmt.Errorf("%s: table digest %s, golden %s", key, got[:12], want[:12])
	}
	return nil
}

// batchReply is the body of a 200 /translate/batch response.
type batchReply struct {
	Rows  [][]int `json:"rows"`
	Epoch uint64  `json:"epoch"`
}

// checkReply verifies a served batch: the rows must equal the in-process
// Translator's answer, and the epoch must lie in [lo, hi] — at least the
// epoch of the last reload confirmed before sending, at most one more
// than the reloads started before the reply arrived.
func checkReply(body []byte, want [][]int, lo, hi uint64) error {
	var got batchReply
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("undecodable batch reply: %w", err)
	}
	if got.Epoch < lo || got.Epoch > hi {
		return fmt.Errorf("reply epoch %d outside [%d, %d]", got.Epoch, lo, hi)
	}
	if len(got.Rows) != len(want) {
		return fmt.Errorf("reply has %d rows, want %d", len(got.Rows), len(want))
	}
	for i := range want {
		if len(got.Rows[i]) != len(want[i]) {
			return fmt.Errorf("reply row %d: %v, want %v", i, got.Rows[i], want[i])
		}
		for j := range want[i] {
			if got.Rows[i][j] != want[i][j] {
				return fmt.Errorf("reply row %d: %v, want %v", i, got.Rows[i], want[i])
			}
		}
	}
	return nil
}
