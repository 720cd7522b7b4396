package core

import (
	"context"
	"errors"
	"testing"
)

// Core's tests never link internal/shard, so a sharded request has no
// engine: all three miners must fail with the unlinked-engine error —
// no panic, and no silent fallback to the monolith.
func TestShardedRunWithoutEngine(t *testing.T) {
	if newShardCover != nil {
		t.Fatal("a sharded cover is registered: internal/shard is linked into core's tests, so this test proves nothing")
	}
	ctx := context.Background()
	d := plantedDataset(t, 5)
	cands, err := MineCandidates(ctx, d, 1, 0, ParallelOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	miners := []struct {
		name string
		mine func(ParallelOptions) (*Result, error)
	}{
		{"exact", func(par ParallelOptions) (*Result, error) {
			return MineExact(ctx, d, ExactOptions{ParallelOptions: par})
		}},
		{"select", func(par ParallelOptions) (*Result, error) {
			return MineSelect(ctx, d, cands, SelectOptions{K: 1, ParallelOptions: par})
		}},
		{"greedy", func(par ParallelOptions) (*Result, error) {
			return MineGreedy(ctx, d, cands, GreedyOptions{ParallelOptions: par})
		}},
	}
	for _, par := range []ParallelOptions{
		{Shards: 2},
		{ShardAddrs: []string{"127.0.0.1:1"}},
	} {
		for _, m := range miners {
			res, err := m.mine(par)
			if !errors.Is(err, errNoShardCover) {
				t.Fatalf("%s with %+v: err = %v, want the unlinked-engine error", m.name, par, err)
			}
			if res != nil {
				t.Fatalf("%s with %+v: returned a result (%d rules) without an engine", m.name, par, len(res.Table.Rules))
			}
		}
	}
}
