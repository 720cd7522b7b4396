GO ?= go

.PHONY: test lint chaos chaos-shard chaos-net fuzz-smoke bench-kernels promote-baseline

# The tier-1 gate: everything CI's build/test steps enforce.
test:
	$(GO) build ./...
	$(GO) test ./...

# vet + the repo's own analyzer suite (cmd/twovet). Must run from the
# module root.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/twovet ./...

# The chaos suite: the deterministic failpoint registry (internal/fault)
# compiles in under -tags faultinject, and the scripted failure
# scenarios run under the race detector — injected handler panics,
# deadline blowouts, mid-stream reader faults, poisoned pool tasks,
# table reloads racing live batches, and the translatord overload storm.
chaos:
	$(GO) test -tags faultinject -race -count=1 ./internal/fault/ ./internal/dataset/ ./internal/pool/ ./internal/core/ ./internal/server/

# The sharded-mining chaos suite: scripted shard crashes (mid-score,
# mid-apply, mid-replay), lease blowouts, lost and duplicated
# completions — every scenario asserting the mined table stays
# bit-identical to the monolith while recovery demonstrably fired.
# Also re-runs the shard determinism grids with the failpoints
# compiled in.
chaos-shard:
	$(GO) test -tags faultinject -race -count=1 ./internal/shard/

# The network chaos suite: the TCP transport against real shardworker
# processes on loopback with scripted network faults — connections cut
# mid-frame, replies truncated at the wire, duplicated frames, a worker
# process killed and restarted mid-run against its on-disk blob cache.
# Every scenario asserts bit-identity to the monolith plus the recovery
# counters (restarts, redials, cache hits) that prove the machinery
# fired.
chaos-net:
	$(GO) test -tags faultinject -race -count=1 -run 'ChaosNet|TCP' ./internal/shard/

# 30-second native-fuzzing smoke on every fuzz target: the text
# readers and the shard wire codec (see README, "Fuzzing"). Each target
# runs separately: `go test -fuzz` accepts a single fuzz target per
# package invocation, so the patterns are anchored.
fuzz-smoke:
	$(GO) test -fuzz='^FuzzRowReader$$' -fuzztime=30s ./internal/dataset
	$(GO) test -fuzz='^FuzzRead$$' -fuzztime=30s ./internal/dataset
	$(GO) test -fuzz='^FuzzLoadARFF$$' -fuzztime=30s ./internal/dataset
	$(GO) test -fuzz='^FuzzLoadCSV$$' -fuzztime=30s ./internal/dataset
	$(GO) test -fuzz='^FuzzReadTable$$' -fuzztime=30s ./internal/core
	$(GO) test -fuzz='^FuzzWireCodec$$' -fuzztime=30s ./internal/wire

# Striped-vs-scalar kernel comparison: the same bitset and pool
# benchmarks under the default (striped) build and under the
# -tags bitset_scalar differential build, back to back. Diff the two
# outputs (or feed them to benchstat) to read the stripe speedups.
BENCH_KERNELS = BenchmarkAndCount|BenchmarkAndNot|BenchmarkCoverCounts|BenchmarkIntersectInto|BenchmarkWeightedSum|BenchmarkCount|BenchmarkEqual|BenchmarkSubsetOf|BenchmarkPhaseHandoff
bench-kernels:
	@echo '=== striped (default build) ==='
	$(GO) test -run='^$$' -bench '$(BENCH_KERNELS)' -benchtime 200ms -count 3 ./internal/bitset/ ./internal/pool/
	@echo '=== scalar (-tags bitset_scalar) ==='
	$(GO) test -tags bitset_scalar -run='^$$' -bench '$(BENCH_KERNELS)' -benchtime 200ms -count 3 ./internal/bitset/ ./internal/pool/

# Arm (or re-anchor) the benchmark regression gate from a green CI run:
# every run uploads a promotion-ready bench-baseline artifact recorded
# on the runner class the gate compares against. Usage:
#
#	make promote-baseline RUN=<ci-run-id>
#
# then review and commit bench/baseline.json.
promote-baseline:
ifndef RUN
	$(error usage: make promote-baseline RUN=<ci-run-id>)
endif
	gh run download $(RUN) -n bench-baseline -D bench
	git add bench/baseline.json
	@echo "bench/baseline.json staged; commit it to arm the regression gate"
