#!/usr/bin/env bash
# Builds the benchmark and cmd/shardworker from the source tree around
# this directory, then runs one workload:
#
#   bash perfbench/run.sh --workload paper-wide --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there: the Go build cache, the binaries and the
# traced runs' span dumps.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off CGO_ENABLED=0

# Build output goes to stderr: the last line of stdout is the result.
go -C "$here" build -o "$out/perfbench" . >&2
go -C "$root" build -o "$out/shardworker" ./cmd/shardworker >&2

exec "$out/perfbench" --shardworker "$out/shardworker" --spans "$out/spans" "$@"
