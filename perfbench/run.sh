#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#
#   bash perfbench/run.sh --workload rpc --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# result records all stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$(dirname "$0")" && go build -buildvcs=false -o "$out/perfbench" .)

PERFBENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT
exec "$out/perfbench" "$@"
