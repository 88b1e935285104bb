#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Every
# build artifact (binary, Go build cache, temp files) stays under
# .bench_build/ in the current directory, which must be the root of a
# checkout of the repository. Arguments are passed to the benchmark:
#   bash perfbench/run.sh --workload fb-lcof --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

go -C "$root/perfbench" build -trimpath -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
