#!/usr/bin/env bash
# The benchmark's one command: build the benchmark and the driftserve it
# measures from this checkout's sources, then run it. Everything built or
# written stays under .bench_build/ in the checkout.
#
#   bash bench/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#   bash bench/run.sh -compare A.json B.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin"

# A hermetic toolchain: no downloads, no cache outside the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local GOPROXY=off

go build -C bench -o "$build/bin/bench" .
go build -C bench -o "$build/bin/driftserve" videodrift/cmd/driftserve

BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
exec "$build/bin/bench" -driftserve "$build/bin/driftserve" -workdir "$build" "$@"
