#!/usr/bin/env bash
# Runs the hot-path benchmarks behind the kNN kernel and the parallel
# selection engine (kNN scoring brute vs fast, Drift Inspector observe,
# the two featurizers over 512 wire-quantised night and angle frames,
# MSBI worker/model scaling, sharded monitoring throughput), the two
# detectors on one frame (the annotator labels every training's frames),
# the training benchmarks (one Adam step dense and with idle coordinates, one
# experiment-scale classifier fit and one step of it, one serving-time
# training with and without the MSBO ensemble, one tenant attach under
# each selector and the B/tenant it leaves on the heap, and driftserve's
# whole msbi set-up with what it allocates) and the ingest
# tier's per-arrival path (Submit + Pump per frame, and the same frame
# through the front door: socket → the ask's ACK → fed in place, 1 and
# 8 tenants a frame and its ask a round, and one tenant's window of 8
# frames and its ask),
# the admission scan every frame passes (1024 pixels, against the
# retained per-pixel loop), what a model costs a checkpoint or a
# replication delta (encode time and B/entry, lean and full) and what a
# retained drift declaration holds in pixels (B/declaration, beside the
# recorder-state clone every supervised batch pays for),
# and writes the results as machine-readable JSON.
#
# Usage:  scripts/bench_knn.sh [out.json]
#   BENCHTIME=200ms COUNT=3 scripts/bench_knn.sh   # quicker / repeated runs
#   PROFILE=prof scripts/bench_knn.sh              # also capture profiles
#
# With PROFILE=<dir>, the run additionally writes cpu.out, mutex.out and
# block.out pprof profiles (plus the bench.test binary to resolve them)
# into <dir> — `go tool pprof prof/bench.test prof/cpu.out` shows where
# the kernel and the pool actually spend their time, and the mutex/block
# profiles expose any contention the work-stealing pool introduces.
#
# Output (default BENCH_knn.json): the box the numbers belong to (CPU
# model, GOMAXPROCS, online processors — a baseline from another box is
# not a regression), then one entry per benchmark line with the parsed
# iteration count and every reported metric (ns/op, B/op, allocs/op,
# ns/frame, B/entry, B/tenant, B/declaration) keyed by a JSON-safe unit name. The profiles cover the root
# package's benchmarks only: go test profiles one package per run.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_knn.json}"
benchtime="${BENCHTIME:-1s}"
count="${COUNT:-1}"

profflags=()
if [ -n "${PROFILE:-}" ]; then
	mkdir -p "$PROFILE"
	profflags=(
		-cpuprofile "$PROFILE/cpu.out"
		-mutexprofile "$PROFILE/mutex.out"
		-blockprofile "$PROFILE/block.out"
		-o "$PROFILE/bench.test"
	)
fi

raw=$(go test -run=NONE \
	-bench 'KNNScore|DriftInspectorObserve|Featurize$|QueryFeatures|MSBIParallel|ShardedThroughput|Provision|AttachTenant|DetectorsPerFrame|BuildEnv' \
	-benchtime "$benchtime" -count "$count" "${profflags[@]}" .
	go test -run=NONE -bench 'AdamStep|ClassifierFit|ClassifierTrainStep' \
		-benchtime "$benchtime" -count "$count" ./internal/nn ./internal/classifier
	go test -run=NONE -bench 'RouterSubmitPump|ServeConnFrame' -benchmem \
		-benchtime "$benchtime" -count "$count" ./internal/ingest
	go test -run=NONE -bench 'PixelsProblem|EncodeEntry|RecorderRetention' \
		-benchtime "$benchtime" -count "$count" ./internal/core ./internal/store ./internal/forensics)
printf '%s\n' "$raw" >&2
if [ -n "${PROFILE:-}" ]; then
	echo "profiles in $PROFILE: cpu.out mutex.out block.out (resolve with $PROFILE/bench.test)" >&2
fi

printf '%s\n' "$raw" | awk -v date="$(date -u +%FT%TZ)" -v nproc="$(nproc)" '
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
	name = $1
	# The -N suffix is GOMAXPROCS; go test leaves it off at 1.
	procs = 1
	if (match(name, /-[0-9]+$/)) procs = substr(name, RSTART + 1) + 0
	sub(/-[0-9]+$/, "", name)
	entry = sprintf("{\"name\":\"%s\",\"iterations\":%s", name, $2)
	for (i = 3; i + 1 <= NF; i += 2) {
		unit = $(i + 1)
		if (unit == "ns/op")          key = "ns_per_op"
		else if (unit == "B/op")      key = "bytes_per_op"
		else if (unit == "allocs/op") key = "allocs_per_op"
		else {
			key = unit
			gsub(/\//, "_per_", key)
			gsub(/[^A-Za-z0-9_]/, "_", key)
		}
		entry = entry sprintf(",\"%s\":%s", key, $i)
	}
	entries[n++] = entry "}"
}
END {
	printf "{\n"
	printf "  \"generated\": \"%s\",\n", date
	printf "  \"goos\": \"%s\",\n", goos
	printf "  \"goarch\": \"%s\",\n", goarch
	printf "  \"cpu\": \"%s\",\n", cpu
	printf "  \"gomaxprocs\": %d,\n", procs
	printf "  \"nproc\": %d,\n", nproc
	printf "  \"benchmarks\": [\n"
	for (i = 0; i < n; i++)
		printf "    %s%s\n", entries[i], (i < n - 1 ? "," : "")
	printf "  ]\n}\n"
}
' >"$out"
echo "wrote $out" >&2
