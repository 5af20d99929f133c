#!/usr/bin/env bash
# Bench-regression smoke: re-runs the regression-gated benchmarks (kNN
# scoring at the 100×4 Σ every frame scores against, fast path and
# brute-force reference, the two featurizers, the sharded monitoring
# fan-out, one Adam step dense and with idle coordinates, one
# experiment-scale classifier fit and one step of it, the two detectors
# on one frame (the annotator labels every training's frames), one serving-time
# training with and without the MSBO ensemble, one tenant attach under
# each selector, the ingest router's Submit + Pump per frame and the same
# frame through a loopback connection, one frame or a window of eight
# and their ask a round, the
# per-frame admission scan, one model entry's encoding, the forensics
# recorder's state clone, set-up's four provisions) and fails when any of them
# lands more than THRESHOLD percent slower than the committed
# BENCH_knn.json baseline — or, for the entry encoding, the tenant
# attach and the recorder, more than THRESHOLD percent larger (B/entry,
# B/tenant, B/declaration: what a model costs a checkpoint, what an
# attached tenant keeps on the heap before its first frame, and the
# pixels a retained drift declaration holds) — or, for every benchmark
# whose baseline records allocs_per_op, allocates a single object more
# per op than it did (no threshold: an allocation count does not vary
# with the box, and the ingest tier's per-arrival path holds at 0). It
# prints the box the baseline was recorded on next to this one: across
# boxes the deltas are differences, not regressions.
#
# One row is the exception to the exact allocation gate: set-up
# (BenchmarkBuildEnv/msbi, driftserve's four-model provisioning under
# msbi) allocates a few objects more or fewer from run to run. Its four
# provisions run concurrently, and their labellers take the annotator's
# scratch from a sync.Pool that a collection may empty mid-op, so a miss
# allocates. Its B/op is gated under THRESHOLD instead: a set-up that
# renders its training clips whole again is ≈ 20× over.
#
# Usage:  scripts/bench_regress.sh [baseline.json]
#   THRESHOLD=25 BENCHTIME=300ms COUNT=3 scripts/bench_regress.sh
#
# The best (minimum) ns/op across COUNT runs is compared, so transient
# scheduler noise does not fail the gate; THRESHOLD defaults to 25% —
# loose enough to absorb machine-to-machine variance on CI runners,
# tight enough to catch a real kernel or supervisor regression. Faster
# is always fine: the gate is one-sided. Regenerate the baseline with
# scripts/bench_knn.sh after an intentional perf change.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="${1:-BENCH_knn.json}"
threshold="${THRESHOLD:-25}"
benchtime="${BENCHTIME:-300ms}"
count="${COUNT:-3}"

if [ ! -f "$baseline" ]; then
	echo "bench_regress: baseline $baseline not found (run scripts/bench_knn.sh)" >&2
	exit 1
fi

# The gated set: kNN scoring at the served Σ shape (the 4-wide register
# path; the 512×64 rows run the exact loop no served width reaches and
# stay ungated), the two featurizers (every
# frame passes the classifier's front-end, which carries the inspector's
# features), the sharded fan-out, training (the idle_late step is the one that cost ten dense steps; the
# annotator near 2× its row means its window bound stopped pruning; a
# lean Provision near the full one means an MSBI training fits ensembles
# again, an msbi attach near the msbo one that it calibrates them),
# the ingest pump and the connection loop, which run once per arrival,
# the admission scan, which runs once per frame, and a model entry's
# encoding: its bytes are what every checkpoint, delta and standby holds
# per model (an entry that carries pixels again is 50× over; a tracer
# that allocates its whole event ring at attach is 60× over on B/tenant;
# a recorder that keeps the frames the stride skipped is 9× over on
# B/declaration), and set-up (B/op: what boot allocates before the first
# /healthz).
raw=$(go test -run=NONE -bench 'KNNScore/sigma100x4|Featurize$|QueryFeatures|ShardedThroughput|Provision|AttachTenant|DetectorsPerFrame|BuildEnv' \
	-benchtime "$benchtime" -count "$count" .
	go test -run=NONE -bench 'AdamStep|ClassifierFit|ClassifierTrainStep' \
		-benchtime "$benchtime" -count "$count" ./internal/nn ./internal/classifier
	go test -run=NONE -bench 'RouterSubmitPump|ServeConnFrame' \
		-benchtime "$benchtime" -count "$count" ./internal/ingest
	go test -run=NONE -bench 'PixelsProblem/blocked|EncodeEntry|RecorderRetention' \
		-benchtime "$benchtime" -count "$count" ./internal/core ./internal/store ./internal/forensics)
printf '%s\n' "$raw" >&2

printf '%s\n' "$raw" | awk -v thr="$threshold" -v baseline="$baseline" -v nproc="$(nproc)" '
BEGIN {
	# Pull the recording box and ns_per_op per benchmark out of the
	# committed JSON (one field or benchmark object per line; no jq in
	# the image).
	while ((getline line < baseline) > 0) {
		if (line ~ /^  "(cpu|gomaxprocs|nproc)":/) {
			key = line; sub(/^  "/, "", key); sub(/".*/, "", key)
			val = line; sub(/^[^:]*: *"?/, "", val); sub(/"?,? *$/, "", val)
			box[key] = val
		}
		if (line !~ /"name":/ || line !~ /"ns_per_op":/) continue
		name = line; sub(/.*"name":"/, "", name); sub(/".*/, "", name)
		ns = line; sub(/.*"ns_per_op":/, "", ns); sub(/[,}].*/, "", ns)
		base[name] = ns + 0
		if (match(line, /"B_per_[a-z]+":/)) {
			unitB[name] = "B/" substr(line, RSTART + 7, RLENGTH - 9)
			b = substr(line, RSTART + RLENGTH); sub(/[,}].*/, "", b)
			baseB[name] = b + 0
		}
		if (match(line, /"allocs_per_op":/)) {
			a = substr(line, RSTART + RLENGTH); sub(/[,}].*/, "", a)
			baseA[name] = a + 0
		}
		# Rows whose object count varies: B/op under the threshold instead.
		if (name ~ /^BenchmarkBuildEnv\// && match(line, /"bytes_per_op":/)) {
			b = substr(line, RSTART + RLENGTH); sub(/[,}].*/, "", b)
			unitB[name] = "B/op"
			baseB[name] = b + 0
			delete baseA[name]
		}
	}
}
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
	name = $1
	procs = 1
	if (match(name, /-[0-9]+$/)) procs = substr(name, RSTART + 1) + 0
	sub(/-[0-9]+$/, "", name)
	if ($4 != "ns/op") next
	ns = $3 + 0
	if (!(name in cur) || ns < cur[name]) cur[name] = ns
	order[name] = ++seen[name] > 1 ? order[name] : ++n
	names[order[name]] = name
	for (i = 5; i + 1 <= NF; i += 2) {
		if ($(i + 1) ~ /^B\/[a-z]+$/) curB[name] = $i + 0
		# The most any run allocated: the allocation gate is exact.
		if ($(i + 1) == "allocs/op" && (!(name in curA) || $i + 0 > curA[name])) curA[name] = $i + 0
	}
}
END {
	status = 0
	printf "  baseline box: %s, GOMAXPROCS %s, %s processors\n", box["cpu"], box["gomaxprocs"], box["nproc"]
	printf "  this box:     %s, GOMAXPROCS %d, %d processors\n", cpu, procs, nproc
	for (i = 1; i <= n; i++) {
		name = names[i]
		if (!(name in base)) {
			printf "  skip      %-55s no committed baseline\n", name
			continue
		}
		delta = (cur[name] / base[name] - 1) * 100
		verdict = "ok"
		if (delta > thr) { verdict = "REGRESSION"; status = 1 }
		printf "  %-9s %-55s %11.1f ns/op vs %11.1f committed (%+.1f%%)\n",
			verdict, name, cur[name], base[name], delta
		if (name in baseA) {
			verdict = "ok"
			if (!(name in curA)) { verdict = "REGRESSION"; status = 1; curA[name] = -1 }
			else if (curA[name] > baseA[name]) { verdict = "REGRESSION"; status = 1 }
			printf "  %-9s %-55s %11d allocs/op vs %5d committed\n", verdict, name, curA[name], baseA[name]
		}
		if (!(name in baseB)) continue
		delta = (curB[name] / baseB[name] - 1) * 100
		verdict = "ok"
		if (delta > thr) { verdict = "REGRESSION"; status = 1 }
		printf "  %-9s %-55s %11d %s vs %9d committed (%+.1f%%)\n",
			verdict, name, curB[name], unitB[name], baseB[name], delta
	}
	if (n == 0) { print "bench_regress: no benchmark lines parsed"; status = 1 }
	exit status
}'
