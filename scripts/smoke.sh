#!/usr/bin/env bash
# Two-process smoke: the real binaries, two kill -9s and a SIGTERM. What soak.sh and
# failover_soak.sh asserted, and the Go test that asserts it since PR 14:
#   under a seeded wire-fault schedule: mode ingest, N/N tenants attached,
#     accepted = processed = N x frames, no shard dropped a frame .. TestServeIngest
#   an un-promoted standby answers 200 "standby"; the primary dies mid-stream
#     with no final flush; the standby promotes; every client fails over with
#     every frame acked; the promoted fleet holds every tenant, dropped
#     nothing, accepted = processed > 0 ........................... TestServeFailover
#   a promoted standby serves exactly the replicated tenants, on its own
#     ingest listener ........................ TestSelectorMismatch, TestServeFailover
#   an ingest server killed mid-stream restarts on its state dir with every
#     tenant restored at its position; every client resumes, none lost
#     ....................................... TestServeWarmRestart/ingest, TestRouterRestoresTenants
#   SIGTERM under live traffic stops admitting before the final drain: every
#     confirmed frame is in the final checkpoint and on the standby .. TestShutdownFlushes
#   a pump wedged on a connection still ends SIGTERM, dumped, exit 1 .. TestShutdownWedgedPump
#   a writer killed at any point leaves a directory that verifies
#     ............................... TestCrashPointRecovery, TestVerifyDir (store)
#   the server is race-clean ...................... go test -race ./internal/serve
# (per-tenant endpoints: TestTenantTelemetry). Kept here, once, through
# `drifttool health`, `inspect -verify` and `inspect` on the newest
# checkpoint file: all of it end to end in separate processes (server
# race-instrumented), the standby's promotion log line, and the shutdown
# path once: the restarted server is stopped with SIGTERM, exits 0 after
# flushing its final checkpoint, and leaves a state dir that verifies.
#
# Usage:  scripts/smoke.sh        FRAMES=300 PORT=19290 scripts/smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
tenants=2 frames="${FRAMES:-200}" p="${PORT:-19290}" # ports p .. p+4
bin=$(mktemp -d)
pids=()
trap 'kill -9 "${pids[@]}" 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$bin"' EXIT
fail() { echo "smoke: FAIL — $*" >&2; tail -n 40 "$bin"/*.log "$bin"/feed.out >&2; exit 1; }
serve() { "$bin/driftserve" "${@:2}" -scale 0.02 -train 120 >"$bin/$1.log" 2>&1 & pids+=($!); }
up() { # /healthz on port $1 answers while the newest server lives
	for _ in $(seq 1 120); do
		"$bin/drifttool" health "localhost:$1" >/dev/null 2>&1 && return
		kill -0 "${pids[-1]}" 2>/dev/null || break
		sleep 0.5
	done
	fail "no /healthz on :$1"
}

echo "smoke: building driftserve (race-instrumented), driftfeed, drifttool"
go build -race -o "$bin/driftserve" ./cmd/driftserve
go build -o "$bin/driftfeed" ./cmd/driftfeed
go build -o "$bin/drifttool" ./cmd/drifttool

fleet=(-max-tenants 8 -tenant-queue 64 -batch 8)
serve primary -addr "localhost:$p" -ingest-addr "localhost:$((p + 1))" \
	-replicate-to "localhost:$((p + 2))" -replicate-every 100ms "${fleet[@]}"
pri=${pids[-1]}
up "$p"
serve standby -addr "localhost:$((p + 3))" -ingest-addr "localhost:$((p + 4))" -standby-of "localhost:$p" \
	-replica-addr "localhost:$((p + 2))" -probe-every 200ms -probe-fails 3 "${fleet[@]}"
up "$((p + 3))"
sleep 1 # a base generation on the standby before the feed starts

echo "smoke: feeding $tenants tenants x $frames frames through the failover address list"
"$bin/driftfeed" -addr "localhost:$((p + 1)),localhost:$((p + 4))" -tenants "$tenants" \
	-frames "$frames" -fps 40 -scale 0.02 >"$bin/feed.out" 2>&1 & # paced: the kill lands mid-stream
feed=$!
sleep 3
echo "smoke: kill -9 primary"
kill -9 "$pri" && wait "$pri" 2>/dev/null || true
wait "$feed" || fail "driftfeed lost frames across the failover"
cat "$bin/feed.out"
grep -Eq "failovers [1-9]" "$bin/feed.out" || fail "no tenant recorded a failover"
sleep 1 # the promoted fleet's connections drain the tail
health=$("$bin/drifttool" health "localhost:$((p + 3))") || fail "promoted standby unhealthy"
printf '%s\n' "$health"
grep -q "mode: ingest" <<<"$health" || fail "standby never promoted"
grep -q "promoted to primary at generation" "$bin/standby.log" || fail "no promotion record in the standby's log"
grep -q "total dropped: 0" <<<"$health" || fail "frames were dropped on the promoted standby"
grep -q "ingest: $tenants/$tenants tenants attached" <<<"$health" || fail "expected $tenants attached tenants"
read -r acc proc < <(sed -n 's/.*accepted \([0-9]*\)   processed \([0-9]*\).*/\1 \2/p' <<<"$health")
[ "${acc:-0}" -ge 1 ] && [ "$acc" = "$proc" ] || fail "accepted ${acc:-?} != processed ${proc:-?}"

echo "smoke: kill -9 a persisting ingest server mid-stream, restart it on its state dir"
ingest=(-addr "localhost:$p" -ingest-addr "localhost:$((p + 1))" -state-dir "$bin/istate" -checkpoint-every 200ms "${fleet[@]}")
serve ingest1 "${ingest[@]}"
up "$p"
# The address twice: while the server is down a refused connection waits
# and retries, as during a failover, rather than spend the frame's attempts.
"$bin/driftfeed" -addr "localhost:$((p + 1)),localhost:$((p + 1))" -tenants "$tenants" \
	-frames "$frames" -fps 40 -scale 0.02 >"$bin/ifeed.out" 2>&1 &
feed=$!
sleep 3
kill -9 "${pids[-1]}" && wait "${pids[-1]}" 2>/dev/null || true
[ -n "$(ls -A "$bin/istate" 2>/dev/null)" ] || fail "the persisting server wrote no checkpoint"
"$bin/drifttool" -verify inspect "$bin/istate" >/dev/null || fail "a killed server left a damaged checkpoint"
newest=$(ls "$bin"/istate/checkpoint-*.vdc | tail -n 1) # zero-padded generations sort
inspect=$("$bin/drifttool" inspect "$newest") || fail "drifttool inspect could not read $newest"
grep -Eq "shard 0: .* drifts=[0-9]+ selections=[0-9]+ trainings=[0-9]+$" <<<"$inspect" ||
	fail "inspect printed no shard 0 line with its drift, selection and training counts"
serve ingest2 "${ingest[@]}"
up "$p"
health=$("$bin/drifttool" health "localhost:$p") || fail "restarted ingest server unhealthy"
printf '%s\n' "$health"
grep -q "warm restart from" "$bin/ingest2.log" || fail "the second life cold-started"
# Restored tenants are attached without an attach: only the checkpoint put them there.
grep -q "ingest: $tenants/$tenants tenants attached" <<<"$health" && grep -q "attaches 0 " <<<"$health" ||
	fail "the second life did not restore its $tenants tenants"
wait "$feed" || fail "driftfeed lost frames across the restart"
cat "$bin/ifeed.out"
grep -q " 0 failed" "$bin/ifeed.out" || fail "driftfeed lost frames across the restart"
sleep 1 # the connections drain the tail
health=$("$bin/drifttool" health "localhost:$p") || fail "restarted ingest server unhealthy"
grep -q "total dropped: 0" <<<"$health" || fail "frames were dropped after the restart"
read -r acc proc < <(sed -n 's/.*accepted \([0-9]*\)   processed \([0-9]*\).*/\1 \2/p' <<<"$health")
[ "${acc:-0}" -ge 1 ] && [ "$acc" = "$proc" ] || fail "accepted ${acc:-?} != processed ${proc:-?} after the restart"
echo "smoke: SIGTERM the restarted ingest server"
kill -TERM "${pids[-1]}"
status=0
wait "${pids[-1]}" || status=$?
[ "$status" = 0 ] || fail "SIGTERM: the restarted server exited $status"
grep -q "flushing final checkpoint" "$bin/ingest2.log" || fail "SIGTERM: no final checkpoint flushed"
grep -q ": exiting$" "$bin/ingest2.log" || fail "SIGTERM: no exiting line"
"$bin/drifttool" -verify inspect "$bin/istate" >/dev/null || fail "SIGTERM left a damaged checkpoint"
if grep -il "DATA RACE" "$bin"/*.log; then fail "race detected"; fi
echo "smoke: ok — primary killed mid-stream, standby promoted, ingest server killed (state verified), restarted with its tenants and stopped by SIGTERM (flushed, state verified), zero frames lost"
