#!/bin/sh
# cluster-smoke boots the full multi-process deployment — control plane,
# origin and two edges, one `cdnd ROLE` process each — on loopback, runs
# the load generator's chaos drill (fault edge 1 mid-run, require zero
# lost requests), and prints the control plane's shard and status views. The measured report lands in
# BENCH_cluster.json (override with OUT=...).
#
# Any component crashing, the drill losing a request, or the cluster
# failing to come up fails the script. CI runs this as `make
# cluster-smoke`; locally it needs only the Go toolchain.
set -eu

CONTROL_PORT="${CONTROL_PORT:-9300}"
ORIGIN_PORT="${ORIGIN_PORT:-9301}"
EDGE0_PORT="${EDGE0_PORT:-9310}"
EDGE1_PORT="${EDGE1_PORT:-9311}"
CONTROL="http://127.0.0.1:${CONTROL_PORT}"
OUT="${OUT:-BENCH_cluster.json}"
REQUESTS="${REQUESTS:-5000}"
WORKERS="${WORKERS:-8}"
BIN="${BIN:-./bin}"

echo "== building binaries into ${BIN}"
go build -o "${BIN}/" ./cmd/cdnd ./cmd/cdnctl

PIDS=""
cleanup() {
    # Kill the whole deployment; components drain on SIGTERM.
    for pid in $PIDS; do
        kill "$pid" 2>/dev/null || true
    done
    for pid in $PIDS; do
        wait "$pid" 2>/dev/null || true
    done
}
trap cleanup EXIT INT TERM

echo "== booting control plane + origin + 2 edges"
"${BIN}/cdnd" control -addr "127.0.0.1:${CONTROL_PORT}" -edges 2 \
    -interval 500ms -report-every 100ms -probe-every 100ms \
    -probe-timeout 500ms -fail-threshold 2 \
    -hysteresis=-1 -cooldown=-1 &
PIDS="$PIDS $!"
"${BIN}/cdnd" origin -addr "127.0.0.1:${ORIGIN_PORT}" -control "$CONTROL" &
PIDS="$PIDS $!"
"${BIN}/cdnd" edge -id 0 -addr "127.0.0.1:${EDGE0_PORT}" -control "$CONTROL" &
PIDS="$PIDS $!"
"${BIN}/cdnd" edge -id 1 -addr "127.0.0.1:${EDGE1_PORT}" -control "$CONTROL" &
PIDS="$PIDS $!"

echo "== chaos drill: ${REQUESTS} requests, fault edge 1 mid-run"
# cdnd load waits for the full roster, drives the load, injects an error
# fault into edge 1 for the middle ~40% of the run, and exits non-zero
# if any request was lost.
"${BIN}/cdnd" load -control "$CONTROL" \
    -requests "$REQUESTS" -workers "$WORKERS" \
    -fault-edge 1 -fault-mode error \
    -fault-from "$((REQUESTS / 4))" -fault-to "$((REQUESTS * 3 / 5))" \
    -out "$OUT"

echo "== estimator shards"
"${BIN}/cdnctl" -addr "127.0.0.1:${CONTROL_PORT}" shards
echo "== controller status"
"${BIN}/cdnctl" -addr "127.0.0.1:${CONTROL_PORT}" status
echo "== member health"
"${BIN}/cdnctl" -addr "127.0.0.1:${CONTROL_PORT}" health

echo "== report written to ${OUT}"
