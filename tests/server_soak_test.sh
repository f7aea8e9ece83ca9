#!/usr/bin/env bash
# Multi-connection soak: 8 concurrent loadgen connections drive a live
# nncell_server with a mixed query/insert/delete workload while STATS_JSON
# is polled over the wire, then the server is SIGTERM-drained. Checks:
#
#   * the loadgen run finishes with zero errors,
#   * live and final STATS_JSON parse and satisfy conservation
#     (accepted == completed + rejected) and malformed == 0,
#   * the drain is clean (exit 0, DRAINED line, checkpoint=ok),
#   * the checkpointed index is reloadable by a fresh server.
#
# Registered as a ctest in every preset; the tsan preset is the one this
# soak exists for (8 readers + dispatcher + listener under the race
# detector).
#
#   tests/server_soak_test.sh SERVER_BIN LOADGEN_BIN
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 SERVER_BIN LOADGEN_BIN" >&2
  exit 2
fi
SERVER_BIN=$1
LOADGEN_BIN=$2

SCRATCH=$(mktemp -d)
SOCK="$SCRATCH/soak.sock"
SRV_LOG="$SCRATCH/server.log"
SRV_PID=""
cleanup() {
  if [[ -n "$SRV_PID" ]] && kill -0 "$SRV_PID" 2>/dev/null; then
    kill -KILL "$SRV_PID" 2>/dev/null || true
  fi
  rm -rf "$SCRATCH"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  echo "--- server log ---" >&2
  cat "$SRV_LOG" >&2
  exit 1
}

start_server() {
  "$SERVER_BIN" "$SCRATCH/index" --socket="$SOCK" --dim=4 \
    >"$SRV_LOG" 2>&1 &
  SRV_PID=$!
  for _ in $(seq 200); do
    [[ -S "$SOCK" ]] && grep -q READY "$SRV_LOG" && return 0
    kill -0 "$SRV_PID" 2>/dev/null || break
    sleep 0.1
  done
  fail "server never reported READY"
}

# Parses a STATS_JSON body on stdin; exits nonzero if conservation is
# violated or malformed frames were counted.
check_stats() {
  python3 -c '
import json, sys
doc = json.load(sys.stdin)
s = doc["server"]
if s["accepted"] != s["completed"] + s["rejected"]:
    sys.exit(f"conservation violated: {s}")
if s["malformed"] != 0:
    sys.exit(f"malformed frames: {s}")
print("  stats ok: accepted=%d completed=%d rejected=%d open=%d"
      % (s["accepted"], s["completed"], s["rejected"],
         s["connections_open"]))
'
}

# Bad numeric flags are rejected up front: exit 2 with the usage line, and
# no index directory is created. The bad flag comes first, so it is the
# value read even where --dim=2 follows. A server that accepted one would
# start serving; the timeout turns that into a failure instead of a hang.
for bad in --max-queue=0 --max-batch=0 --max-queue=abc --max-batch=-1 \
    --max-queue=99999999999999999999999 --shards=two --shards=0 \
    --threads=four --threads=2x --dim=0 --dim=2x --tcp-port=0 \
    --tcp-port=65536 --tcp-port=http --metrics=yes --metrics=2; do
  set +e
  timeout 10 "$SERVER_BIN" "$SCRATCH/badflag" "$bad" \
    --socket="$SCRATCH/bad.sock" --dim=2 >"$SRV_LOG" 2>&1
  rc=$?
  set -e
  [[ $rc -eq 2 ]] || fail "$bad: exit $rc, want 2"
  grep -q "^usage: nncell_server" "$SRV_LOG" || fail "$bad: no usage line"
  [[ ! -e "$SCRATCH/badflag" ]] || fail "$bad: index directory was created"
done
echo "  bad numeric flags rejected with exit 2"

start_server

# 8 connections, mixed closed-loop workload. The op count keeps the soak
# around a few seconds even under tsan.
"$LOADGEN_BIN" --socket="$SOCK" --connections=8 --ops=2000 --preload=64 \
  --mix=70:20:10 --zipf=0.9 --seed=99 --label=soak \
  >"$SCRATCH/loadgen.json" &
LG_PID=$!

# Poll live stats over the wire while the soak runs. Conservation is only
# exact at quiescence, so mid-soak polls check parse + malformed only.
POLLS=0
while kill -0 "$LG_PID" 2>/dev/null; do
  if STATS=$("$LOADGEN_BIN" --socket="$SOCK" --stats 2>/dev/null); then
    echo "$STATS" | python3 -c '
import json, sys
s = json.load(sys.stdin)["server"]
if s["malformed"] != 0:
    sys.exit(f"malformed frames mid-soak: {s}")
' || fail "mid-soak stats check"
    POLLS=$((POLLS + 1))
  fi
  sleep 0.2
done
wait "$LG_PID" || fail "loadgen exited nonzero"
echo "  soak finished, $POLLS live stats polls"

python3 -c '
import json, sys
r = json.load(open(sys.argv[1]))["results"]
if r["errors"] != 0:
    sys.exit(f"loadgen errors: {r}")
if r["ok"] == 0:
    sys.exit("no ops completed")
print("  loadgen: %d/%d ok, %d rejected (backpressure)"
      % (r["ok"], r["sent"], r["rejected"]))
' "$SCRATCH/loadgen.json" || fail "loadgen results"

# Quiescent now: full conservation must hold over the wire.
"$LOADGEN_BIN" --socket="$SOCK" --stats | check_stats \
  || fail "final stats check"

# Clean drain: SIGTERM -> exit 0, DRAINED line, checkpoint written.
kill -TERM "$SRV_PID"
wait "$SRV_PID" || fail "server exited nonzero on SIGTERM"
SRV_PID=""
grep -q "DRAINED" "$SRV_LOG" || fail "no DRAINED line"
grep -q "checkpoint=ok" "$SRV_LOG" || fail "drain did not checkpoint"
DRAINED=$(grep DRAINED "$SRV_LOG")
ACCEPTED=$(sed -nE 's/.*accepted=([0-9]+).*/\1/p' <<<"$DRAINED")
COMPLETED=$(sed -nE 's/.*completed=([0-9]+).*/\1/p' <<<"$DRAINED")
REJECTED=$(sed -nE 's/.*rejected=([0-9]+).*/\1/p' <<<"$DRAINED")
if [[ $((COMPLETED + REJECTED)) -ne "$ACCEPTED" ]]; then
  fail "drain conservation: accepted=$ACCEPTED completed=$COMPLETED rejected=$REJECTED"
fi
echo "  drained: $DRAINED"

# The checkpoint is reloadable: a fresh server on the same directory
# comes up and answers stats.
start_server
"$LOADGEN_BIN" --socket="$SOCK" --stats | check_stats \
  || fail "restarted server stats"
kill -TERM "$SRV_PID"
wait "$SRV_PID" || fail "restarted server exited nonzero"
SRV_PID=""

echo "server soak: PASS"
