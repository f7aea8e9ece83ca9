#!/usr/bin/env bash
# End-to-end test of the nncell_cli tool: build an index from CSV,
# inspect it, persist + reload it, and run NN / k-NN queries.
set -euo pipefail
CLI="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

python3 - "$DIR" <<'PY'
import random, sys
random.seed(7)
d = sys.argv[1]
with open(d + "/pts.csv", "w") as f:
    f.write("# 200 random 3-d points\n")
    for _ in range(200):
        f.write(",".join("%.6f" % random.random() for _ in range(3)) + "\n")
with open(d + "/q.csv", "w") as f:
    for _ in range(5):
        f.write(",".join("%.6f" % random.random() for _ in range(3)) + "\n")
PY

"$CLI" build "$DIR/pts.csv" "$DIR/idx.nncell" --algorithm=sphere | grep -q "built"
"$CLI" stats "$DIR/idx.nncell" | grep -q "validation:         OK"
"$CLI" query "$DIR/idx.nncell" "$DIR/q.csv" | grep -c "nn id=" | grep -qx 5
"$CLI" query "$DIR/idx.nncell" "$DIR/q.csv" --k=3 | grep -qE "query 4: \(.*\) \(.*\) \(.*\)"
# parallel build must produce a byte-identical index; parallel query the
# same answers
"$CLI" build "$DIR/pts.csv" "$DIR/idx4.nncell" --algorithm=sphere --threads=4 | grep -q "built"
cmp "$DIR/idx.nncell" "$DIR/idx4.nncell"
"$CLI" query "$DIR/idx.nncell" "$DIR/q.csv" > "$DIR/serial.out"
"$CLI" query "$DIR/idx.nncell" "$DIR/q.csv" --threads=4 > "$DIR/parallel.out"
cmp "$DIR/serial.out" "$DIR/parallel.out"
# observability: stats --json is well-formed and byte-stable across runs;
# --trace prints one JSON timeline per query
"$CLI" stats "$DIR/idx.nncell" --json > "$DIR/stats1.json"
"$CLI" stats "$DIR/idx.nncell" --json > "$DIR/stats2.json"
cmp "$DIR/stats1.json" "$DIR/stats2.json"
python3 - "$DIR/stats1.json" <<'PY'
import json, sys
snap = json.load(open(sys.argv[1]))
assert snap["index"]["validation"] == "OK", snap["index"]
m = snap["metrics"]
assert m["query.nn.count"] > 0 and m["query.nn.candidates"] > 0, m
assert m["index.tree.node_visits"] > 0 and m["lp.solver.runs"] > 0, m
assert m["query.nn.candidates_per_query"]["count"] == m["query.nn.count"], m
assert snap["approx"] == {"enabled": 0}, snap["approx"]
# the exact plan (DESIGN.md): scan iff E * 64 >= N; at d=3 the 200 cells
# are expected to hold ~3.6 candidates, 1/55 of the points
idx = snap["index"]
assert idx["exact_plan"] == ("scan" if idx["expected_candidates"] * 64 >=
                             idx["points"] else "cell_probe"), idx
assert abs(idx["expected_fraction"] -
           idx["expected_candidates"] / idx["points"]) < 1e-6, idx
assert m["query.plan." + idx["exact_plan"]] == m["query.nn.count"], m
PY
"$CLI" stats "$DIR/idx.nncell" | grep -qE "^exact plan: +(scan|cell_probe) \(E/N 0\.[0-9]{4}\)$"
"$CLI" query "$DIR/idx.nncell" "$DIR/q.csv" --trace > "$DIR/trace.out"
grep -c '^trace [0-9]*: {' "$DIR/trace.out" | grep -qx 5
# a trace shows the executor that answered: the cell probe's two stages,
# or the scan's single distance_scan stage over every live point
python3 - "$DIR/trace.out" "$DIR/stats1.json" <<'PY'
import json, sys
plan = json.load(open(sys.argv[2]))["index"]["exact_plan"]
for line in open(sys.argv[1]):
    if not line.startswith("trace "):
        continue
    t = json.loads(line.split(": ", 1)[1])
    names = [s["name"] for s in t["stages"]]
    if plan == "scan":
        assert names == ["distance_scan"], t
        assert t["stages"][0]["items"] == t["candidates"] == 200, t
        assert t["logical_reads"] == 0 and not t["used_fallback"], t
    else:
        assert names[:2] == ["index_probe", "distance_scan"], t
PY
# approximate tier (docs/APPROXIMATE.md): with the knobs at their exact
# defaults the output stays byte-identical to a plain query; enabling a
# knob appends the certificate suffix to every line
"$CLI" query "$DIR/idx.nncell" "$DIR/q.csv" --epsilon=0 --max-visits=0 \
  > "$DIR/exact_flags.out"
cmp "$DIR/serial.out" "$DIR/exact_flags.out"
"$CLI" query "$DIR/idx.nncell" "$DIR/q.csv" --epsilon=0.2 > "$DIR/approx.out"
grep -cE ' approx=[01] visits=[0-9]+ bound=[0-9]+\.[0-9]+$' "$DIR/approx.out" \
  | grep -qx 5
"$CLI" query "$DIR/idx.nncell" "$DIR/q.csv" --k=3 --max-visits=1 \
  | grep -cE ' approx=1 visits=1 bound=' | grep -qx 5
! "$CLI" query "$DIR/idx.nncell" "$DIR/q.csv" --epsilon=bogus 2>/dev/null
! "$CLI" query "$DIR/idx.nncell" "$DIR/q.csv" --epsilon=-0.5 2>/dev/null
! "$CLI" query "$DIR/idx.nncell" "$DIR/q.csv" --trace --epsilon=0.1 \
  2>"$DIR/approx_err.out"
grep -q -- "--trace cannot be combined with --epsilon/--max-visits" \
  "$DIR/approx_err.out"
"$CLI" stats "$DIR/idx.nncell" --json --epsilon=0.2 > "$DIR/stats_approx.json"
python3 - "$DIR/stats_approx.json" <<'PY'
import json, sys
snap = json.load(open(sys.argv[1]))
a = snap["approx"]
assert a["enabled"] == 1 and a["epsilon"] == 0.2, a
assert a["queries"] > 0 and a["leaf_visits"] > 0, a
assert a["approximate"] >= a["terminated_early"], a
PY
# durable mode: build a snapshot+WAL directory, answers must match the
# single-file index exactly; checkpoint and recover report cleanly
"$CLI" build "$DIR/pts.csv" "$DIR/dur" --algorithm=sphere --durable | grep -q "built durable"
test -f "$DIR/dur/snapshot.nncell"
test -f "$DIR/dur/wal.log"
"$CLI" query "$DIR/dur" "$DIR/q.csv" > "$DIR/durable.out"
cmp "$DIR/serial.out" "$DIR/durable.out"
# a second build into a directory that holds points is refused and
# changes nothing
! "$CLI" build "$DIR/pts.csv" "$DIR/dur" --algorithm=sphere --durable \
  2>"$DIR/rebuild_err.out"
grep -q "requires an empty index" "$DIR/rebuild_err.out"
"$CLI" query "$DIR/dur" "$DIR/q.csv" > "$DIR/rebuild.out"
cmp "$DIR/durable.out" "$DIR/rebuild.out"
"$CLI" stats "$DIR/dur" | grep -q "validation:         OK"
"$CLI" checkpoint "$DIR/dur" | grep -q "checkpointed"
"$CLI" recover "$DIR/dur" > "$DIR/recover.out"
grep -q "snapshot:        loaded" "$DIR/recover.out"
grep -q "tree validation: OK" "$DIR/recover.out"
# corruption is loud: one flipped bit in the snapshot fails recovery
python3 - "$DIR/dur/snapshot.nncell" <<'PY'
import sys
p = sys.argv[1]
data = bytearray(open(p, "rb").read())
data[len(data) // 2] ^= 0x10
open(p, "wb").write(bytes(data))
PY
! "$CLI" recover "$DIR/dur" 2>"$DIR/recover_err.out"
grep -q "recovery failed" "$DIR/recover_err.out"
! "$CLI" query "$DIR/dur" "$DIR/q.csv" 2>/dev/null
# sharded mode (docs/SHARDING.md): build a K-shard directory; queries must
# be bit-identical to the unsharded index over the same points
! "$CLI" build "$DIR/pts.csv" "$DIR/shardless" --shards=4 2>"$DIR/shard_err.out"
grep -q "requires --durable" "$DIR/shard_err.out"
"$CLI" build "$DIR/pts.csv" "$DIR/sharded" --algorithm=sphere --durable --shards=4 \
  | grep -q "built sharded index .*4 shards"
test -f "$DIR/sharded/shard.manifest"
test -f "$DIR/sharded/router.snap"
test -d "$DIR/sharded/shard-0"
"$CLI" query "$DIR/sharded" "$DIR/q.csv" > "$DIR/sharded.out"
cut -d' ' -f1-5 "$DIR/serial.out" > "$DIR/serial.ids"
cut -d' ' -f1-5 "$DIR/sharded.out" > "$DIR/sharded.ids"
cmp "$DIR/serial.ids" "$DIR/sharded.ids"
# the k-NN and batched paths answer like the plain index too (k-NN lines
# carry no candidate counts, so they match whole)
"$CLI" query "$DIR/idx.nncell" "$DIR/q.csv" --k=3 > "$DIR/knn.out"
"$CLI" query "$DIR/sharded" "$DIR/q.csv" --k=3 > "$DIR/sharded_knn.out"
cmp "$DIR/knn.out" "$DIR/sharded_knn.out"
"$CLI" query "$DIR/sharded" "$DIR/q.csv" --threads=4 | cut -d' ' -f1-5 \
  > "$DIR/sharded_batch.ids"
cmp "$DIR/serial.ids" "$DIR/sharded_batch.ids"
"$CLI" stats "$DIR/sharded" | grep -q "shards:             4 (epoch 0"
"$CLI" stats "$DIR/sharded" --json > "$DIR/shard_stats.json"
python3 - "$DIR/shard_stats.json" <<'PY'
import json, sys
snap = json.load(open(sys.argv[1]))
s = snap["shard"]
assert s["count"] == 4 and s["degraded"] == 0, s
assert len(s["cuts"]) == 3 and len(s["shards"]) == 4, s
assert sum(sh["live"] for sh in s["shards"]) == snap["index"]["points"], s
assert all(sh["healthy"] for sh in s["shards"]), s
# each shard works out its own plan; 50 d=3 points per shard all scan
assert all(sh["exact_plan"] == "scan" for sh in s["shards"]), s
assert snap["index"]["exact_plan"] == "scan", snap["index"]
assert snap["metrics"]["shard.query.probes"] > 0, snap["metrics"]
PY
# online rebalance installs the next routing epoch; answers are unchanged
"$CLI" rebalance "$DIR/sharded" | grep -q "epoch 0 -> 1"
"$CLI" query "$DIR/sharded" "$DIR/q.csv" | cut -d' ' -f1-5 > "$DIR/rebal.ids"
cmp "$DIR/serial.ids" "$DIR/rebal.ids"
"$CLI" checkpoint "$DIR/sharded" | grep -q "across 4 shards"
"$CLI" recover "$DIR/sharded" > "$DIR/shard_recover.out"
grep -q "shards:            4 (epoch 1)" "$DIR/shard_recover.out"
grep -q "tree validation:   OK" "$DIR/shard_recover.out"
# a future manifest version is refused with the version, not "corruption"
python3 - "$DIR/sharded/shard.manifest" <<'PY'
import struct, sys
p = sys.argv[1]
data = bytearray(open(p, "rb").read())
data[8:12] = struct.pack("<I", 99)  # version field; CRC left stale on purpose
open(p, "wb").write(bytes(data))
PY
! "$CLI" recover "$DIR/sharded" 2>"$DIR/shard_ver.out"
grep -q "unsupported shard manifest version 99 (this build reads version 1)" \
  "$DIR/shard_ver.out"
# error paths
! "$CLI" stats /nonexistent.idx 2>/dev/null
! "$CLI" frobnicate 2>/dev/null
echo "cli_test OK"
