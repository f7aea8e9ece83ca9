#!/usr/bin/env python3
"""Run bench suites and gate each fresh run against its committed baseline.

  tools/bench_gate.py [--quick] [--update] [--build-dir DIR] SUITE...

SUITE is one of lp, simd, recall, serve, shard. Each suite produces a fresh
document at <build>/bench_<suite>_current.json and gates it against the
committed BENCH_<suite>.json. Only deterministic integers gate: checksums,
op and hit counts, LP iteration counts. Wall-clock fields are reported,
never gated. Each suite is one row of SUITES, with two lists of rules:

  equal   -- fn(fresh_row, committed_row), checked for every fresh row
             against the committed row with the same key. A fresh row the
             baseline lacks fails; committed rows absent from the fresh
             run (a --quick subset) are skipped.
  in_run  -- fn(fresh_row, fresh_doc), checked on the fresh document alone.

--quick runs the smoke subset: fewer timing reps, fewer LP configs, fewer
serving scenarios. --update rewrites BENCH_<suite>.json from a full run,
and only when the fresh document passes its own in-run rules.

The driver never builds: run it after `cmake --build`. Exits 0 when every
suite passes, 1 when one fails, 2 on a usage error or a missing binary.
"""

import argparse
import json
import re
import signal
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Allowed growth of optimized lp_iterations over the committed baseline.
LP_MAX_REGRESSION = 0.20
# recall@10 at the documented default epsilon (docs/APPROXIMATE.md).
RECALL_FLOOR = 0.95
# The deterministic single-connection workload: one connection and a
# fixed seed make the response stream a pure function of these flags.
DET = ["--connections=1", "--ops=400", "--mix=90:8:2", "--zipf=0.99",
       "--seed=7"]

Suite = namedtuple("Suite", "binaries produce rows equal in_run report")


def run_bench(name):
    """Producer for a bench binary that writes its own document via --out."""
    def produce(build, quick, out):
        subprocess.run([str(build / "bench" / name), f"--out={out}"] +
                       (["--quick"] if quick else []), check=True)
    return produce


def serve_once(build, work, dim, shards, runs):
    """Starts nncell_server on a fresh index, runs each loadgen argument
    list against it, then SIGTERM-drains it.

    Returns the loadgen documents and the server block built from the
    DRAINED counters.
    """
    sock, log = work / f"s{shards}.sock", work / f"server{shards}.log"
    cmd = [str(build / "tools/nncell_server"), str(work / f"index{shards}"),
           f"--socket={sock}", f"--dim={dim}"]
    cmd += [f"--shards={shards}"] if shards else []
    with open(log, "w") as logf:
        srv = subprocess.Popen(cmd, stdout=logf, stderr=subprocess.STDOUT)
    try:
        deadline = time.monotonic() + 30
        while "READY" not in log.read_text():
            if srv.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    f"server failed to start:\n{log.read_text()}")
            time.sleep(0.1)
        loadgen = [str(build / "bench/loadgen"), f"--socket={sock}"]
        docs = [json.loads(subprocess.run(loadgen + args, check=True,
                                          stdout=subprocess.PIPE).stdout)
                for args in runs]
        srv.send_signal(signal.SIGTERM)
        if srv.wait(timeout=120) != 0:
            raise RuntimeError(f"server drain exited {srv.returncode}:\n"
                               f"{log.read_text()}")
    finally:
        if srv.poll() is None:
            srv.kill()
            srv.wait()
    drained = re.search(r"^DRAINED .*$", log.read_text(), re.M)
    if drained is None:
        raise RuntimeError(f"no DRAINED line:\n{log.read_text()}")
    counts = {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", drained[0])}
    server = {k: counts[k] for k in ("accepted", "completed", "malformed",
                                     "rejected")}
    server["conservation_ok"] = (server["accepted"] ==
                                 server["completed"] + server["rejected"])
    return docs, server


def produce_serve(build, quick, out):
    runs = [DET + ["--preload=100", "--label=det"]]
    if not quick:
        runs.append(["--connections=4", "--ops=2000", "--preload=100",
                     "--mix=80:15:5", "--zipf=0.99", "--seed=11",
                     "--label=load"])
    with tempfile.TemporaryDirectory() as work:
        scenarios, server = serve_once(build, Path(work), 4, 0, runs)
    out.write_text(json.dumps({"scenarios": scenarios, "server": server},
                              indent=1, sort_keys=True))


def produce_shard(build, quick, out):
    scenarios = []
    with tempfile.TemporaryDirectory() as work:
        for k in (0, 4) if quick else (0, 1, 2, 4, 8):
            runs = [DET + ["--preload=128", "--dim=16", f"--label=shard{k}",
                           f"--shards={k}"], ["--stats"]]
            (row, stats), server = serve_once(build, Path(work), 16, k, runs)
            row["server"] = server
            row["shard_metrics"] = {
                m: int(stats["metrics"].get(f"shard.query.{m}", 0))
                for m in ("probes", "pruned")}
            scenarios.append(row)
    out.write_text(json.dumps({"scenarios": scenarios}, indent=1,
                              sort_keys=True))


def fields_equal(*fields):
    return (f"{' '.join(fields)} equal the committed row",
            lambda c, r: all(c[f] == r[f] for f in fields))


def iters(row, side="optimized"):
    return row[side]["lp_iterations"]


def sweep_hits(row):
    """Maps each epsilon/budget sweep point to its recall hit counts."""
    points = [(f"eps={p['epsilon']}", p) for p in row["epsilon_sweep"]]
    points += [(f"budget={p['max_leaf_visits']}", p)
               for p in row["budget_sweep"]]
    return {k: (p["recall1_hits"], p["recall10_hits"]) for k, p in points}


def hits_equal(c, r):
    """Sweep points the committed row lacks are skipped."""
    ref = sweep_hits(r)
    return all(ref.get(k, v) == v for k, v in sweep_hits(c).items())


def above_recall_floor(row, doc):
    total = doc["queries"] * doc["recall_k"]
    return all(p["recall10_hits"] / total >= RECALL_FLOOR
               for p in row["epsilon_sweep"]
               if p["epsilon"] == doc["default_epsilon"])


def single(row):
    return row["config"]["connections"] == 1


def results_equal(*fields):
    return (f"single-connection {' '.join(fields)} equal the committed row",
            lambda c, r: not single(c) or
            all(c["results"][f] == r["results"][f] for f in fields))


def server_of(row, doc):
    """The drain counters: per scenario (shard) or per document (serve)."""
    return row.get("server") or doc["server"]


SERVE_FIELDS = ("checksum", "queries", "inserts", "deletes", "sent")
SERVE_IN_RUN = [
    ("errors == 0", lambda row, doc: row["results"]["errors"] == 0),
    ("ok > 0", lambda row, doc: row["results"]["ok"] > 0),
    ("single-connection ok == sent", lambda row, doc: not single(row) or
     row["results"]["ok"] == row["results"]["sent"]),
    ("single-connection rejected == 0", lambda row, doc: not single(row) or
     row["results"]["rejected"] == 0),
    ("drain: accepted == completed + rejected",
     lambda row, doc: server_of(row, doc)["conservation_ok"]),
    ("drain: malformed == 0",
     lambda row, doc: server_of(row, doc)["malformed"] == 0),
]
SERVE_REPORT = ("checksum {results[checksum]}, {results[ok]}/{results[sent]} "
                "ok, {results[throughput_ops_s]} ops/s, "
                "p99 {results[latency_us][p99]}us")

SUITES = {
    "lp": Suite(
        ["bench/bench_regress"], run_bench("bench_regress"),
        ("configs", "name"),
        [(f"optimized lp_iterations <= {1 + LP_MAX_REGRESSION:.2f} x "
          "committed",
          lambda c, r: iters(c) <= iters(r) * (1 + LP_MAX_REGRESSION))],
        [("optimized lp_iterations <= 1.05 x its own cold baseline",
          lambda row, doc: iters(row) <= iters(row, "baseline") * 1.05)],
        "iters {optimized[lp_iterations]} (cold {baseline[lp_iterations]}), "
        "{wall_speedup}x wall"),
    # bench_simd itself fails when a dispatched kernel diverges from scalar.
    "simd": Suite(
        ["bench/bench_simd"], run_bench("bench_simd"), ("configs", "name"),
        [fields_equal("checksum", "evals")], [],
        "checksum {checksum}, {evals} evals, {wall_speedup}x wall"),
    "recall": Suite(
        ["bench/bench_recall"], run_bench("bench_recall"), ("configs", "name"),
        [fields_equal("exact_checksum"),
         ("recall1_hits recall10_hits equal the committed row at every "
          "eps=/budget= point", hits_equal)],
        [("exact_match == queries",
          lambda row, doc: row["exact_match"] == doc["queries"]),
         (f"recall@10 >= {RECALL_FLOOR} at default_epsilon",
          above_recall_floor)],
        "exact_match {exact_match}, exact_checksum {exact_checksum}"),
    "serve": Suite(
        ["tools/nncell_server", "bench/loadgen"], produce_serve,
        ("scenarios", "label"), [results_equal(*SERVE_FIELDS)], SERVE_IN_RUN,
        SERVE_REPORT),
    # Cross-K: the shard count changes fan-out, never which point answers.
    "shard": Suite(
        ["tools/nncell_server", "bench/loadgen"], produce_shard,
        ("scenarios", "label"), [results_equal(*SERVE_FIELDS, "id_checksum")],
        SERVE_IN_RUN + [("id_checksum identical across every K",
                         lambda row, doc: row["results"]["id_checksum"] ==
                         doc["scenarios"][0]["results"]["id_checksum"])],
        SERVE_REPORT + ", probes {shard_metrics[probes]}"),
}


def rows(suite, doc):
    field, key = SUITES[suite].rows
    return {row[key]: row for row in doc[field]}


def gate(suite, fresh, committed):
    """Returns the rules the fresh document breaks, one line each."""
    s = SUITES[suite]
    ref = rows(suite, committed)
    fresh_rows = rows(suite, fresh)
    failures = [] if fresh_rows else ["the fresh run has no rows"]
    for key, row in fresh_rows.items():
        if key not in ref:
            failures.append(f"{key}: not in the committed baseline")
        else:
            failures += [f"{key}: {desc}" for desc, holds in s.equal
                         if not holds(row, ref[key])]
        failures += [f"{key}: {desc}" for desc, holds in s.in_run
                     if not holds(row, fresh)]
    return failures


def run_suite(name, build, quick, update):
    """Produces, reports and gates one suite; returns True when it passes."""
    s = SUITES[name]
    out = build / f"bench_{name}_current.json"
    baseline = ROOT / f"BENCH_{name}.json"
    print(f"== {name}", flush=True)
    try:
        s.produce(build, quick, out)
    except (subprocess.SubprocessError, RuntimeError) as e:
        print(f"  FAIL: {e}")
        return False
    fresh = json.loads(out.read_text())
    for key, row in rows(name, fresh).items():
        print(f"  {key}: {s.report.format(**row)}")
    # --update gates the fresh document against itself: only the in-run
    # rules can fail, so a broken run never becomes the baseline.
    failures = gate(name, fresh,
                    fresh if update else json.loads(baseline.read_text()))
    for f in failures:
        print(f"  FAIL {f}")
    if not failures and update:
        baseline.write_bytes(out.read_bytes())
        print(f"  {baseline.name} updated")
    return not failures


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--quick", action="store_true",
                    help="run the smoke subset (gates the same baseline)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite BENCH_<suite>.json from a passing full run")
    ap.add_argument("--build-dir", type=Path,
                    help="configured build tree (default: build-dev, build)")
    ap.add_argument("suites", nargs="+", choices=SUITES, metavar="SUITE",
                    help=" | ".join(SUITES))
    args = ap.parse_args()
    if args.update and args.quick:
        ap.error("--update needs a full run: the baseline carries every row")

    build = ROOT / args.build_dir if args.build_dir else next(
        (ROOT / d for d in ("build-dev", "build") if (ROOT / d).is_dir()),
        None)
    if build is None or not build.is_dir():
        ap.error("no build directory (configure with: cmake --preset dev)")
    for b in sorted({b for s in args.suites for b in SUITES[s].binaries}):
        if not (build / b).is_file():
            print(f"{build / b} not found; build it first: "
                  f"cmake --build {build} --target {Path(b).name}",
                  file=sys.stderr)
            return 2

    failed = [s for s in args.suites
              if not run_suite(s, build, args.quick, args.update)]
    print(f"bench gate: FAIL ({' '.join(failed)})" if failed
          else "bench gate: PASS")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
