#!/usr/bin/env python3
"""bench_e2e_smoke: keeps the end-to-end benchmark from rotting.

    python3 bench/e2e/smoke.py path/to/nncell_bench

Runs every workload of BENCHMARK.json with --quick (at most 2,000 points, a
2 s timed phase), once untraced and once with --trace, and checks:
  * the last stdout line has exactly the keys correct/attempted/failed/
    metrics, with correct true, at least one attempt and no failure;
  * the metric names and units are exactly BENCHMARK.json's end_to_end
    (untraced) or per_layer (traced) lists; end-to-end values are > 0;
  * the traced run matched every request to the index call that served it,
    and queue wait + index call + response add up to each client span
    within 5%;
  * the traced run found the untraced run's numbers and reported the
    tracing overhead.
"""

import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def fail(msg):
    print("bench_e2e_smoke: FAIL: " + msg)
    sys.exit(1)


def run(bench, workload, trace, out):
    cmd = [bench, "--workload", workload, "--seed", "7", "--quick",
           "--trace", "1" if trace else "0", "--out", out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited %d" % (" ".join(cmd), proc.returncode))
    return json.loads(lines[-1])


def check_result(result, metrics, label, positive):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (label, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s: correct=%s failed=%s" %
             (label, result["correct"], result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: attempted=%s" % (label, result["attempted"]))
    want = {m["name"]: m["unit"] for m in metrics}
    got = result["metrics"]
    if set(got) != set(want):
        fail("%s: metric names differ from BENCHMARK.json: %s" %
             (label, sorted(set(got) ^ set(want))))
    for name, m in got.items():
        v = m["value"]
        if m["unit"] != want[name]:
            fail("%s: %s unit %s, BENCHMARK.json says %s" %
                 (label, name, m["unit"], want[name]))
        if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
            fail("%s: %s = %r" % (label, name, v))
        if positive and v <= 0:
            fail("%s: end-to-end metric %s is %r" % (label, name, v))


def main():
    if len(sys.argv) != 2:
        fail("usage: smoke.py path/to/nncell_bench")
    bench = os.path.abspath(sys.argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with tempfile.TemporaryDirectory(dir=os.path.dirname(bench)) as out:
        for w in spec["workloads"]:
            name = w["name"]
            check_result(run(bench, name, False, out), spec["end_to_end"],
                         name, True)
            check_result(run(bench, name, True, out), spec["per_layer"],
                         name + " --trace", False)
            with open(os.path.join(out, name + ".layers.json")) as f:
                layers = json.load(f)
            st = layers["self_times"]
            if st["requests"] < 1 or st["unmatched"] != 0:
                fail("%s: %d requests, %d without an index span" %
                     (name, st["requests"], st["unmatched"]))
            if st["max_sum_error_frac"] > 0.05:
                fail("%s: request split misses its client span by %.3f" %
                     (name, st["max_sum_error_frac"]))
            if layers["tracing_overhead"] is None:
                fail("%s: no tracing-overhead row" % name)
            if os.path.getsize(os.path.join(out, name + ".spans.jsonl")) == 0:
                fail("%s: empty span file" % name)
            print("bench_e2e_smoke: %s ok" % name)
    print("bench_e2e_smoke: PASS")


if __name__ == "__main__":
    main()
