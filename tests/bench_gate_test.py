#!/usr/bin/env python3
"""Tests the rules of tools/bench_gate.py without running any benchmark.

Every case starts from the committed BENCH_<suite>.json as both the fresh
and the committed document, applies one mutation, and checks whether
gate() fails. Each rule in the driver's SUITES table has a case that only
that rule catches, so deleting any one rule fails this test.

  python3 tests/bench_gate_test.py
"""

import json
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import bench_gate  # noqa: E402

# Fields that vary from run to run and never gate.
WALL = {"build_seconds", "wall_speedup", "scalar_seconds",
        "dispatched_seconds", "us_per_query", "elapsed_s", "throughput_ops_s",
        "latency_us"}


def committed(suite):
    return json.loads((ROOT / f"BENCH_{suite}.json").read_text())


def scale_lp(row, factor):
    """Scales optimized and cold iterations together: only the committed
    comparison can move."""
    for side in ("optimized", "baseline"):
        row[side]["lp_iterations"] = int(row[side]["lp_iterations"] * factor)


def scale_wall(node):
    if isinstance(node, dict):
        for k, v in node.items():
            if k in WALL:
                node[k] = {q: x * 10 + 1 for q, x in v.items()} \
                    if isinstance(v, dict) else v * 10 + 1
            else:
                scale_wall(v)
    elif isinstance(node, list):
        for v in node:
            scale_wall(v)


def default_eps_point(doc):
    return next(p for p in doc["configs"][0]["epsilon_sweep"]
                if p["epsilon"] == doc["default_epsilon"])


def scenario(doc, label):
    return next(s for s in doc["scenarios"] if s["label"] == label)


def results(label, both=False, **fields):
    """Sets result fields of one scenario, in the fresh document or both."""
    def mutate(fresh, ref):
        for doc in (fresh, ref) if both else (fresh,):
            scenario(doc, label)["results"].update(fields)
    return mutate


def below_floor(fresh, ref):
    for doc in (fresh, ref):
        default_eps_point(doc)["recall10_hits"] = int(
            0.9 * doc["queries"] * doc["recall_k"])


# (suite, what the mutation does, mutate(fresh, committed))
MUST_FAIL = [
    ("simd", "checksum drift",
     lambda f, r: f["configs"][0].update(checksum="0000000000000000")),
    ("simd", "eval count drift",
     lambda f, r: f["configs"][0].update(evals=f["configs"][0]["evals"] + 1)),
    ("lp", "+30% iterations", lambda f, r: scale_lp(f["configs"][0], 1.3)),
    ("lp", "optimized slower than its own cold run", lambda f, r:
     f["configs"][0]["baseline"].update(lp_iterations=int(
         f["configs"][0]["optimized"]["lp_iterations"] / 1.1))),
    ("recall", "exact checksum drift",
     lambda f, r: f["configs"][0].update(exact_checksum="0000000000000000")),
    ("recall", "recall@1 hit count drift",
     lambda f, r: f["configs"][1]["budget_sweep"][0].update(recall1_hits=0)),
    ("recall", "recall@10 hit count drift",
     lambda f, r: f["configs"][1]["budget_sweep"][0].update(recall10_hits=0)),
    ("recall", "exact_match < queries",
     lambda f, r: f["configs"][0].update(exact_match=f["queries"] - 1)),
    ("recall", "recall@10 below the floor in both documents", below_floor),
    ("serve", "det checksum drift", results("det", checksum=1)),
    ("serve", "det insert count drift", results("det", inserts=0)),
    ("serve", "load errors", results("load", errors=1)),
    ("shard", "errors", results("shard2", errors=1)),
    ("serve", "load completed nothing", results("load", ok=0)),
    ("shard", "nothing sent, nothing completed",
     results("shard2", both=True, ok=0, sent=0)),
    ("serve", "det ok < sent", results("det", ok=399)),
    ("shard", "ok < sent", results("shard2", ok=399)),
    ("serve", "det rejected", results("det", rejected=1)),
    ("shard", "rejected", results("shard2", rejected=1)),
    ("serve", "conservation_ok false",
     lambda f, r: f["server"].update(conservation_ok=False)),
    ("shard", "conservation_ok false",
     lambda f, r: scenario(f, "shard2")["server"].update(
         conservation_ok=False)),
    ("serve", "malformed frames",
     lambda f, r: f["server"].update(malformed=1)),
    ("shard", "malformed frames",
     lambda f, r: scenario(f, "shard2")["server"].update(malformed=1)),
    ("shard", "id_checksum drift on every K", lambda f, r:
     [s["results"].update(id_checksum=1) for s in f["scenarios"]]),
    ("shard", "id_checksum differs across K",
     results("shard4", both=True, id_checksum=1)),
    ("shard", "unknown label",
     lambda f, r: scenario(f, "shard8").update(label="shard3")),
]

MUST_PASS = [
    ("lp", "+10% iterations", lambda f, r: scale_lp(f["configs"][0], 1.1)),
    ("serve", "load checksum (4 connections, never gated)",
     results("load", checksum=1)),
    ("lp", "quick subset of the configs",
     lambda f, r: f.update(configs=f["configs"][:3])),
    ("shard", "quick subset of the sweep", lambda f, r: f.update(
        scenarios=[scenario(f, "shard0"), scenario(f, "shard4")])),
] + [(s, "wall-clock fields only", lambda f, r: scale_wall(f))
     for s in bench_gate.SUITES]


def gate_mutated(suite, mutate):
    fresh, ref = committed(suite), committed(suite)
    mutate(fresh, ref)
    return bench_gate.gate(suite, fresh, ref)


class BenchGateRulesTest(unittest.TestCase):
    def test_committed_baselines_pass_against_themselves(self):
        for suite in bench_gate.SUITES:
            with self.subTest(suite=suite):
                self.assertEqual(
                    bench_gate.gate(suite, committed(suite), committed(suite)),
                    [])

    def test_each_rule_catches_its_mutation(self):
        for suite, what, mutate in MUST_FAIL:
            with self.subTest(suite=suite, mutation=what):
                self.assertNotEqual(gate_mutated(suite, mutate), [])

    def test_ungated_edits_pass(self):
        for suite, what, mutate in MUST_PASS:
            with self.subTest(suite=suite, edit=what):
                self.assertEqual(gate_mutated(suite, mutate), [])

    def test_update_refuses_a_run_that_breaks_in_run_rules(self):
        # --update gates the fresh document against itself.
        fresh = committed("serve")
        fresh["server"]["conservation_ok"] = False
        self.assertNotEqual(bench_gate.gate("serve", fresh, fresh), [])


if __name__ == "__main__":
    unittest.main()
