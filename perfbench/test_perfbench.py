#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds perfbench_client like run.py does (into $CARGO_TARGET_DIR, default
.bench_build) and checks:

  * two SimEngine replays of one seed print byte-identical exact counts
    (lds.*, stored_bytes_per_user_byte, comm_bytes_per_user_byte) for every
    workload, and the paper's costs are the closed forms' values;
  * the raw-sample percentiles match a brute-force sort;
  * run.py's span self-time arithmetic subtracts child spans.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

BUILD = os.path.abspath(os.path.join(
    run.ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
WORKLOADS = [w["name"] for w in json.load(
    open(os.path.join(run.ROOT, "BENCHMARK.json")))["workloads"]]


def client(*args):
    return subprocess.run([os.path.join(BUILD, "perfbench_client")] +
                          list(args), stdout=subprocess.PIPE, check=True,
                          text=True).stdout


class ReplayTest(unittest.TestCase):
    def test_same_seed_replays_are_byte_identical(self):
        for w in WORKLOADS:
            a = client("replay", "--workload", w, "--seed", "7")
            b = client("replay", "--workload", w, "--seed", "7")
            self.assertEqual(a, b, w)
            r = json.loads(a)
            self.assertGreater(r["replay.puts"] + r["replay.gets"], 0)
            self.assertGreater(r["comm_bytes_per_user_byte"], 0)

    def test_fixed_size_costs_match_the_paper(self):
        # PM-MBR over n2=8, k=d=4 stores alpha=d symbols per server for a
        # file of B = kd - k(k-1)/2 = 10 symbols: 8*4/10 = 3.2 per value
        # byte, plus the striping header and padding.
        r = json.loads(client("replay", "--workload", "large_read",
                              "--seed", "1"))
        framed = -(-(16384 + 8) // 10) * 10
        self.assertAlmostEqual(r["stored_bytes_per_user_byte"],
                               8 * 4 * framed / 10 / 16384)
        # A put sends the value to each of n1=6 L1 servers.
        self.assertEqual(r["lds.data_bytes_per_put.client_l1"], 6 * 16384)


class PercentileTest(unittest.TestCase):
    def test_percentiles_match_brute_force_sort(self):
        out = json.loads(client("selftest"))
        self.assertEqual(out["percentile_mismatches"], 0)


class SelfTimeTest(unittest.TestCase):
    def test_child_spans_are_subtracted(self):
        spans = [
            {"id": 1, "parent": 0, "op": 0, "layer": "store", "name": "a",
             "start": 0.0, "end": 1.0},
            {"id": 2, "parent": 1, "op": 0, "layer": "codes", "name": "b",
             "start": 0.1, "end": 0.4},
            {"id": 3, "parent": 1, "op": 0, "layer": "gf", "name": "c",
             "start": 0.5, "end": 0.6},
        ]
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                         delete=False) as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")
        try:
            selfs, n = run.self_ms([f.name])
        finally:
            os.unlink(f.name)
        self.assertEqual(n, 3)
        self.assertAlmostEqual(selfs["store"], 600.0)
        self.assertAlmostEqual(selfs["codes"], 300.0)
        self.assertAlmostEqual(selfs["gf"], 100.0)


if __name__ == "__main__":
    run.build(BUILD)
    unittest.main()
