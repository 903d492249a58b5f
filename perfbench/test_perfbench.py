#!/usr/bin/env python3
"""Exact-determinism guard for the tsxlab benchmark.

Two runs of a workload with one seed must report identical modelled metrics
(every sim_* metric but sim_ops_per_s, which is host speed) and the same
simulated-counter digest; a run with another seed must change both. Every
cell of every run must pass its output check.

Run from the root of a checkout (builds the benchmark on first use):

    python3 perfbench/test_perfbench.py            # all three workloads
    python3 perfbench/test_perfbench.py Determinism.test_eigen
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
HOST_METRICS = {"wall_s", "sim_ops_per_s", "peak_rss_mib", "setup_s"}


def run(workload, seed):
    r = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=900, cwd=RUN.parent.parent)
    if r.returncode != 0:
        raise AssertionError(f"run.py exited {r.returncode}: {r.stderr}")
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digests = [ln.split()[2] for ln in lines if ln.startswith("digest ")]
    sim = {k: v["value"] for k, v in result["metrics"].items()
           if k not in HOST_METRICS}
    return result, digests, sim


class Determinism(unittest.TestCase):
    def check(self, workload):
        first, again, other = run(workload, 3), run(workload, 3), run(workload, 4)
        for result, digests, _ in (first, again, other):
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreater(result["attempted"], 0)
            self.assertEqual(len(digests), 1)
        self.assertEqual(first[1], again[1])
        self.assertEqual(first[2], again[2])
        self.assertNotEqual(first[1], other[1])
        self.assertNotEqual(first[2], other[2])

    def test_stamp(self):
        self.check("stamp")

    def test_eigen(self):
        self.check("eigen")

    def test_server(self):
        self.check("server")


if __name__ == "__main__":
    unittest.main()
