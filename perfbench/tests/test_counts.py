"""The traced run's counts repeat exactly between runs and match what the algorithms must do.

Each traced run is a fresh worker process, as in the benchmark itself, so
the library modules this test process imported are never re-imported or
wrapped.  Run with `python3 -m pytest perfbench/tests` (or unittest).
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SEED = 7
LIMITS = {"pool": 4, "cli-large": 1}


def traced(workload: str) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", "1", "--limit", str(LIMITS[workload])]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict:
    return {
        name: value
        for name, value in result["metrics"].items()
        if name.endswith((".calls", ".leaves", ".states_kept", ".states_extended", ".branches", ".errors"))
    }


class TracedCountsRepeat(unittest.TestCase):
    def test_two_traced_runs_give_identical_counts(self):
        for workload in LIMITS:
            with self.subTest(workload=workload):
                first, second = traced(workload), traced(workload)
                self.assertEqual(first["failed"], 0, first["problems"])
                self.assertEqual(counts(first), counts(second))
                self.assertGreater(first["metrics"]["capacity.finish_time.calls"], 0)
                if workload == "pool":
                    self.assertGreater(first["metrics"]["schemes.totaltime_scheme.states_kept"], 0)

    def test_oracle_leaves_are_m_to_the_n_per_call(self):
        result = traced("pool")
        entries = WORKLOADS["pool"].trace_list(SEED)[: LIMITS["pool"]]
        # each instance is solved exactly for both objectives
        expected = sum(2 * entry.spec["m"] ** entry.spec["n"] for entry in entries)
        self.assertEqual(result["metrics"]["oracle.exact_optimal.calls"], 2 * len(entries))
        self.assertEqual(result["metrics"]["oracle.exact_optimal.leaves"], expected)


if __name__ == "__main__":
    unittest.main()
