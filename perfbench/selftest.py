"""The benchmark's own test.

    python3 -m unittest perfbench/selftest.py      (or: python3 perfbench/selftest.py)

It checks that BENCHMARK.json names exactly the metrics run.py prints,
that the expected-answer record gives the verdicts known independently of
the program, and that two traced runs of every workload with the same
seed give identical call counts, outcome counts and per-check case
counts, so that those counts can be cited as exact.  The traced runs take
about a minute on a 2-core host.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from worker import WORKLOADS  # noqa: E402

# Known without running the program: the paper's lemmas and distributivity
# theorems hold; the metavariable-keyed context and the freshness mutation
# break uniqueness.
EXPECTED_FAILS = {
    "schematic": {"loose_uniq", "loose_uniq_mset", "ty_ctx_uniq_nofresh"},
    "equivalence": set(),
    "translation": set(),
    "core": set(),
}


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        run.worker_argv(workload, seed, "--trace"),
        cwd=run.ROOT,
        check=True,
        stdout=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    (only_pass,) = result["passes"]
    return {
        "functions": {
            key: (stats["calls"], stats["hits"], stats["items"])
            for key, stats in result["functions"].items()
        },
        "cases": {r["name"]: r["cases"] for r in only_pass["checks"]},
    }


class BenchmarkDefinition(unittest.TestCase):
    def setUp(self) -> None:
        self.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.expected = run.load_expected()

    def test_benchmark_json_names_what_run_prints(self) -> None:
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END_UNITS
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["per_layer"]},
            run.per_layer_units(self.expected),
        )

    def test_expected_verdicts(self) -> None:
        self.assertEqual(sorted(self.expected), sorted(WORKLOADS))
        for workload, fails in EXPECTED_FAILS.items():
            checks = self.expected[workload]["checks"]
            self.assertEqual({n for n, c in checks.items() if c["verdict"] == "fail"}, fails)
            for name, check in checks.items():
                self.assertGreater(check["cases"], 0, name)
                self.assertEqual(check["counterexample"] is None, name not in fails, name)


class TracedCountsRepeat(unittest.TestCase):
    def test_two_traced_runs_agree(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                with ThreadPoolExecutor(2) as pool:
                    first, second = pool.map(traced_counts, [workload] * 2, [7, 7])
                self.assertEqual(first, second)
                self.assertTrue(first["functions"]["ctx.elems"][0] > 0)


if __name__ == "__main__":
    unittest.main()
