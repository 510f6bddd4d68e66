"""tools/bench_pair.py on synthetic run records, without running perfbench."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

BETTER = {"verdict_s": "lower", "cases_per_s": "higher"}


def run_record(verdict_s, correct=True):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": 0 if correct else 1,
        "metrics": {
            "verdict_s": {"value": verdict_s, "unit": "s"},
            "cases_per_s": {"value": 100 / verdict_s, "unit": "1/s"},
        },
    }


def pair(workload, seed, base, change, correct=True):
    return {
        "workload": workload,
        "seed": seed,
        "first": "base",
        "base": run_record(base),
        "change": run_record(change, correct),
    }


class TestParsePairs:
    def test_in_order(self):
        assert bench_pair.parse_pairs(["core=1", "schematic=10"]) == [
            ("core", 1),
            ("schematic", 10),
        ]

    @pytest.mark.parametrize("spec", ["core", "core=0", "core=-1", "core=x", "nope=3"])
    def test_rejects(self, spec):
        with pytest.raises(SystemExit):
            bench_pair.parse_pairs([spec])


class TestSummarise:
    def test_medians_iqr_ratio_and_wins(self):
        bases = [1.0, 2.0, 3.0, 4.0, 5.0]
        changes = [0.5, 1.0, 1.5, 2.0, 6.0]
        pairs = [pair("translation", i, b, c) for i, (b, c) in enumerate(zip(bases, changes))]
        row = bench_pair.summarise(pairs, BETTER)["translation"]
        assert row["pairs"] == 5 and row["all_correct"]
        verdict = row["metrics"]["verdict_s"]
        assert verdict["base_median"] == 3.0
        assert verdict["change_median"] == 1.5
        assert verdict["ratio"] == 0.5
        # Quartiles of 1..5 by the exclusive method are 1.5 and 4.5.
        assert verdict["base_iqr"] == 3.0
        assert verdict["change_wins"] == "4/5"
        assert row["metrics"]["cases_per_s"]["change_wins"] == "4/5"

    def test_one_pair_has_no_iqr(self):
        row = bench_pair.summarise([pair("core", 1, 2.0, 1.0)], BETTER)["core"]
        assert row["metrics"]["verdict_s"]["base_iqr"] is None
        assert row["metrics"]["verdict_s"]["change_wins"] == "1/1"

    def test_workloads_apart_and_correctness(self):
        pairs = [pair("core", 1, 2.0, 1.0), pair("schematic", 1, 1.0, 1.0, correct=False)]
        summary = bench_pair.summarise(pairs, BETTER)
        assert list(summary) == ["core", "schematic"]
        assert summary["core"]["all_correct"]
        assert not summary["schematic"]["all_correct"]
        assert summary["schematic"]["metrics"]["verdict_s"]["change_wins"] == "0/1"


def isolate_main(tmp_path, monkeypatch, run_side):
    """Point main at a scratch root whose runs are answered by `run_side`."""
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps(
            {
                "run_seconds": 1,
                "end_to_end": [{"name": m, "better": b} for m, b in BETTER.items()],
            }
        )
    )
    monkeypatch.setattr(bench_pair, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pair.signal, "signal", lambda signum, handler: None)
    monkeypatch.setattr(bench_pair, "git", lambda *args: b"")
    monkeypatch.setattr(bench_pair, "export_commit", lambda rev, into: None)
    monkeypatch.setattr(bench_pair, "run_side", run_side)


def test_failed_run_keeps_completed_pairs(tmp_path, monkeypatch, capsys):
    runs = []

    def run_side(tree, workload, seed, seconds):
        runs.append((workload, seed))
        if seed == 2:
            raise subprocess.CalledProcessError(3, ["run.py"])
        return run_record(1.0)

    isolate_main(tmp_path, monkeypatch, run_side)
    assert bench_pair.main(["--pr", "0", "--pairs", "core=3"]) == 1
    assert runs == [("core", 1), ("core", 1), ("core", 2)]
    assert "core seed 2: change run exited with status 3" in capsys.readouterr().err
    result = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert result["complete"] is False
    assert [p["seed"] for p in result["pairs"]] == [1]
    assert result["summary"]["core"]["pairs"] == 1


def test_incorrect_run_fails_the_series(tmp_path, monkeypatch, capsys):
    def run_side(tree, workload, seed, seconds):
        # The working tree is the scratch root; the base is exported elsewhere.
        return run_record(1.0, correct=not (tree == tmp_path and seed == 2))

    isolate_main(tmp_path, monkeypatch, run_side)
    assert bench_pair.main(["--pr", "0", "--pairs", "core=3"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "correct" in line] == [
        "core seed 2: change run reported correct: false"
    ]
    result = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert result["complete"] is True
    assert [p["seed"] for p in result["pairs"]] == [1, 2, 3]
    assert not result["summary"]["core"]["all_correct"]


def test_correct_runs_exit_zero(tmp_path, monkeypatch):
    isolate_main(tmp_path, monkeypatch, lambda tree, workload, seed, seconds: run_record(1.0))
    assert bench_pair.main(["--pr", "0", "--pairs", "core=2"]) == 0
