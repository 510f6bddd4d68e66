"""Paired benchmark runs: the base commit against the working tree.

    python3 tools/bench_pair.py --pr 11 --pairs schematic=5 --pairs core=1 [--base REV]

Each pair runs `perfbench/run.py --trace 0` once on the base commit and
once on the working tree, with the same workload and seed, and with the
run length `run_seconds` of BENCHMARK.json.  The base defaults to HEAD,
the parent of a change that is not committed yet; once the change is
committed, pass `--base HEAD~1`.  The side
that runs first alternates from one pair to the next, so that a drift
in host speed does not favour one side.  The base commit is exported
with `git archive` into a temporary directory, which is removed at the
end; the repository itself is left as it was.  The result file holds
both sides' result lines for every pair, plus per-workload medians, the
base's interquartile range, the change-to-base ratio of each median and
how many pairs the change won.  A run that exits non-zero stops the
series: the file then holds the pairs completed before it, with
`"complete": false`, and the exit status is 1.  A run whose result line
reports `"correct": false` is named on stderr, and the exit status is
then 1 too.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("schematic", "equivalence", "translation", "core")
SIDES = ("base", "change")


def git(*args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE
    ).stdout


def export_commit(rev: str, into: Path) -> None:
    """Write the files of commit `rev` under `into`."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(into)


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one `run.py` run in the given tree."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=tree, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_pairs(specs: list) -> list:
    """(workload, count) from `workload=count` arguments, in order."""
    out = []
    for spec in specs:
        workload, _, count = spec.partition("=")
        if workload not in WORKLOADS or not count.isdigit() or int(count) < 1:
            raise SystemExit(f"bad --pairs {spec!r}: expected WORKLOAD=N with N >= 1")
        out.append((workload, int(count)))
    return out


def summarise(pairs: list, better: dict) -> dict:
    """Per workload and metric: both medians, the base's interquartile range
    (None below two pairs), the ratio of the medians, and the change's wins."""
    summary: dict = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        runs = [p for p in pairs if p["workload"] == workload]
        rows = {}
        for metric, direction in better.items():
            values = {s: [p[s]["metrics"][metric]["value"] for p in runs] for s in SIDES}
            medians = {s: statistics.median(values[s]) for s in SIDES}
            base_iqr = None
            if len(runs) >= 2:
                q1, _, q3 = statistics.quantiles(values["base"], n=4)
                base_iqr = q3 - q1
            wins = sum(
                (c < b) if direction == "lower" else (c > b)
                for b, c in zip(values["base"], values["change"])
            )
            rows[metric] = {
                "base_median": medians["base"],
                "change_median": medians["change"],
                "base_iqr": base_iqr,
                "ratio": medians["change"] / medians["base"] if medians["base"] else None,
                "change_wins": f"{wins}/{len(runs)}",
            }
        summary[workload] = {
            "pairs": len(runs),
            "all_correct": all(p[s]["correct"] for p in runs for s in SIDES),
            "metrics": rows,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N")
    parser.add_argument("--base", default="HEAD", help="base commit (default HEAD)")
    args = parser.parse_args(argv)

    # Leave through `finally` on SIGTERM too, so the exported tree is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    plan = parse_pairs(args.pairs)
    out = ROOT / f"BENCH_{args.pr}.json"
    base_rev = git("rev-parse", args.base).decode().strip()
    head_rev = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    pairs = []
    failure = None
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        trees = {"base": Path(tmp), "change": ROOT}
        export_commit(base_rev, trees["base"])
        turn = 0
        try:
            for workload, count in plan:
                for seed in range(1, count + 1):
                    order = SIDES if turn % 2 == 0 else SIDES[::-1]
                    turn += 1
                    record = {"workload": workload, "seed": seed, "first": order[0]}
                    for side in order:
                        print(f"{workload} seed {seed}: {side}", file=sys.stderr, flush=True)
                        record[side] = run_side(trees[side], workload, seed, seconds)
                    pairs.append(record)
        except subprocess.CalledProcessError as err:
            failure = (
                f"{workload} seed {seed}: {side} run exited with status {err.returncode};"
                f" keeping the {len(pairs)} pairs completed before it"
            )
            print(failure, file=sys.stderr, flush=True)

    result = {
        "base": base_rev,
        "change": head_rev + (" with uncommitted changes" if dirty else ""),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "complete": failure is None,
        "summary": summarise(pairs, better),
        "pairs": pairs,
    }
    out.write_text(json.dumps(result, indent=2) + "\n")
    wrong = [(p["workload"], p["seed"], s) for p in pairs for s in SIDES if not p[s]["correct"]]
    for workload, seed, side in wrong:
        print(f"{workload} seed {seed}: {side} run reported correct: false", file=sys.stderr)
    for workload, row in result["summary"].items():
        for metric, m in row["metrics"].items():
            print(
                f"{workload:12} {metric:12} base {m['base_median']:.4g}"
                f" change {m['change_median']:.4g} wins {m['change_wins']}"
            )
    return 0 if failure is None and not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
