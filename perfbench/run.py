"""The linctx benchmark: run one workload, check every verdict, print metrics.

    python3 perfbench/run.py --workload core --seed 1 --seconds 24 --trace 0

Workloads: schematic, equivalence, translation, core (see NOTES.md).
With --trace 0 the workload runs untraced in a fresh interpreter, set-up
time is sampled in other fresh interpreters before and after it, and the
end-to-end metrics are printed.  With --trace 1 the workload runs once
untraced and once traced, each in a fresh interpreter, and the per-layer
metrics are printed.  Every check's verdict, case count and
counterexample are compared with expected.json; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import LAYERS
from worker import WORKLOADS, check_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
EXPECTED = HERE / "expected.json"

SETUP_SAMPLES = 8
RUN_LIMIT_S = 170.0

# Functions with their own rows in the traced run, by layer.
TRACED_FUNCTIONS = {
    "ctx": (
        "elems",
        "select",
        "member",
        "splits",
        "perm",
        "perm_to_part_mask",
        "perm_to_part",
        "from_list",
        "partition_list",
        "gen_ctxs",
    ),
    "ctxspec": (
        "align_mset",
        "match_pattern",
        "instantiate",
        "value_names",
        "check_list_pred",
        "check_mset_pred",
        "generate_list_instances",
        "generate_mset_instances",
    ),
    "typecheck": ("_linear_types", "linear_type", "ml_type", "ty_ctx_list", "ty_ctx_mset"),
    "terms": ("open_term", "fresh", "free_names"),
    "translate": (
        "translate",
        "ltrans_rel",
        "trans_rel_list",
        "trans_rel_mset",
        "trans_rel_align",
    ),
}

RUNNER_FUNCTIONS = ("report.run_checks", "report.run_check")

END_TO_END_UNITS = {
    "verdict_s": "s",
    "cases_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def check_keys(expected: dict) -> list:
    return sorted({check_key(name) for w in expected.values() for name in w["checks"]})


def per_layer_units(expected: dict) -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, names in TRACED_FUNCTIONS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    units["ctxspec.align_mset.found_ratio"] = "ratio"
    units["ctxspec.check_list_pred.accept_ratio"] = "ratio"
    units["ctxspec.instances_per_case"] = "ratio"
    units["typecheck.ml_type.typed_ratio"] = "ratio"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["report.run_checks.overhead_s"] = "s"
    for key in check_keys(expected):
        units[f"suites.{key}.s"] = "s"
    units["suites.cases"] = "count"
    units["cex_s"] = "s"
    units["mismatch_share"] = "share"
    units["trace.verdict_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(1.0, self.end - time.monotonic())


def worker_argv(workload: str, seed: int, *extra: str) -> list:
    return [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *extra]


def setup_samples(workload: str, seed: int, count: int, deadline: Deadline) -> list:
    """Seconds from starting a fresh interpreter until it has imported
    linctx, parsed the fixtures and built the workload's checks.

    The worker prints a line when it is ready, and the time is taken when
    that line arrives.  Waiting for the exit instead would add up to 50 ms,
    because `Popen.wait` with a timeout polls.
    """
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(
            worker_argv(workload, seed, "--setup-only"), cwd=ROOT, stdout=subprocess.PIPE
        ) as proc:
            try:
                ready, _, _ = select.select([proc.stdout], [], [], deadline.left())
                samples.append(time.perf_counter() - start)
                if not ready or proc.stdout.readline() != b"ready\n":
                    raise RuntimeError(f"set-up failed: {proc.args}")
                if proc.wait(timeout=deadline.left()) != 0:
                    raise RuntimeError(f"set-up failed: {proc.args}")
            finally:
                if proc.poll() is None:
                    proc.kill()
    return samples


def run_worker(workload: str, seed: int, seconds: float, deadline: Deadline, *flags) -> dict:
    argv = worker_argv(workload, seed, "--seconds", str(seconds), *flags)
    proc = subprocess.run(
        argv,
        cwd=ROOT,
        check=True,
        stdout=subprocess.PIPE,
        text=True,
        timeout=deadline.left(),
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(workload: str, passes: list, expected: dict) -> tuple:
    """(attempted, mismatched, messages) over every check of every pass."""
    want = expected[workload]
    attempted = mismatched = 0
    messages = []
    for run in passes:
        names = [r["name"] for r in run["checks"]]
        if len(set(names)) != want["count"]:
            mismatched += 1
            messages.append(f"{len(set(names))} checks ran, expected {want['count']}")
        for record in run["checks"]:
            attempted += 1
            expect = want["checks"].get(record["name"])
            got = {k: record.get(k) for k in ("verdict", "cases", "counterexample")}
            if "error" in record or expect != got:
                mismatched += 1
                messages.append(
                    f"{record['name']}: got {record.get('error') or got}, expected {expect}"
                )
    return attempted, mismatched, messages


def pass_cases(run: dict) -> int:
    return sum(r.get("cases", 0) for r in run["checks"])


def end_to_end(result: dict, setup_s: float) -> dict:
    passes = result["passes"]
    return {
        "verdict_s": statistics.median(p["verdict_s"] for p in passes),
        "cases_per_s": statistics.median(pass_cases(p) / p["verdict_s"] for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    plain: dict, traced: dict, expected: dict, workload: str, mismatch_share: float
) -> dict:
    functions = traced["functions"]
    empty = {"calls": 0, "self_s": 0.0, "hits": 0, "items": 0}

    def fn(key: str) -> dict:
        return functions.get(key, empty)

    (plain_pass,) = plain["passes"]
    (traced_pass,) = traced["passes"]
    values = {}
    for layer, names in TRACED_FUNCTIONS.items():
        for name in names:
            values[f"{layer}.{name}.calls"] = fn(f"{layer}.{name}")["calls"]
            values[f"{layer}.{name}.self_s"] = fn(f"{layer}.{name}")["self_s"]
    align = fn("ctxspec.align_mset")
    accept = fn("ctxspec.check_list_pred")
    typed = fn("typecheck.ml_type")
    instances = sum(
        fn(f"ctxspec.generate_{form}_instances")["items"] for form in ("list", "mset")
    )
    values["ctxspec.align_mset.found_ratio"] = _ratio(align["hits"], align["calls"])
    values["ctxspec.check_list_pred.accept_ratio"] = _ratio(accept["hits"], accept["calls"])
    values["ctxspec.instances_per_case"] = _ratio(instances, pass_cases(traced_pass))
    values["typecheck.ml_type.typed_ratio"] = _ratio(typed["hits"], typed["calls"])
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            stats["self_s"] for key, stats in functions.items() if key.split(".")[0] == layer
        )
    values["report.run_checks.overhead_s"] = sum(fn(key)["self_s"] for key in RUNNER_FUNCTIONS)
    seconds = {check_key(r["name"]): r["s"] for r in traced_pass["checks"]}
    for key in check_keys(expected):
        values[f"suites.{key}.s"] = seconds.get(key, 0.0)
    values["suites.cases"] = pass_cases(traced_pass)
    fails = [n for n, e in expected[workload]["checks"].items() if e["verdict"] == "fail"]
    values["cex_s"] = sum((r["s"] for r in plain_pass["checks"] if r["name"] in fails), 0.0)
    values["mismatch_share"] = mismatch_share
    values["trace.verdict_s"] = traced_pass["verdict_s"]
    values["trace.overhead_s"] = traced_pass["verdict_s"] - plain_pass["verdict_s"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = (ROOT / "src" / "linctx", ROOT / "tests" / "fixtures")
    missing = [p for p in needed if not p.is_dir()]
    if missing:
        print(f"perfbench: not a linctx checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    deadline = Deadline(RUN_LIMIT_S)
    expected = load_expected()
    if args.trace:
        # Both passes on the wall clock, so that their difference is the
        # cost of tracing.
        plain = run_worker(args.workload, args.seed, 0.0, deadline)
        traced = run_worker(args.workload, args.seed, 0.0, deadline, "--trace")
        passes = plain["passes"] + traced["passes"]
    else:
        # Half the set-up samples are taken before the workload and half
        # after, so that their median does not rest on one stretch of host speed.
        setup = setup_samples(args.workload, args.seed, SETUP_SAMPLES // 2, deadline)
        plain = run_worker(args.workload, args.seed, args.seconds, deadline, "--host-clock")
        setup += setup_samples(args.workload, args.seed, SETUP_SAMPLES // 2, deadline)
        passes = plain["passes"]

    attempted, mismatched, messages = compare(args.workload, passes, expected)
    for message in messages:
        print(f"MISMATCH {message}", file=sys.stderr)
    for run in passes:
        for r in run["checks"]:
            mark = (r.get("verdict") or "error").upper()
            print(f"{mark:5} {r['name']} cases={r.get('cases')} {r['s']:.3f} s")
    mismatch_share = mismatched / attempted
    print(f"mismatch_share {mismatch_share} share")

    if args.trace:
        values = per_layer(plain, traced, expected, args.workload, mismatch_share)
        units = per_layer_units(expected)
    else:
        values = end_to_end(plain, statistics.median(setup))
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": mismatched == 0,
                "attempted": attempted,
                "failed": mismatched,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
