"""One workload in a fresh interpreter: build its checks, run them, report.

    python3 perfbench/worker.py --workload core --seed 1 --seconds 24 \
        [--host-clock] [--trace] [--setup-only]

The inputs are built from the seed alone: it sets the order of the checks
and, for `schematic`, which trans_rel index is checked.  Every check runs
through `linctx.report.run_checks` with jobs=1, one call per check so the
seed's order holds.  Whole passes repeat while the next one is predicted
to end within --seconds of wall time; there is always at least one.  With
--host-clock, times are read from `hostclock.HostClock`, which takes the
host's speed drift out of them; otherwise they are wall times.  The record
printed on stdout holds each check's verdict, case count, counterexample
and time per pass, the peak RSS at the end of the first pass and, with
--trace, the per-function aggregates.  `run.py` compares the records with
`expected.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import re
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "tests" / "fixtures"
TRACE_DIR = ROOT / ".perfbench-out"

WORKLOADS = ("schematic", "equivalence", "translation", "core")


def _import_linctx():
    src = ROOT / "src"
    if not (src / "linctx" / "__init__.py").is_file():
        raise SystemExit(f"linctx sources not found under {src}")
    sys.path.insert(0, str(src))
    import linctx

    return linctx


def check_key(name: str) -> str:
    """A check's name in metric names.

    The seeded trans_rel distributivity check has one key whatever its
    index, so that every run reports the same metrics.
    """
    return re.sub(r"^trans_rel_distr\d+$", "trans_rel_distr", name).replace("'", "prime")


def _suite_entries(suites, suite_fn, *args) -> list:
    """The (name, fn, args) checks a suite function would run, without running them."""
    captured: list = []
    real = suites.run_checks
    suites.run_checks = lambda checks, jobs=1: captured.extend(checks) or []
    try:
        suite_fn(*args)
    finally:
        suites.run_checks = real
    return captured


def _schematic(linctx, rng: random.Random) -> list:
    from linctx.ctxspec import (
        check_distr_cases,
        lift_lemma,
        parse_lemma_file,
        parse_spec_file,
        verify_lemma_cases,
    )

    GenBounds = linctx.GenBounds
    specs = parse_spec_file((FIXTURES / "specs.ctx").read_text())
    by_pred = {}
    for spec in specs:
        by_pred[spec.name] = spec
        by_pred[spec.list_name] = spec
    ty_ctx, trans_rel = by_pred["ty_ctx'"], by_pred["trans_rel"]
    # trans_rel relates three contexts: at ctx_elems=3 one of its
    # distributivity checks alone takes 14-20 s, so it runs one size lower.
    bounds = {ty_ctx.name: GenBounds(), trans_rel.name: GenBounds(ctx_elems=2)}
    fail_bounds = GenBounds(ctx_elems=3)
    index = rng.randint(1, trans_rel.arity)
    checks = [
        (f"{ty_ctx.name}_distr1", check_distr_cases, (ty_ctx, 1, bounds[ty_ctx.name])),
        (
            f"{trans_rel.name}_distr{index}",
            check_distr_cases,
            (trans_rel, index, bounds[trans_rel.name]),
        ),
    ]
    lemmas = parse_lemma_file((FIXTURES / "lemmas.lem").read_text())
    for stmt in lemmas:
        spec = by_pred[stmt.pred_name]
        lifted, _checker = lift_lemma(spec, stmt)
        for lemma in (stmt, lifted):
            checks.append((lemma.name, verify_lemma_cases, (spec, lemma, bounds[spec.name])))

    # Expected FAILs: keys that are metavariables, and the freshness mutation.
    (loose,) = parse_spec_file((FIXTURES / "broken_freshness.ctx").read_text())
    for stmt in parse_lemma_file((FIXTURES / "broken_uniq.lem").read_text()):
        lifted, _checker = lift_lemma(loose, stmt)
        for lemma in (stmt, lifted):
            checks.append((lemma.name, verify_lemma_cases, (loose, lemma, fail_bounds)))
    (uniq,) = [s for s in lemmas if s.name == "ty_ctx_uniq"]
    checks.append(
        ("ty_ctx_uniq_nofresh", verify_lemma_cases, (ty_ctx, uniq, fail_bounds, False))
    )
    return checks


def build_checks(linctx, workload: str, seed: int) -> list:
    """The workload's (name, fn, args) checks in the seed's order."""
    from linctx import suites

    rng = random.Random(seed)
    GenBounds = linctx.GenBounds
    if workload == "schematic":
        checks = _schematic(linctx, rng)
    else:
        if workload == "equivalence":
            entries = _suite_entries(
                suites, suites.equivalence_suite, GenBounds(term_size=4, ctx_elems=1)
            )
            entries = [e for e in entries if e[0] == "equiv.linear_ml"]
        elif workload == "translation":
            entries = _suite_entries(
                suites,
                suites.translation_lemma_suite,
                GenBounds(ctx_elems=2, term_size=5),
            )
        elif workload == "core":
            entries = _suite_entries(suites, suites.core_lemma_suite, 3, 3)
        else:
            raise SystemExit(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        checks = list(entries)
    rng.shuffle(checks)
    return checks


def run_pass(linctx, checks: list, tracer=None, clock=time.perf_counter) -> dict:
    records = []
    start = clock()
    for name, fn, args in checks:
        record = {"name": name}
        began = clock()
        try:
            if tracer is None:
                (report,) = linctx.report.run_checks([(name, fn, args)], jobs=1)
            else:
                with tracer.span(name):
                    (report,) = linctx.report.run_checks(
                        [(name, tracer.wrapped(fn), args)], jobs=1
                    )
        except Exception as exc:  # a crash is a mismatch, and the pass goes on
            record.update(error=f"{type(exc).__name__}: {exc}", s=clock() - began)
        else:
            record.update(
                verdict=report.verdict,
                cases=report.cases,
                counterexample=report.counterexample,
                s=clock() - began,
            )
        records.append(record)
    return {"verdict_s": clock() - start, "checks": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--host-clock", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    linctx = _import_linctx()
    checks = build_checks(linctx, args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    clock = contextlib.nullcontext()
    if args.host_clock:
        from hostclock import HostClock

        clock = HostClock()

    passes = []
    # Only the first pass sets the peak RSS: how many passes fit in
    # --seconds depends on the host's speed, and a later pass can raise it.
    peak_rss_kb = None
    began = time.perf_counter()
    with clock as host_clock:
        while True:
            pass_began = time.perf_counter()
            passes.append(run_pass(linctx, checks, tracer, host_clock or time.perf_counter))
            if peak_rss_kb is None:
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if tracer is not None:
                break
            now = time.perf_counter()
            if now - began + (now - pass_began) > args.seconds:
                break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "peak_rss_kb": peak_rss_kb,
    }
    if tracer is not None:
        tracer.uninstall()
        result["functions"] = tracer.summary()
        tracer.dump(TRACE_DIR / f"trace-{args.workload}-{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
