"""Bounded-verification reports and the check runner.

Every lemma check reduces to a named callable returning a case count and
an optional counterexample; `counted` derives that callable from a
generator of per-case outcomes.  The runner times each check, optionally
fans independent checks out to worker processes, and always emits
reports in canonical order (by name) so output is deterministic
regardless of the parallelism degree.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence


@dataclass(frozen=True)
class GenBounds:
    """Size bounds for the bounded-exhaustive generators."""

    ctx_elems: int = 3        # max context elements / clause applications
    union_depth: int = 2      # max union-nesting depth of generated contexts
    term_size: int = 4        # max term constructors


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one bounded-exhaustive lemma check."""

    name: str
    cases: int
    verdict: str  # "pass" | "fail"
    counterexample: Optional[str] = None
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def counted(check: Callable[..., Iterator]) -> Callable[..., tuple]:
    """Turn a generator of per-case outcomes into a check returning
    (cases, counterexample_or_None).

    The generator yields once per case: a false value when the case
    holds, the counterexample string when it fails.  The count includes
    the failing case, and the generator is not resumed after it, so a
    case may yield its failure before the outcome that ends a passing
    case.
    """

    @functools.wraps(check)
    def run(*args, **kwargs) -> tuple:
        cases = 0
        for cases, outcome in enumerate(check(*args, **kwargs), 1):
            if outcome:
                return cases, outcome
        return cases, None

    return run


def run_check(name: str, fn: Callable[[], tuple]) -> CheckReport:
    """Run one check; fn returns (cases, counterexample_or_None)."""
    start = time.perf_counter()
    cases, counterexample = fn()
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckReport(
        name=name,
        cases=cases,
        verdict="pass" if counterexample is None else "fail",
        counterexample=counterexample,
        elapsed_ms=elapsed,
    )


def _run_entry(entry: tuple) -> CheckReport:
    name, fn, args = entry
    return run_check(name, lambda: fn(*args))


def run_checks(checks: Sequence[tuple], jobs: int = 1) -> list:
    """Run (name, fn, args) checks, canonically ordered by name.

    With jobs > 1, checks run in worker processes; fn and args must be
    picklable (module-level functions and plain data).  Results are
    identical to a sequential run except for timings.
    """
    entries = sorted(checks, key=lambda e: e[0])
    if jobs <= 1 or len(entries) <= 1:
        return [_run_entry(e) for e in entries]
    # Imported here: the pool's modules would add to every start.  The pool
    # may start every worker up front, so it gets no more than there are
    # checks.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(entries))) as pool:
        return list(pool.map(_run_entry, entries))


def render_text(reports: Sequence[CheckReport], timings: bool = True) -> str:
    lines = []
    for r in reports:
        mark = "PASS" if r.passed else "FAIL"
        suffix = f"  [{r.elapsed_ms:.1f} ms]" if timings else ""
        lines.append(f"{mark} {r.name} (cases={r.cases}){suffix}")
        if r.counterexample is not None:
            lines.append(f"     counterexample: {r.counterexample}")
    return "\n".join(lines)


def render_structured(reports: Sequence[CheckReport], timings: bool = False) -> str:
    """One JSON record per line; timings are omitted by default so that
    runs with identical inputs produce byte-identical output."""
    lines = []
    for r in reports:
        record = {
            "name": r.name,
            "cases": r.cases,
            "verdict": r.verdict,
            "counterexample": r.counterexample,
            "elapsed_ms": round(r.elapsed_ms, 3) if timings else None,
        }
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines)


def all_passed(reports: Sequence[CheckReport]) -> bool:
    return all(r.passed for r in reports)
