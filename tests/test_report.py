"""Report rendering and the check runner."""

import json
from dataclasses import fields

from linctx import report
from linctx.report import (
    CheckReport,
    GenBounds,
    all_passed,
    render_structured,
    render_text,
    run_check,
    run_checks,
)


def _passing(n):
    return n, None


def _failing(n):
    return n, "broken"


class TestRunner:
    def test_run_check_timing_and_verdict(self):
        report = run_check("x", lambda: (7, None))
        assert report.passed and report.cases == 7 and report.elapsed_ms >= 0

    def test_canonical_order(self):
        checks = [("b", _passing, (1,)), ("a", _failing, (2,))]
        reports = run_checks(checks)
        assert [r.name for r in reports] == ["a", "b"]
        assert not all_passed(reports)

    def test_jobs_do_not_change_results(self):
        checks = [("a", _passing, (1,)), ("b", _passing, (2,)), ("c", _failing, (3,))]
        sequential = run_checks(checks, jobs=1)
        parallel = run_checks(checks, jobs=2)
        strip = lambda rs: [(r.name, r.cases, r.verdict, r.counterexample) for r in rs]
        assert strip(sequential) == strip(parallel)

    def test_pool_no_larger_than_the_checks(self, monkeypatch):
        # A stand-in pool that records its size and runs in this process,
        # so that a huge --jobs starts nothing.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(report, "ProcessPoolExecutor", RecordingPool)
        checks = [("a", _passing, (1,)), ("b", _passing, (2,)), ("c", _failing, (3,))]
        assert [r.name for r in run_checks(checks, jobs=5000)] == ["a", "b", "c"]
        run_checks(checks, jobs=2)
        assert sizes == [3, 2]


class TestRendering:
    def test_text(self):
        reports = [
            CheckReport("a", 3, "pass", None, 1.0),
            CheckReport("b", 1, "fail", "bad case", 2.0),
        ]
        text = render_text(reports)
        assert "PASS a (cases=3)" in text
        assert "FAIL b" in text and "bad case" in text

    def test_structured_is_reproducible_without_timings(self):
        reports = [CheckReport("a", 3, "pass", None, 17.0)]
        out = render_structured(reports)
        record = json.loads(out)
        assert record["elapsed_ms"] is None
        assert record == {
            "name": "a",
            "cases": 3,
            "verdict": "pass",
            "counterexample": None,
            "elapsed_ms": None,
        }

    def test_structured_with_timings(self):
        reports = [CheckReport("a", 3, "pass", None, 17.001)]
        record = json.loads(render_structured(reports, timings=True))
        assert record["elapsed_ms"] == 17.001


class TestBounds:
    def test_defaults(self):
        b = GenBounds()
        assert [f.name for f in fields(b)] == ["ctx_elems", "union_depth", "term_size"]
        assert (b.ctx_elems, b.union_depth, b.term_size) == (3, 2, 4)
