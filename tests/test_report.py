"""Report rendering and the check runner."""

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields

from linctx import report
from linctx.ctx import from_list
from linctx.report import (
    CheckReport,
    GenBounds,
    all_passed,
    counted,
    render_structured,
    render_text,
    run_check,
    run_checks,
)
from linctx.terms import Arrow, Base, Name, parse_term
from linctx.typecheck import TyAssoc, linear_type


def _passing(n):
    return n, None


def _failing(n):
    return n, "broken"


@counted
def _fails_at(n, limit):
    """Case k fails when k is n; the cases run from 1 to limit."""
    for k in range(1, limit + 1):
        yield k == n and f"case {k}"


def _typed_where_built(g, t, ty):
    """Whether the nodes that arrived in this process are the ones it
    builds itself (the context as a dict key too), and type as expected."""
    here = from_list([TyAssoc(Name("f"), Arrow(Base("i"), Base("o")))])
    same = (
        t is parse_term("abs i (x\\ app f x)", nominals=["f"])
        and {here: True}.get(g, False)
        and linear_type(g, t) is ty
    )
    return 1, None if same else f"not re-interned: {t!r}"


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

    def test_jobs_reintern_check_arguments(self):
        # Arguments reach a worker pickled; their nodes must come back as
        # the worker's own interned nodes, and contexts with matching hashes.
        g = from_list([TyAssoc(Name("f"), Arrow(Base("i"), Base("o")))])
        t = parse_term("abs i (x\\ app f x)", nominals=["f"])
        ty = Arrow(Base("i"), Base("o"))
        checks = [(name, _typed_where_built, (g, t, ty)) for name in ("a", "b")]
        for jobs in (1, 2):
            assert [r.counterexample for r in run_checks(checks, jobs=jobs)] == [None, None]
        # A forked worker inherits this process's tables; a fresh
        # interpreter shares no object with it.
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            assert pool.submit(_typed_where_built, g, t, ty).result() == (1, None)

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


class TestCounted:
    def test_count_includes_the_failing_case(self):
        assert _fails_at(3, 5) == (3, "case 3")
        assert _fails_at(1, 5) == (1, "case 1")

    def test_all_cases_counted_when_none_fails(self):
        assert _fails_at(0, 5) == (5, None)

    def test_not_resumed_after_a_failure(self):
        @counted
        def check():
            yield None
            yield "broken"
            raise AssertionError("resumed after its failing case")

        assert check() == (2, "broken")

    def test_empty_generator(self):
        @counted
        def check():
            yield from ()

        assert check() == (0, None)

    def test_false_values_hold(self):
        @counted
        def check():
            yield from (None, False, ())

        assert check() == (3, None)

    def test_keeps_name_and_doc_and_runs_in_workers(self):
        assert _fails_at.__name__ == "_fails_at"
        assert _fails_at.__doc__ == "Case k fails when k is n; the cases run from 1 to limit."
        checks = [("a", _fails_at, (0, 4)), ("b", _fails_at, (2, 4)), ("c", _fails_at, (9, 0))]
        strip = lambda rs: [(r.name, r.cases, r.verdict, r.counterexample) for r in rs]
        expected = [("a", 4, "pass", None), ("b", 2, "fail", "case 2"), ("c", 0, "pass", None)]
        assert strip(run_checks(checks, jobs=1)) == expected
        assert strip(run_checks(checks, jobs=2)) == expected


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
