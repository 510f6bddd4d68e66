"""Command-line front end.

Subcommands: `check` verifies typing judgments against one of the three
systems, `translate` runs the let-elimination translation, and `verify`
elaborates context-specification files, runs the generated
distributivity checks, lifts and verifies user lemmas, and runs the
built-in lemma suites.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable

from . import suites
from .ctx import EMPTY
from .ctxspec import (
    check_distr_cases,
    check_lemma_arity,
    lift_lemma,
    parse_lemma_file,
    parse_spec_file,
    verify_lemma_cases,
)
from .errors import LinctxError, SyntaxError_
from .report import GenBounds, all_passed, render_structured, render_text, run_checks
from .terms import parse_term, print_term
from .translate import ltrans_rel, translate
from .typecheck import check_judgment, linear_type, ml_type, parse_judgment


class _Unreadable(Exception):
    """An input file that could not be read; the message names it."""


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        reason = e.strerror if isinstance(e, OSError) and e.strerror else str(e)
        raise _Unreadable(f"{path}: cannot read: {reason}") from e


def _content_lines(path: str) -> list:
    lines = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((lineno, stripped))
    return lines


def cmd_check(args: argparse.Namespace) -> int:
    failures = 0
    for lineno, line in _content_lines(args.file):
        try:
            judgment = parse_judgment(line)
        except LinctxError as e:
            print(f"{args.file}:{lineno}: parse error: {e}")
            return 2
        try:
            verdict = check_judgment(judgment, args.system, algo=args.algo)
        except LinctxError as e:
            print(f"{args.file}:{lineno}: {type(e).__name__}: {e}")
            return 2
        if verdict != judgment.expect:
            failures += 1
            expected = "accept" if judgment.expect else "reject"
            actual = "accept" if verdict else "reject"
            print(f"{args.file}:{lineno}: MISMATCH expected {expected}, got {actual}: {line}")
        else:
            print(f"{args.file}:{lineno}: ok")
    if failures:
        print(f"{failures} mismatched judgment(s)")
        return 1
    return 0


def cmd_translate(args: argparse.Namespace) -> int:
    status = 0
    for lineno, line in _content_lines(args.file):
        try:
            term = parse_term(line)
        except LinctxError as e:
            print(f"{args.file}:{lineno}: parse error: {e}")
            status = 2
            continue
        try:
            translated = translate(EMPTY, term)
        except LinctxError as e:
            print(f"{args.file}:{lineno}: {type(e).__name__}: {e}")
            status = 1
            continue
        print(print_term(translated))
        if args.verify:
            problems = []
            if not ltrans_rel(EMPTY, term, translated):
                problems.append("translation relation does not hold")
            src_ty = ml_type(EMPTY, term)
            if src_ty is not None and linear_type(EMPTY, translated) != src_ty:
                problems.append("type not preserved")
            if problems:
                print(f"{args.file}:{lineno}: VERIFY FAILED: {'; '.join(problems)}")
                status = 1
    return status


_SUITES = {
    "core": lambda bounds, jobs: suites.core_lemma_suite(
        max_elems=max(bounds.ctx_elems, 4), max_depth=max(bounds.union_depth, 3), jobs=jobs
    ),
    "typing": lambda bounds, jobs: suites.typing_lemma_suite(bounds, jobs=jobs),
    "translation": lambda bounds, jobs: suites.translation_lemma_suite(bounds, jobs=jobs),
    "equivalence": lambda bounds, jobs: suites.equivalence_suite(bounds, jobs=jobs),
}


def cmd_verify(args: argparse.Namespace) -> int:
    if not args.specfile and not args.suite:
        print("nothing to verify: give a specification file and/or --suite")
        return 2
    bounds = GenBounds(
        ctx_elems=args.bound_ctx,
        union_depth=args.bound_depth,
        term_size=args.bound_term_size,
    )

    # Every input is read and checked before the first check runs, so a
    # bad one is reported at once rather than after minutes of checking.
    suite_names = args.suite or ()
    for suite_name in suite_names:
        if suite_name not in _SUITES:
            print(f"unknown suite {suite_name!r}; choose from {sorted(_SUITES)}")
            return 2

    specs = []
    if args.specfile:
        try:
            specs = parse_spec_file(_read_text(args.specfile))
        except SyntaxError_ as e:
            print(f"{args.specfile}: parse error: {e}")
            return 2
        if not specs:
            print(f"{args.specfile}: no Context command")
            return 2
        for spec in specs:
            for warning in spec.warnings:
                print(f"warning: {warning}")
    entries = [
        (f"{spec.name}_distr{index}", check_distr_cases, (spec, index, bounds))
        for spec in specs
        for index in range(1, spec.arity + 1)
    ]

    if args.lemmas:
        if not specs:
            print("--lemmas requires a specification file")
            return 2
        try:
            stmts = parse_lemma_file(_read_text(args.lemmas))
        except SyntaxError_ as e:
            print(f"{args.lemmas}: parse error: {e}")
            return 2
        by_pred = {}
        for spec in specs:
            by_pred[spec.name] = spec
            by_pred[spec.list_name] = spec
        for stmt in stmts:
            spec = by_pred.get(stmt.pred_name)
            if spec is None:
                print(f"lemma {stmt.name!r}: no specification defines {stmt.pred_name!r}")
                return 2
            try:
                check_lemma_arity(spec, stmt)
                lifted = lift_lemma(spec, stmt)[0] if stmt.pred_name == spec.list_name else None
            except LinctxError as e:
                print(f"lemma {stmt.name!r}: {type(e).__name__}: {e}")
                return 2
            entries.append((stmt.name, verify_lemma_cases, (spec, stmt, bounds)))
            if lifted is not None:
                entries.append((lifted.name, verify_lemma_cases, (spec, lifted, bounds)))

    reports = []
    for suite_name in suite_names:
        reports.extend(_SUITES[suite_name](bounds, args.jobs))
    reports.extend(run_checks(entries, jobs=args.jobs))
    reports.sort(key=lambda r: r.name)
    if args.format == "structured":
        print(render_structured(reports, timings=args.timings))
    else:
        print(render_text(reports, timings=args.timings))
    return 0 if all_passed(reports) else 1


def _bound(minimum: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than `minimum`."""

    def bound(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return bound


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linctx",
        description="Decision procedures and bounded-exhaustive verification "
        "for partitionable binding contexts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verify typing judgments from a file")
    p_check.add_argument("file")
    p_check.add_argument(
        "--system", choices=("stlc", "linear", "ml"), default="linear"
    )
    p_check.add_argument(
        "--algo",
        action="store_true",
        help="use the leftover-threading checker instead of the relational one",
    )
    p_check.set_defaults(func=cmd_check)

    p_tr = sub.add_parser("translate", help="translate closed terms from a file")
    p_tr.add_argument("file")
    p_tr.add_argument(
        "--verify",
        action="store_true",
        help="also check the translation relation and type preservation",
    )
    p_tr.set_defaults(func=cmd_translate)

    p_v = sub.add_parser(
        "verify", help="elaborate context specifications and run lemma checks"
    )
    p_v.add_argument("specfile", nargs="?", help="file of Context commands")
    p_v.add_argument("--lemmas", help="file of list-level lemmas to verify and lift")
    p_v.add_argument(
        "--suite",
        action="append",
        help=f"built-in suite to run ({', '.join(sorted(_SUITES))}); repeatable",
    )
    p_v.add_argument("--bound-term-size", type=_bound(1), default=4, metavar="N")
    p_v.add_argument("--bound-ctx", type=_bound(0), default=3, metavar="N")
    p_v.add_argument("--bound-depth", type=_bound(1), default=2, metavar="N")
    p_v.add_argument("--jobs", type=_bound(1), default=1, metavar="N")
    p_v.add_argument("--format", choices=("text", "structured"), default="text")
    p_v.add_argument(
        "--timings",
        action="store_true",
        help="include elapsed times (structured output is then not reproducible)",
    )
    p_v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Unreadable as e:
        print(e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
