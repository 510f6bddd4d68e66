"""Command-line interface over the shipped fixtures."""

import json
from pathlib import Path

import pytest

from linctx.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
# Structured reports pinned byte for byte: verdicts, case counts and
# counterexample strings.
GOLDEN = FIXTURES / "golden"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


# Each run of `check` and `translate` pinned in cli_check_translate.txt:
# its command line, its stdout and its exit status.
CLI_RUNS = [
    ["check", "--system", system, *algo, judg]
    for judg in ("linear.judg", "ml.judg", "stlc.judg")
    for system in ("stlc", "linear", "ml")
    for algo in ([], ["--algo"])
] + [["translate", "--verify", "terms.tm"]]


class TestCheck:
    def test_check_and_translate_golden(self, capsys, monkeypatch):
        monkeypatch.chdir(FIXTURES)
        transcript = ""
        for argv in CLI_RUNS:
            code, out = run(capsys, *argv)
            transcript += f"$ linctx {' '.join(argv)}\n{out}exit {code}\n"
        assert transcript == (GOLDEN / "cli_check_translate.txt").read_text()

    def test_linear_fixture(self, capsys):
        code, out = run(capsys, "check", "--system", "linear", FIXTURES / "linear.judg")
        assert code == 0
        assert "MISMATCH" not in out

    def test_stlc_fixture(self, capsys):
        code, _ = run(capsys, "check", "--system", "stlc", FIXTURES / "stlc.judg")
        assert code == 0

    def test_ml_fixture_algo(self, capsys):
        code, _ = run(
            capsys, "check", "--system", "ml", "--algo", FIXTURES / "ml.judg"
        )
        assert code == 0

    def test_mismatch_detected(self, capsys, tmp_path):
        bad = tmp_path / "bad.judg"
        bad.write_text("nil |- abs i (x\\ x) : i -> i ; reject\n")
        code, out = run(capsys, "check", "--system", "linear", bad)
        assert code == 1
        assert "MISMATCH" in out

    def test_deep_context_gives_verdict(self, capsys, tmp_path):
        entries = " :: ".join(f"ty_of n{k} i" for k in range(1, 3001))
        deep = tmp_path / "deep.judg"
        deep.write_text(f"{entries} :: nil |- n1 : i ; reject\n")
        code, out = run(capsys, "check", "--system", "linear", "--algo", deep)
        assert code == 0
        assert out == f"{deep}:1: ok\n"

    def test_deep_parentheses_give_verdict(self, capsys, tmp_path):
        deep = tmp_path / "deep.judg"
        deep.write_text("(" * 3000 + "[ty_of x i]" + ")" * 3000 + " |- x : i ; accept\n")
        code, out = run(capsys, "check", "--system", "linear", "--algo", deep)
        assert code == 0
        assert out == f"{deep}:1: ok\n"

    def test_deep_arrow_type_gives_verdict(self, capsys, tmp_path):
        arrows = " -> ".join(["i"] * 3001)
        deep = tmp_path / "deep.judg"
        deep.write_text(f"nil |- abs i (x\\ x) : {arrows} ; reject\n")
        code, out = run(capsys, "check", "--system", "ml", deep)
        assert code == 0
        assert out == f"{deep}:1: ok\n"

    def test_parse_error_gives_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.judg"
        bad.write_text("# comment\nnil |- : ; accept\n")
        code, out = run(capsys, "check", "--system", "linear", bad)
        assert code == 2
        assert ":2:" in out


class TestTranslate:
    def test_fixture(self, capsys):
        code, out = run(capsys, "translate", "--verify", FIXTURES / "terms.tm")
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert lines[0] == "abs i (x\\ x)"  # let-free terms are unchanged
        assert "app (abs (i -> i) (x\\ x)) (abs i (x\\ x))" in lines

    @pytest.mark.parametrize(
        "annotation, printed",
        [
            ("(" * 3000 + "i" + ")" * 3000, "i"),
            ("(" + " -> ".join(["i"] * 3001) + ")", "(" + " -> ".join(["i"] * 3001) + ")"),
        ],
        ids=["3000-parentheses", "3000-arrows"],
    )
    def test_deep_type_annotation(self, capsys, tmp_path, annotation, printed):
        deep = tmp_path / "deep.tm"
        deep.write_text(f"abs {annotation} (x\\ x)\n")
        code, out = run(capsys, "translate", deep)
        assert code == 0
        assert out == f"abs {printed} (x\\ x)\n"

    def test_nonlinear_term_fails(self, capsys, tmp_path):
        f = tmp_path / "t.tm"
        f.write_text("abs i (x\\ app x x)\n")
        code, out = run(capsys, "translate", "--verify", f)
        assert code == 1
        assert "LinearityError" in out


class TestVerify:
    def test_specs_and_lemmas(self, capsys):
        code, out = run(
            capsys,
            "verify",
            FIXTURES / "specs.ctx",
            "--lemmas",
            FIXTURES / "lemmas.lem",
            "--format",
            "structured",
            "--bound-ctx",
            "2",
        )
        assert code == 0
        assert out == (GOLDEN / "verify_specs_lemmas.jsonl").read_text()

    def test_broken_spec_fails_with_counterexample(self, capsys):
        code, out = run(
            capsys,
            "verify",
            FIXTURES / "broken_freshness.ctx",
            "--lemmas",
            FIXTURES / "broken_uniq.lem",
            "--format",
            "structured",
            "--bound-ctx",
            "2",
        )
        assert code == 1
        assert out == (GOLDEN / "verify_broken_freshness_uniq.jsonl").read_text()

    def test_typing_suite_golden(self, capsys):
        code, out = run(
            capsys, "verify", "--suite", "typing", "--format", "structured", "--bound-ctx", "2"
        )
        assert code == 0
        assert out == (GOLDEN / "verify_suite_typing.jsonl").read_text()

    def test_unknown_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "nonsense")
        assert code == 2
        assert "unknown suite" in out

    def test_structured_deterministic_across_jobs(self, capsys):
        argv = [
            "verify",
            "--suite",
            "typing",
            "--format",
            "structured",
            "--bound-ctx",
            "1",
        ]
        code1, out1 = run(capsys, *argv, "--jobs", "1")
        code2, out2 = run(capsys, *argv, "--jobs", "2")
        assert code1 == code2 == 0
        assert out1 == out2
        for line in out1.strip().splitlines():
            record = json.loads(line)
            assert record["verdict"] == "pass"
            assert record["elapsed_ms"] is None

    def test_schematic_structured_deterministic_across_jobs(self, capsys):
        # The distributivity and lemma checks build interned terms, types
        # and context entries in their worker processes.
        argv = [
            "verify",
            FIXTURES / "specs.ctx",
            "--lemmas",
            FIXTURES / "lemmas.lem",
            "--format",
            "structured",
        ]
        code1, out1 = run(capsys, *argv, "--jobs", "1")
        code2, out2 = run(capsys, *argv, "--jobs", "2")
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.strip().splitlines()) == 12

    def test_text_and_structured_verdicts_agree(self, capsys):
        argv = ["verify", FIXTURES / "specs.ctx", "--bound-ctx", "1"]
        code_t, out_t = run(capsys, *argv, "--format", "text")
        code_s, out_s = run(capsys, *argv, "--format", "structured")
        assert code_t == code_s == 0
        text_names = [
            line.split()[1] for line in out_t.splitlines() if line.startswith("PASS")
        ]
        json_names = [
            json.loads(line)["name"] for line in out_s.strip().splitlines()
        ]
        assert text_names == json_names

    def test_timings_flag_breaks_reproducibility_knowingly(self, capsys):
        argv = [
            "verify", "--suite", "typing", "--format", "structured",
            "--bound-ctx", "1", "--timings",
        ]
        _, out = run(capsys, *argv)
        assert json.loads(out.strip().splitlines()[0])["elapsed_ms"] is not None


# Each lemma file, and the specification file without a Context command,
# is rejected before any check runs.
BAD_INPUTS = {
    "unknown.lem": "Lemma u : forall L X, nope_list L -> member X L -> true.",
    "arity.lem": "Lemma arity : forall L M X, ty_ctx'_list L M -> member X L -> true.",
    "few.lem": "Lemma few : forall L X, trans_rel_list L -> member X L -> true.",
    "few_mset.lem": "Lemma few_mset : forall G X, trans_rel G -> member X G -> true.",
    "dup.lem": "Lemma dup : forall L X, trans_rel_list L L L -> member X L -> true.",
    "undeclared.lem": (
        "Lemma undeclared : forall L X, ty_ctx'_list L -> member (ty_of X T) L -> X = Y."
    ),
    "ctx_term.lem": "Lemma m2 : forall L X, ty_ctx'_list L -> member X L -> X = L.",
    "ctx_term_mset.lem": "Lemma m : forall G X, ty_ctx' G -> member X G -> X = G.",
    "empty.ctx": "# a specification file without a Context command",
}


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, missing",
        [
            (["check", "missing.judg"], "missing.judg"),
            (["translate", "missing.tm"], "missing.tm"),
            (["verify", "missing.ctx"], "missing.ctx"),
            (["verify", FIXTURES / "specs.ctx", "--lemmas", "missing.lem"], "missing.lem"),
        ],
    )
    def test_missing_file(self, capsys, tmp_path, monkeypatch, argv, missing):
        monkeypatch.chdir(tmp_path)
        code, out = run(capsys, *argv)
        assert code == 2
        assert out == f"{missing}: cannot read: No such file or directory\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["verify", FIXTURES / "specs.ctx", "--lemmas", "missing.lem"],
                "missing.lem: cannot read: No such file or directory",
            ),
            (
                ["verify", FIXTURES / "specs.ctx", "--lemmas", "unknown.lem"],
                "lemma 'u': no specification defines 'nope_list'",
            ),
            (
                ["verify", "--suite", "core", "--suite", "nope"],
                "unknown suite 'nope'; choose from "
                "['core', 'equivalence', 'translation', 'typing']",
            ),
            (
                ["verify", FIXTURES / "specs.ctx", "--lemmas", "arity.lem"],
                "lemma 'arity': ShapeError: \"ty_ctx'_list\" takes 1 context(s), got 2",
            ),
            (
                ["verify", FIXTURES / "specs.ctx", "--lemmas", "few.lem"],
                "lemma 'few': ShapeError: 'trans_rel_list' takes 3 context(s), got 1",
            ),
            (
                ["verify", FIXTURES / "specs.ctx", "--lemmas", "few_mset.lem"],
                "lemma 'few_mset': ShapeError: 'trans_rel' takes 3 context(s), got 1",
            ),
            (
                ["verify", FIXTURES / "specs.ctx", "--lemmas", "dup.lem"],
                "dup.lem: parse error: context variable 'L' is repeated (at position 41)",
            ),
            (
                ["verify", FIXTURES / "specs.ctx", "--lemmas", "undeclared.lem"],
                "undeclared.lem: parse error: undeclared variable 'T' (at position 65)",
            ),
            (
                ["verify", FIXTURES / "specs.ctx", "--lemmas", "ctx_term.lem"],
                "ctx_term.lem: parse error: context variable 'L' is used as a term "
                "(at position 59)",
            ),
            (
                ["verify", FIXTURES / "specs.ctx", "--lemmas", "ctx_term_mset.lem"],
                "ctx_term_mset.lem: parse error: context variable 'G' is used as a term "
                "(at position 53)",
            ),
            (["verify", "empty.ctx"], "empty.ctx: no Context command"),
            (
                ["verify", "empty.ctx", "--lemmas", FIXTURES / "lemmas.lem"],
                "empty.ctx: no Context command",
            ),
        ],
        ids=[
            "missing-lemmas",
            "unknown-predicate",
            "unknown-suite",
            "wrong-arity",
            "too-few-contexts",
            "too-few-contexts-mset",
            "repeated-context",
            "undeclared-variable",
            "context-variable-term",
            "context-variable-term-mset",
            "no-context-command",
            "no-context-command-with-lemmas",
        ],
    )
    def test_inputs_checked_before_any_check_runs(
        self, capsys, tmp_path, monkeypatch, argv, message
    ):
        def no_checks(*args, **kwargs):
            raise AssertionError("a check ran before every input was checked")

        monkeypatch.setattr("linctx.cli.run_checks", no_checks)
        monkeypatch.setattr("linctx.suites.run_checks", no_checks)
        monkeypatch.chdir(tmp_path)
        for name, text in BAD_INPUTS.items():
            (tmp_path / name).write_text(text + "\n")
        code, out = run(capsys, *argv)
        assert code == 2
        assert out == message + "\n"

    @pytest.mark.parametrize(
        "options, operands, message",
        [
            (["--system", "linear", "--algo"], 2, "leftover checking requires a list-form context"),
            (["--system", "linear", "--algo"], 3000, "leftover checking requires a list-form context"),
            (["--system", "stlc"], 2, "type_of_enum requires a list-form context"),
            (["--system", "stlc", "--algo"], 2, "type_of_infer requires a list-form context"),
        ],
        ids=["linear-algo", "linear-algo-3000-operands", "stlc", "stlc-algo"],
    )
    def test_union_context_the_checker_cannot_take(
        self, capsys, tmp_path, options, operands, message
    ):
        union = " ++ ".join(f"[ty_of x{k} i]" for k in range(operands))
        judg = tmp_path / "union.judg"
        judg.write_text(f"{union} |- x0 : i ; reject\n")
        code, out = run(capsys, "check", *options, judg)
        assert code == 2
        assert out == f"{judg}:1: PreconditionError: {message}\n"

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--bound-ctx", "-1"),
            ("--bound-depth", "0"),
            ("--bound-term-size", "0"),
            ("--jobs", "0"),
            ("--jobs", "-3"),
        ],
    )
    def test_bound_below_minimum(self, capsys, option, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--suite", "typing", option, value])
        assert exit_info.value.code == 2
        assert f"argument {option}: must be at least" in capsys.readouterr().err
