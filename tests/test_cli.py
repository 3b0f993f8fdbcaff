"""End-to-end tests for the weuler command line interface."""

import contextlib
import decimal
import hashlib
import importlib.resources
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weuler
from weuler import padic
from weuler.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VIOLATION, FORMATS, main
from weuler.dsl import parse_value
from weuler.euler import EulerTable
from weuler.ratfunc import Polynomial

SCHEMA = json.loads(
    importlib.resources.files("weuler").joinpath("schemas/cli.schema.json").read_text()
)
CORPUS = str(importlib.resources.files("weuler").joinpath("corpus/paper.uid"))

PINNED_ROWS = "0: 2/(1 + w)\n1: -2*w/(1 + w)^2\n2: 2*w*(w - 1)/(1 + w)^3\n"


# .uid files the golden and fuzz tests run against, written into one
# directory; the golden commands run from inside it, so the file names that
# JSON output echoes are the same wherever the tests run
UID_FILES = {
    "paper.uid": Path(CORPUS).read_text(),
    "mixed.uid": "forall n in 0..3 : E(n, x) = sum(i = 0..n, binom(n, i)*E(n - i)*x^i)\n"
                 "forall n in 0..4 : w*E(n, x + 1) + E(n, x) = 2*x^n + 1\n"
                 "forall n in 0..4 : w*E(n, x + 1) +\n"
                 "forall n in 0..3 : E(n - 5) = x\n",
    "fail.uid": "forall n in 0..4 : w*E(n, x + 1) + E(n, x) = 2*x^n + 1\n",
    "faulty.uid": "forall n in 0..4 : w*E(n, x + 1) + E(n, x) = 2*x^n + 1\n"
                  "forall n in 0..3 : E(n - 5) = x\n",
    "empty.uid": "forall n in 5..8 : E(n) = 0\n",
    # a digit int() refuses and a literal past int_max_str_digits: parse errors
    "digits.uid": "forall n in 0..2 : E(n) = E(n)\n"
                  "forall n in 0..2 : ² = x\n"
                  "forall n in 0..2 : x = " + "9" * 5000 + "\n"
                  "forall n in 0..2 : x = x + 1\n",
}


@pytest.fixture(scope="module")
def uid_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("uid")
    for name, text in UID_FILES.items():
        (path / name).write_text(text)
    return path


def run(capsys, argv, expect=EXIT_OK):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expect, f"{argv}: exit {code}, wanted {expect}\n{out}"
    return out


def run_json(capsys, argv, expect=EXIT_OK):
    out = run(capsys, argv + ["--format", "json"], expect=expect)
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return payload


class TestNumbers:
    def test_pinned_rows(self, capsys):
        assert run(capsys, ["numbers", "--max-n", "3"]) == PINNED_ROWS

    def test_json_schema(self, capsys):
        payload = run_json(capsys, ["numbers", "--max-n", "4"])
        assert payload["command"] == "numbers"
        assert payload["w"] is None
        assert payload["values"][0] == "2/(1 + w)"

    def test_numeric_weight_and_order(self, capsys):
        payload = run_json(capsys, ["numbers", "--max-n", "3", "--w", "4", "--order", "2"])
        assert payload["w"] == "4" and payload["order"] == 2
        assert payload["values"][0] == "4/25"

    def test_latex(self, capsys):
        out = run(capsys, ["numbers", "--max-n", "2", "--format", "latex"])
        assert out.splitlines()[0] == r"0 & $\frac{2}{(1 + w)}$ \\"

    def test_pole_weight_rejected(self, capsys):
        run(capsys, ["numbers", "--max-n", "3", "--w", "-1"], expect=EXIT_USAGE)


class TestPolys:
    def test_text(self, capsys):
        out = run(capsys, ["polys", "--max-n", "2"])
        lines = out.splitlines()
        assert lines[0] == "0: 2/(1 + w)"
        assert lines[1] == "1: -2*w/(1 + w)^2 + (2/(1 + w))*x"

    def test_json_schema(self, capsys):
        payload = run_json(capsys, ["polys", "--max-n", "3"])
        assert payload["values"][2] == [
            "2*w*(w - 1)/(1 + w)^3",
            "-4*w/(1 + w)^2",
            "2/(1 + w)",
        ]


@pytest.mark.parametrize("argv, order, w", [
    (["numbers", "--max-n", "12", "--order", "2"], 2, None),
    (["polys", "--max-n", "8", "--order", "2"], 2, None),
    (["polys", "--max-n", "8", "--w=-3/2"], 1, Fraction(-3, 2)),
], ids=["numbers", "polys", "polys-at-w"])
def test_every_printed_value_parses_back(capsys, argv, order, w):
    # each text line is `n: value`, and the value is a .uid expression
    table = EulerTable.build(int(argv[2]), order, w=w)
    values = table.numbers if argv[0] == "numbers" else table.polys
    lines = run(capsys, argv).splitlines()
    assert [line.split(": ", 1)[0] for line in lines] == [str(n) for n in range(len(values))]
    for line, value in zip(lines, values):
        assert parse_value(line.split(": ", 1)[1]) == value, line


class TestVerify:
    def test_small_suite_passes(self, capsys):
        out = run(capsys, ["verify", "--suite", "paper", "--max-n", "4", "--max-k", "1"])
        assert out.rstrip().endswith("result: ALL PASS")

    def test_json_schema(self, capsys):
        payload = run_json(capsys, ["verify", "--suite", "paper", "--max-n", "4", "--max-k", "1"])
        assert payload["allPass"] is True
        assert len(payload["checks"]) == 11

    def test_fault_in_computation_is_a_runtime_error(self, capsys, monkeypatch):
        def broken(max_n, max_k):
            raise ValueError("broken suite")

        monkeypatch.setattr("weuler.cli.verify_paper_suite", broken)
        code = main(["verify", "--suite", "paper", "--max-n", "4", "--max-k", "1"])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == "weuler: runtime error: broken suite\n"

    def test_unknown_suite_rejected(self, capsys):
        main(["verify", "--suite", "other", "--max-n", "4", "--max-k", "1"])
        # argparse reports the invalid choice on stderr and exits with usage
        assert main(["verify", "--suite", "other", "--max-n", "4", "--max-k", "1"]) == EXIT_USAGE
        capsys.readouterr()


class TestCheck:
    def test_shipped_corpus(self, capsys):
        out = run(capsys, ["check", CORPUS, "--max-n", "6"])
        assert out.count("PASS") == 7

    def test_json_schema(self, capsys):
        payload = run_json(capsys, ["check", CORPUS, "--max-n", "6"])
        assert payload["allPass"] is True and len(payload["verdicts"]) == 7

    def test_violation_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.uid"
        bad.write_text("forall n in 0..4 : w*E(n, x + 1) + E(n, x) = 2*x^n + 1\n")
        out = run(capsys, ["check", str(bad), "--max-n", "4"], expect=EXIT_VIOLATION)
        assert "at 0: difference -1" in out

    def test_parse_error_exit_code(self, capsys, tmp_path):
        mal = tmp_path / "mal.uid"
        mal.write_text("forall n in 0..4 : w*E(n, x + 1) +\n")
        out = run(capsys, ["check", str(mal), "--max-n", "4"], expect=EXIT_USAGE)
        assert "syntax error at 1:35" in out

    def test_eval_error_exit_code(self, capsys, tmp_path):
        err = tmp_path / "err.uid"
        err.write_text("forall n in 0..3 : E(n - 5) = x\n")
        out = run(capsys, ["check", str(err), "--max-n", "3"], expect=EXIT_RUNTIME)
        assert "negative index" in out

    def test_divisor_error_exit_code(self, capsys, tmp_path):
        err = tmp_path / "div.uid"
        err.write_text("forall n in 0..3 : x/x = 1\nforall n in 0..3 : w/(w - w) = 0\n")
        out = run(capsys, ["check", str(err), "--max-n", "3"], expect=EXIT_RUNTIME)
        assert [line.split("  ")[1] for line in out.splitlines()] == [
            "divisor `x` is x at n=0, not a nonzero element of Q(w)",
            "divisor `w - w` is 0 at n=0, not a nonzero element of Q(w)"]

    def test_over_deep_lines_are_errors(self, capsys, tmp_path):
        deep = tmp_path / "deep.uid"
        deep.write_text("forall n in 0..2 : E(n) = E(n)\n"
                        "forall n in 0..2 : " + "(" * 400 + "E(n)" + ")" * 400 + " = E(n)\n"
                        "forall n in 0..2 : " + " + ".join(["E(n)"] * 3000) + " = 3000*E(n)\n"
                        "forall n in 0..2 : " + " + ".join(["E(n)"] * 3000) + " = 2999*E(n)\n")
        out = run(capsys, ["check", str(deep), "--max-n", "2"], expect=EXIT_USAGE)
        assert [line.split()[0] for line in out.splitlines()] == ["PASS", "ERROR", "PASS", "FAIL"]
        assert out.splitlines()[3].endswith("at 0: difference 2/(1 + w)")

    def test_verdicts_print_their_lines_without_comments(self, capsys, tmp_path):
        commented = tmp_path / "commented.uid"
        commented.write_text("forall n in 0..2 : x = x  # trivial\n"
                             "forall n in 0..2 : x = x + 1  # off by one\n"
                             "forall n in 0..2 : x +  # unfinished\n")
        argv = ["check", str(commented), "--max-n", "2"]
        assert run(capsys, argv, expect=EXIT_USAGE).splitlines() == [
            "PASS  forall n in 0..2 : x = x",
            "FAIL  forall n in 0..2 : x = x + 1  at 0: difference -1",
            "ERROR forall n in 0..2 : x +  syntax error at 3:25, expected an expression"
            " but found end of input"]
        verdicts = run_json(capsys, argv, expect=EXIT_USAGE)["verdicts"]
        assert [v["source"] for v in verdicts] == [
            "forall n in 0..2 : x = x", "forall n in 0..2 : x = x + 1", "forall n in 0..2 : x +"]

    def test_missing_file(self, capsys):
        run(capsys, ["check", "/nonexistent/x.uid", "--max-n", "3"], expect=EXIT_USAGE)

    def test_a_file_that_is_not_utf8_is_a_usage_error(self, capsys, tmp_path):
        latin1 = tmp_path / "latin1.uid"
        latin1.write_bytes(b"forall n in 0..2 : x = x # \xff\n")
        assert main(["check", str(latin1), "--max-n", "2"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"weuler: error: cannot read {latin1}: 'utf-8' codec can't decode byte 0xff")

    def test_bad_literals_are_parse_errors(self, capsys, uid_dir):
        # the other lines are still checked, and the parse errors set the exit
        argv = ["check", str(uid_dir / "digits.uid"), "--max-n", "2"]
        lines = run(capsys, argv, expect=EXIT_USAGE).splitlines()
        assert [line.split()[0] for line in lines] == ["PASS", "ERROR", "ERROR", "FAIL"]
        assert lines[1].endswith("syntax error at 2:20, unexpected character '²'")
        assert lines[2].endswith("syntax error at 3:24, integer literal of 5000 digits is too long")
        verdicts = run_json(capsys, argv, expect=EXIT_USAGE)["verdicts"]
        assert [v.get("location") for v in verdicts] == [
            None, {"line": 2, "column": 20}, {"line": 3, "column": 24}, None]

    def test_range_the_cap_leaves_empty_is_a_runtime_error(self, capsys, uid_dir):
        # E(n) = 0 is false; with every index of 5..8 past the cap nothing
        # was checked, so the line is an error, not a PASS
        argv = ["check", str(uid_dir / "empty.uid"), "--max-n", "3"]
        payload = run_json(capsys, argv, expect=EXIT_RUNTIME)
        assert payload["allPass"] is False
        assert payload["verdicts"] == [{
            "source": "forall n in 5..8 : E(n) = 0",
            "status": "error",
            "message": "range 5..8 capped at max_n=3 checks no index",
        }]

    def test_one_table_build_per_order(self, capsys, dsl_chains):
        # the corpus uses orders 1, 2 and 3 up to index 8 and asks for index
        # n + 1 at its top n; one chain holds them all, built through the
        # largest index the corpus asks for, however far --max-n reaches past that
        for max_n, count in (("5", 7), ("10", 9), ("20", 9)):
            dsl_chains.clear()
            run(capsys, ["check", CORPUS, "--max-n", max_n])
            assert [(c.count, sorted(c.orders)) for c in dsl_chains] == [(count, [1, 2, 3])], max_n

    def test_orders_extend_one_chain(self, capsys, series_ops):
        # order 1 inverts the generating function once; orders 2 and 3 each
        # take one product with it
        run(capsys, ["check", CORPUS, "--max-n", "10"])
        assert series_ops == {"inverse": 1, "mul": 2}


class TestPadic:
    ARGS = ["padic", "--p", "3", "--w", "4", "--poly", "1", "--levels", "4", "--prec", "12"]

    def test_pinned_valuations(self, capsys):
        payload = run_json(capsys, self.ARGS)
        got = [row["valuation"] for row in payload["convergence"]["levels"]]
        assert got == [2, 3, 4, 5]
        assert payload["shift"]["symbolic"] == "pass"

    def test_text_report(self, capsys):
        out = run(capsys, self.ARGS)
        assert "v_p(S_m - exact)" in out and "shift identity:" in out

    def test_latex_rows(self, capsys):
        out = run(capsys, self.ARGS + ["--format", "latex"])
        assert out.splitlines() == [r"1 & 2 \\", r"2 & 3 \\", r"3 & 4 \\", r"4 & 5 \\"]

    def test_latex_marks_an_exact_zero_as_a_bound(self, capsys):
        # at w = 1 every partial sum of f = 1 equals the limit; the row shows
        # the guard valuation as a lower bound, as the text report does
        args = ["padic", "--p", "3", "--w", "1", "--poly", "1", "--levels", "3", "--prec", "12"]
        assert "    1             >= 48  1" in run(capsys, args)
        out = run(capsys, args + ["--format", "latex"])
        assert out.splitlines() == [rf"{m} & $\geq 48$ \\" for m in (1, 2, 3)]

    def test_polynomial_argument(self, capsys):
        payload = run_json(capsys, self.ARGS[:5] + ["--poly", "0,1/2,3"] + self.ARGS[7:])
        assert payload["poly"] == ["0", "1/2", "3"]

    # At p = 7, w = 8, f = 1 the level-5 partial sum S_5 = (1 + 8^(7^5))/9 has
    # 15178 digits, past Python's default int_max_str_digits of 4300.
    BIG = ["padic", "--p", "7", "--w", "8", "--poly", "1", "--levels", "5", "--prec", "12"]

    @staticmethod
    def digits_text(n: int, keep: int = 12) -> str:
        """Truncated text of a large positive integer, by integer arithmetic only."""
        d = int(n.bit_length() * 0.30103)
        while 10 ** d <= n:
            d += 1
        while 10 ** (d - 1) > n:
            d -= 1
        return f"{n // 10 ** (d - keep)}...{n % 10 ** keep:0{keep}d} ({d} chars)"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_partial_sums_past_int_str_limit(self, capsys, fmt):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)   # Python >= 3.11
        before = limit()
        s5 = (1 + 8 ** 7 ** 5) // 9
        combo = 9 * s5          # w S_5(f(.+1)) + S_5(f) with f(.+1) = f = 1
        out = run(capsys, self.BIG + ["--format", fmt])
        assert limit() == before
        if fmt == "json":
            payload = json.loads(out)
            jsonschema.validate(payload, SCHEMA)
            conv, shift = payload["convergence"]["levels"], payload["shift"]["levels"]
            assert [row["valuation"] for row in conv] == [2, 3, 4, 5, 6]
            assert [row["valuation"] for row in shift] == [2, 3, 4, 5, 6]
            assert conv[4]["partial_sum"] == self.digits_text(s5)
            assert shift[4]["partial_sum"] == self.digits_text(combo)
        else:
            lines = out.splitlines()
            assert f"    5                 6  {self.digits_text(s5)}" in lines
            assert f"    5          6  {self.digits_text(combo)}" in lines

    def test_partial_sums_of_f_are_made_once(self, capsys, monkeypatch):
        # the shift check reuses the convergence report's sums of f and
        # sums f(. + 1) alone
        real, calls = padic.partial_sums, []

        def counting(f, w, p, levels):
            calls.append(levels)
            return real(f, w, p, levels)

        monkeypatch.setattr(padic, "partial_sums", counting)
        payload = run_json(capsys, self.ARGS)
        assert calls == [4, 4]
        assert [row["valuation"] for row in payload["shift"]["levels"]] == [2, 3, 4, 5]

    def test_even_p_rejected(self, capsys):
        run(capsys, ["padic", "--p", "4", "--w", "1", "--poly", "1", "--levels", "2", "--prec", "8"],
            expect=EXIT_USAGE)

    def test_inadmissible_weight_rejected(self, capsys):
        run(capsys, ["padic", "--p", "3", "--w", "3", "--poly", "1", "--levels", "2", "--prec", "8"],
            expect=EXIT_USAGE)


def big_text(value) -> str:
    """Exact text of an int or Fraction through Decimal, which has no digit limit."""
    value = Fraction(value)
    num = str(decimal.Decimal(value.numerator))
    return num if value.denominator == 1 else f"{num}/{decimal.Decimal(value.denominator)}"


class TestValuesOfAnySize:
    """Exact numbers past int_max_str_digits (4300 digits by default, where
    str() of an int raises) print in full, in every format."""

    W = 10 ** 3000
    E0, E1 = Fraction(2, 1 + W), Fraction(-2 * W, (1 + W) ** 2)

    @staticmethod
    def frac_tex(value: Fraction) -> str:
        sign = "-" if value < 0 else ""
        return rf"{sign}\frac{{{big_text(abs(value.numerator))}}}{{{big_text(value.denominator)}}}"

    def test_numbers(self, capsys):
        argv = ["numbers", "--max-n", "2", "--w", "1e3000"]
        assert run(capsys, argv) == f"0: {big_text(self.E0)}\n1: {big_text(self.E1)}\n"
        payload = run_json(capsys, argv)
        assert payload["w"] == big_text(self.W)
        assert payload["values"] == [big_text(self.E0), big_text(self.E1)]

    def test_polys_latex(self, capsys):
        out = run(capsys, ["polys", "--max-n", "2", "--w", "1e3000", "--format", "latex"])
        e0, e1 = self.frac_tex(self.E0), self.frac_tex(self.E1)
        assert out.splitlines() == [rf"0 & ${e0}$ \\", rf"1 & ${e0} x + {e1}$ \\"]

    def test_a_check_fails_with_its_whole_difference(self, capsys, tmp_path):
        corpus = tmp_path / "big.uid"
        corpus.write_text("forall n in 0..1 : x = x\nforall n in 0..0 : 10^4400 = 0\n")
        argv = ["check", str(corpus), "--max-n", "1"]
        assert run(capsys, argv, expect=EXIT_VIOLATION).splitlines() == [
            "PASS  forall n in 0..1 : x = x",
            f"FAIL  forall n in 0..0 : 10^4400 = 0  at 0: difference {big_text(10 ** 4400)}"]
        verdicts = run_json(capsys, argv, expect=EXIT_VIOLATION)["verdicts"]
        assert verdicts[1]["difference"] == big_text(10 ** 4400)

    def test_padic_echoes_its_arguments(self, capsys):
        w = big_text(10 ** 5000)
        argv = ["padic", "--p", "3", "--w", "1e5000", "--poly", "1e5000",
                "--levels", "1", "--prec", "2"]
        payload = run_json(capsys, argv)
        assert payload["w"] == payload["convergence"]["w"] == payload["shift"]["w"] == w
        assert payload["poly"] == [w] and payload["shift"]["expected"] == big_text(2 * 10 ** 5000)
        assert run(capsys, argv).splitlines()[0].startswith(f"p = 3, w = {w}, exact value = ")
        # 2*10^5000 = 2 mod 3 is not admissible; the usage error names it in full
        assert main(argv[:3] + ["--w", "2e5000"] + argv[5:]) == EXIT_USAGE
        assert f"weight w = {big_text(2 * 10 ** 5000)} requires" in capsys.readouterr().err


class TestPlumbing:
    def test_unknown_flag(self, capsys):
        assert main(["numbers", "--max-n", "3", "--bogus"]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_invalid_format(self, capsys):
        assert main(["numbers", "--max-n", "3", "--format", "yaml"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("argv, what", [
        (["numbers", "--max-n", "2", "--w", "9" * 5000], "--w"),
        (["padic", "--p", "3", "--w", "4", "--poly", "1," + "9" * 5000, "--levels", "2",
          "--prec", "8"], "--poly entry"),
    ], ids=["w", "poly"])
    def test_rational_past_the_digit_limit_names_the_limit(self, capsys, argv, what):
        # int() refuses the value; the message says so and does not echo its digits
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        limit = sys.get_int_max_str_digits()
        assert captured.err == (f"weuler: error: {what} has 5000 digits, past Python's "
                                f"int_max_str_digits limit of {limit}\n")

    def test_format_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("WEULER_FORMAT", "json")
        out = run(capsys, ["numbers", "--max-n", "3"])
        jsonschema.validate(json.loads(out), SCHEMA)

    def test_explicit_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WEULER_FORMAT", "json")
        assert run(capsys, ["numbers", "--max-n", "3", "--format", "text"]) == PINNED_ROWS

    def test_bad_env_format(self, capsys, monkeypatch):
        monkeypatch.setenv("WEULER_FORMAT", "yaml")
        run(capsys, ["numbers", "--max-n", "3"], expect=EXIT_USAGE)

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "rows.json"
        out = run(capsys, ["numbers", "--max-n", "4", "--format", "json", "--out", str(target)])
        assert out == ""
        direct = run(capsys, ["numbers", "--max-n", "4", "--format", "json"])
        assert target.read_text() == direct

    @pytest.mark.parametrize("target, reason", [("missing/x.txt", "No such file or directory"),
                                                ("subdir", "Is a directory")])
    def test_unwritable_out_rejected_before_any_work(self, capsys, monkeypatch, tmp_path,
                                                     target, reason):
        (tmp_path / "subdir").mkdir()
        monkeypatch.chdir(tmp_path)

        def build(*args, **kwargs):
            raise AssertionError("the table was built")

        monkeypatch.setattr(EulerTable, "build", build)
        assert main(["numbers", "--max-n", "5", "--out", target]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"weuler: error: cannot write {target}: {reason}\n"

    def test_out_without_write_permission_rejected(self, capsys, monkeypatch, tmp_path):
        target = str(tmp_path / "rows.txt")
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        assert main(["numbers", "--max-n", "3", "--out", target]) == EXIT_USAGE
        assert capsys.readouterr().err == f"weuler: error: cannot write {target}: Permission denied\n"

    def test_determinism_across_processes(self):
        argv = [sys.executable, "-m", "weuler.cli",
                "verify", "--suite", "paper", "--max-n", "4", "--max-k", "1",
                "--format", "json"]
        # the children import the weuler under test, with or without PYTHONPATH
        env = dict(os.environ, PYTHONPATH=str(Path(weuler.__file__).resolve().parents[1]))
        a = subprocess.run(argv, capture_output=True, text=True, env=env)
        b = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_console_script_entry_point(self, tmp_path):
        # Write the script declared in pyproject.toml with the writer pip uses
        # on install, then run it against the weuler package under test.
        tomllib = pytest.importorskip("tomllib")
        scripts = pytest.importorskip("pip._vendor.distlib.scripts")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["weuler"]
        maker = scripts.ScriptMaker(None, str(tmp_path))
        maker.executable = sys.executable
        maker.variants = {""}
        [script] = maker.make(f"weuler = {target}")
        env = dict(os.environ, PYTHONPATH=str(Path(weuler.__file__).resolve().parents[1]))
        r = subprocess.run([script, "numbers", "--max-n", "3"], capture_output=True, text=True, env=env)
        assert r.returncode == 0 and r.stdout == PINNED_ROWS, r.stderr


class TestOneOutputPath:
    # stdout SHA-256 of small commands in text, json and latex, with their
    # exit code; run from a directory holding UID_FILES
    EMPTY = hashlib.sha256(b"").hexdigest()
    GOLDEN = {
        "numbers --max-n 4": (0,
            "132c540aa8398799725be030ff984ac618c8a4804eb358992ba5fba440d1fe82",
            "7fc49fb2df8cdece1aea6b5425331a6e12abec4fe41c077825792650bcec223e",
            "269551ec32fc1e6295c6366ecdcb5817827c7f5234d757b7b6eead79c8e9dc36"),
        "numbers --max-n 4 --w 4": (0,
            "a3edb5b34afe8d81321d9f0be805faf041de011b32bc5c5084b33d66eeada132",
            "c286404aa0769ace0ee409b6e06619bbfa97eac9f82ea9e7b9031ab6a2c4d0ef",
            "91e77ebb2fd7ccfaea9a033865a89f174b5f8292f1baf15e34d4cf1c55fe8239"),
        "numbers --max-n 4 --w=-3/2 --order 2": (0,
            "3671e282dfb53c05e8efa6d27b500daab7a40a155968d57f25cea37e5a2700d3",
            "000b275a7fab92ad85d075f7d04c3824d9d08fe389ef79006d586b4cb7a0b2aa",
            "7fa0ef00c14c6ebfb303aa13242f56dc75c4919ed471bf4b5fab856e7ad6b249"),
        "polys --max-n 3": (0,
            "fc7948e81062aa8e1b0a8bc9fa91e2a3a4ca9c534b771cfb111252fea4c64a09",
            "44c6df2fc1e0fa5a7906f8981b3319a5c6a31a394ae46d91a47095f36d9ffa5f",
            "9136f87d4b4414a891b59de183dce5747834af448e3d08f4ac8c3295771d5270"),
        "polys --max-n 3 --w 4": (0,
            "b61f1f868c07e08d84298af61c60b0c2ccdf5b649a413066952fa197bfe8551d",
            "ba946a3cec0a64aa6a2e1bf380ddd4e924a06a3c072be3d92d98a8f4980c464b",
            "609867c93d1338ea34265d4430b04ff523c7b73cd6e6972aa2916fc38ea7a643"),
        "polys --max-n 3 --w=-3/2 --order 2": (0,
            "03758d0b59c60ab0f6f941b08856802a81f245f8ef369c539bfb339749b61d7a",
            "076432f59ba5aea25c8a4ed53155d6882142c689b512f7f7196371b6c8b582db",
            "6f726b96a1312a6f0420903c9580f2ae83a5901df4ea8c33c879f359ee77af65"),
        "verify --suite paper --max-n 6 --max-k 2": (0,
            "f5c5cf1ca27abd4cef348d88332ef20941c8648b3ecf2e95a033f0aff6d664e8",
            "2effebc42cf97cd9c464f0b89e81c91b24c53e5cde342bc4236465766992976d",
            "4afdfc6cb410151b49cd90e6f535c31725d19d605000f6f2204609adac529ea7"),
        "check paper.uid --max-n 4": (0,
            "7360f97c9449f7663a2f2e74efe4ce4dd744c4d311133b3b1381959e263f0327",
            "7ac2d28bd75b25997e7dcf79a6b93e7c5027d59a3b0cd54b5dce8457f459cf2d",
            "eca62e107620f679776c718239f767a41b54f8877c207e757c8d7b6ab60b7fe0"),
        # pass, fail, parse error and evaluation error lines: the parse error sets the exit
        "check mixed.uid --max-n 4": (2,
            "37d01051a77a9b48ed595f9361195e9dfeb93b728e471835fc7f098b97b9b1b2",
            "13ea4edb09408b367532556e7cc42deec19dc49594ca57fb43832af992fc290e",
            "b81f6dd4896aeb9af93e073da00da75d195be8b3665fd66f1138125c01d8c943"),
        "check faulty.uid --max-n 4": (3,
            "26c877cc5a08897a22aebd43abedb5ecd432a1e5d7f668bfb525fabcbb84f306",
            "e80be17b58c19c05bbdc14cbb4eba063ac579f15c3f94e93b22342c9650ba31d",
            "09559c81aa0b00ef4d139860b1ba93a7a71c7e401c4508f7398ba3f54deec4b2"),
        "check empty.uid --max-n 3": (3,
            "f84cf76595b950664c39754fb6d57748683aa175803ce4621a4f020d075ebee6",
            "da8c1e7f131c50c8e08c638a793d3dec0a60d537567c35167a82cb66906f0f40",
            "9f7be8ff1da47ce5a8874b9eaf479e348d4cc1d9bfe58bbd8bc009ed069c82df"),
        "padic --p 3 --w 4 --poly 1 --levels 4 --prec 12": (0,
            "42a5c2d57535348f08895e2ae85fdee5a537983a49a4fe3d44a3ce111f0c2ef1",
            "4b41197593e4d06b7113538f77f839bc908f13f279ae70c344618134ea5e7bd2",
            "d7802420d78626f84cd4d379082306254492c915a98d539176f210ac38279164"),
        # every partial sum equals the limit: exact zeros
        "padic --p 3 --w 1 --poly 1 --levels 3 --prec 12": (0,
            "224bfe462cffee4c51b0a7566d012790ac5e6064c5911a1c4b52a4f3f0a691fe",
            "641bf43bb1e589e7ffe73f89062184cd7a54e23c6a8dbe33a6274b46dd0f6cb2",
            "b201ce019c3a07729a87f2a03923b8397ac2b10ab15a3d58c8f8fbb3c4a738ef"),
        "numbers --max-n 0": (2, EMPTY, EMPTY, EMPTY),
        "polys --max-n 3 --w=-1": (2, EMPTY, EMPTY, EMPTY),
        "padic --p 4 --w 1 --poly 1 --levels 2 --prec 8": (2, EMPTY, EMPTY, EMPTY),
        "padic --p 3 --w 4 --poly 1,x --levels 2 --prec 8": (2, EMPTY, EMPTY, EMPTY),
        "check missing.uid --max-n 3": (2, EMPTY, EMPTY, EMPTY),
        "numbers --max-n 5 --out missing/x.txt": (2, EMPTY, EMPTY, EMPTY),
    }

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("command", list(GOLDEN))
    def test_golden_output(self, capsys, monkeypatch, uid_dir, command, fmt):
        monkeypatch.chdir(uid_dir)
        code = main(command.split() + ["--format", fmt])
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        expect_code, *digests = self.GOLDEN[command]
        assert (code, digest) == (expect_code, digests[FORMATS.index(fmt)])

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_only_the_format_asked_for_is_rendered(self, capsys, monkeypatch, fmt):
        def refuse(self):
            raise AssertionError("rendered a format nobody asked for")

        for other, renderer in zip(FORMATS, ("__str__", "to_json", "latex")):
            if other != fmt:
                monkeypatch.setattr(Polynomial, renderer, refuse)
        run(capsys, ["polys", "--max-n", "4", "--order", "2", "--format", fmt])


# small sizes; valid values outnumber the invalid ones (p = 4, w = -1, a
# weight that is not admissible, --max-n -1, a bad --poly, an unwritable --out)
SIZE = st.sampled_from(["2", "3", "4", "5", "1", "0", "-1"])
WEIGHT = st.sampled_from(["4", "-3/2", "0", "1", "6", "-2", "7/4", "2", "-1", "1/0", "x"])
PADIC_WEIGHT = st.sampled_from(["4", "1", "-2", "7/4", "6", "2", "x"])
ARGV = st.one_of(
    st.tuples(st.sampled_from(["numbers", "polys"]), st.just("--max-n"), SIZE,
              st.just("--order"), st.sampled_from(["1", "2", "3", "0"]),
              st.one_of(st.none(), WEIGHT.map("--w={}".format))),
    st.tuples(st.just("verify"), st.just("--suite"), st.sampled_from(["paper", "paper", "other"]),
              st.just("--max-n"), SIZE, st.just("--max-k"), st.sampled_from(["1", "2", "0"])),
    st.tuples(st.just("check"), st.sampled_from(sorted(UID_FILES) + ["missing.uid"]),
              st.just("--max-n"), SIZE),
    st.tuples(st.just("padic"), st.just("--p"), st.sampled_from(["3", "3", "5", "4", "-3"]),
              PADIC_WEIGHT.map("--w={}".format),
              st.just("--poly"), st.sampled_from(["1", "0,1/2,3", "-2,0,1", "1,x", ""]),
              st.just("--levels"), st.sampled_from(["1", "2", "3", "0"]),
              st.just("--prec"), st.sampled_from(["8", "1", "0"])),
)
OUT = st.sampled_from([None, None, None, None, "missing/x.txt", "."])


@given(ARGV, st.sampled_from(FORMATS), OUT)
@settings(max_examples=100, deadline=None)
def test_any_argv_exits_with_a_documented_code_and_valid_json(uid_dir, argv, fmt, out):
    argv = [str(uid_dir / a) if a in UID_FILES or a == "missing.uid" else a
            for a in argv if a is not None]
    argv += ["--format", fmt] + ([] if out is None else ["--out", str(uid_dir / out)])
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_RUNTIME), (argv, stderr.getvalue())
    if out is not None:
        assert code == EXIT_USAGE and stdout.getvalue() == ""
    if fmt == "json" and stdout.getvalue():
        jsonschema.validate(json.loads(stdout.getvalue()), SCHEMA)
