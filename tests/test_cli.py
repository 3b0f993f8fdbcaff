"""End-to-end tests for the weuler command line interface."""

import importlib.resources
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import weuler
from weuler.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VIOLATION, main
from weuler.euler import EulerTable

SCHEMA = json.loads(
    importlib.resources.files("weuler").joinpath("schemas/cli.schema.json").read_text()
)
CORPUS = str(importlib.resources.files("weuler").joinpath("corpus/paper.uid"))

PINNED_ROWS = "0: 2/(1 + w)\n1: -2*w/(1 + w)^2\n2: 2*w*(w - 1)/(1 + w)^3\n"


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

    def test_over_deep_lines_are_errors(self, capsys, tmp_path):
        deep = tmp_path / "deep.uid"
        deep.write_text("forall n in 0..2 : E(n) = E(n)\n"
                        "forall n in 0..2 : " + "(" * 400 + "E(n)" + ")" * 400 + " = E(n)\n"
                        "forall n in 0..2 : " + " + ".join(["E(n)"] * 3000) + " = 3000*E(n)\n")
        out = run(capsys, ["check", str(deep), "--max-n", "2"], expect=EXIT_USAGE)
        assert [line.split()[0] for line in out.splitlines()] == ["PASS", "ERROR", "ERROR"]

    def test_missing_file(self, capsys):
        run(capsys, ["check", "/nonexistent/x.uid", "--max-n", "3"], expect=EXIT_USAGE)

    def test_one_table_build_per_order(self, capsys, monkeypatch):
        # the corpus uses orders 1, 2 and 3 up to index 8 and asks for index
        # n + 1 at its top n; each order is built once, through the largest
        # index the corpus asks for, however far --max-n reaches past that
        builds = []
        real_build = EulerTable.build

        def counting_build(count, order, **kwargs):
            builds.append((count, order))
            return real_build(count, order, **kwargs)

        monkeypatch.setattr(EulerTable, "build", counting_build)
        for max_n, count in (("5", 7), ("10", 9), ("20", 9)):
            builds.clear()
            run(capsys, ["check", CORPUS, "--max-n", max_n])
            assert builds == [(count, 1), (count, 2), (count, 3)], max_n

    def test_orders_extend_one_chain(self, capsys, series_ops):
        # order 1 inverts the generating function once; orders 2 and 3 each
        # extend the order below by one product
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

    def test_even_p_rejected(self, capsys):
        run(capsys, ["padic", "--p", "4", "--w", "1", "--poly", "1", "--levels", "2", "--prec", "8"],
            expect=EXIT_USAGE)

    def test_inadmissible_weight_rejected(self, capsys):
        run(capsys, ["padic", "--p", "3", "--w", "3", "--poly", "1", "--levels", "2", "--prec", "8"],
            expect=EXIT_USAGE)


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
