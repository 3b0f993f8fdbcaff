"""The benchmark's tracer still finds every function it wraps.

bench/tracing.py wraps weuler's layer functions from outside, by looking
each one up by name (methods in their class's ``__dict__``).  A rename or a
moved method breaks ``--trace 1`` runs of the benchmark; these tests make
that a fast failure here instead.  The table commands, symbolic and at a
fixed weight, and the suite workload's two commands must also still print
the output whose SHA-256 bench/workloads.py pins, and so must the numeric
workload's two padic commands.  The bench files are only imported.
"""

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from weuler import cli
from weuler.ratfunc import WPolynomial

BENCH = Path(__file__).resolve().parent.parent / "bench"
ARGV = ["polys", "--max-n", "5", "--order", "2"]


def load(name):
    # tracing.py puts bench/ on sys.path to import its workloads module, and
    # a dataclass looks its own module up in sys.modules while it is defined
    saved_path, had_workloads = list(sys.path), "workloads" in sys.modules
    spec = importlib.util.spec_from_file_location(f"weuler_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        sys.modules.pop(spec.name)
        if not had_workloads:
            sys.modules.pop("workloads", None)
    return module


@pytest.fixture
def tracing():
    return load("tracing")


def test_install_finds_every_traced_function(tracing):
    # install() looks each traced name up and raises if one is gone
    restore = tracing.Tracer().install()
    restore()


def run(capsys):
    code = cli.main(list(ARGV))
    return code, capsys.readouterr().out


def test_traced_run_matches_untraced(tracing, capsys):
    plain = run(capsys)
    original_mul = WPolynomial.__dict__["__mul__"]
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        traced = run(capsys)
    finally:
        restore()
    assert plain[0] == cli.EXIT_OK
    assert traced == plain
    names = {span[1] for span in tracer.spans}
    assert {"ratfunc.poly_mul", "cli.render"} <= names
    assert WPolynomial.__dict__["__mul__"] is original_mul
    assert run(capsys) == plain


def assert_pinned_digest(command, pinned=None):
    pinned = pinned or load("workloads").DIGESTS[command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(command.split())
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == pinned


@pytest.mark.parametrize("command", ["numbers --max-n 400 --w 4",
                                     "polys --max-n 160 --w=-3/2 --order 3"])
def test_fixed_weight_tables_match_pinned_digest(command):
    assert_pinned_digest(command)


@pytest.mark.parametrize("command", ["numbers --max-n 32",
                                     "polys --max-n 24 --order 2"])
def test_symbolic_tables_match_pinned_digest(command):
    assert_pinned_digest(command)


@pytest.mark.parametrize("command", ["verify --suite paper --max-n 12 --max-k 4",
                                     "check src/weuler/corpus/paper.uid --max-n 10"])
def test_suite_commands_match_pinned_digest(command, monkeypatch):
    monkeypatch.chdir(BENCH.parent)     # the corpus path is relative to the checkout
    assert_pinned_digest(command)


# bench/workloads.py pins no digest for the p = 7 command, the one whose
# 15178-digit partial sum once stopped its text output; it is pinned here
P7_DIGEST = "795de85ccfe07835fd58f3a8d36f2dd0bb0e64c1cafdfe65e3015cff51dee1b5"


@pytest.mark.parametrize("command, pinned", [
    ("padic --p 3 --w 4 --poly 0,0,0,0,0,1 --levels 8 --prec 20", None),
    ("padic --p 7 --w 8 --poly 1 --levels 5 --prec 12", P7_DIGEST),
])
def test_padic_commands_match_pinned_digest(command, pinned):
    assert_pinned_digest(command, pinned)
