"""The benchmark's tracer still finds every function it wraps.

bench/tracing.py wraps weuler's layer functions from outside, by looking
each one up by name (methods in their class's ``__dict__``).  A rename or a
moved method breaks ``--trace 1`` runs of the benchmark; these tests make
that a fast failure here instead.  The tracer file is only imported.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from weuler import cli
from weuler.ratfunc import WPolynomial

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
ARGV = ["polys", "--max-n", "5", "--order", "2"]


@pytest.fixture
def tracing():
    # tracing.py puts bench/ on sys.path to import its workloads module
    saved_path, had_workloads = list(sys.path), "workloads" in sys.modules
    spec = importlib.util.spec_from_file_location("weuler_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        if not had_workloads:
            sys.modules.pop("workloads", None)
    return module


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
