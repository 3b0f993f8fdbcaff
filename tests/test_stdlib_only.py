"""The package imports nothing outside the standard library, importing the
CLI loads neither dataclasses nor inspect, and each command loads only the
layers it runs."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import weuler

SOURCES = sorted(Path(weuler.__file__).parent.glob("*.py"))
SRC = Path(weuler.__file__).resolve().parent.parent
CORPUS = SRC / "weuler" / "corpus"


def _foreign_imports(path: Path) -> list[str]:
    foreign = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        foreign += [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    return foreign


def test_every_import_is_relative_or_stdlib():
    found = {p.name: _foreign_imports(p) for p in SOURCES}
    assert {"__init__.py", "ratfunc.py", "dsl.py", "cli.py"} <= found.keys()
    assert {name: mods for name, mods in found.items() if mods} == {}


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S: no site module, so no .pth file of an installed package preloads them
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import weuler.cli; "
             "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    done = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]


# Runs cli.main(argv) in a fresh `python -S` interpreter with its output
# thrown away (with no argv, only imports weuler.cli), then prints the exit
# code and the weuler, typing and json modules loaded by then.
LOAD_PROBE = """
import os, sys
sys.path.insert(0, sys.argv[1])
import weuler.cli
code = None
if len(sys.argv) > 2:
    sys.stdout = sys.stderr = open(os.devnull, "w")
    code = weuler.cli.main(sys.argv[2:])
    sys.stdout = sys.__stdout__
print(code, *sorted(m for m in sys.modules if m.partition(".")[0] in ("weuler", "typing", "json")))
"""


def _loaded(argv: list[str]) -> tuple[str, set[str]]:
    done = subprocess.run([sys.executable, "-S", "-c", LOAD_PROBE, str(SRC), *argv],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, *modules = done.stdout.split()
    return code, set(modules)


@pytest.mark.parametrize("argv, code", [
    ([], "None"),
    (["--help"], "0"),
    (["numbers", "--max-n", "0"], "2"),
    (["check", str(CORPUS / "missing.uid"), "--max-n", "3"], "2"),
], ids=["import", "help", "rejected-argument", "unreadable-file"])
def test_a_command_that_computes_nothing_loads_no_layer(argv, code):
    assert _loaded(argv) == (code, {"weuler", "weuler.cli"})


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, unused", [
    (["numbers", "--max-n", "4"], {"weuler.dsl", "weuler.padic"}),
    (["polys", "--max-n", "3", "--order", "2"], {"weuler.dsl", "weuler.padic"}),
    (["verify", "--suite", "paper", "--max-n", "3", "--max-k", "1"], {"weuler.dsl", "weuler.padic"}),
    (["check", str(CORPUS / "paper.uid"), "--max-n", "2"], {"weuler.padic"}),
    (["padic", "--p", "3", "--w", "4", "--poly", "0,1", "--levels", "2", "--prec", "4"],
     {"weuler.dsl"}),
], ids=["numbers", "polys", "verify", "check", "padic"])
def test_each_command_loads_only_the_layers_it_runs(argv, unused, fmt):
    code, modules = _loaded(argv + ["--format", fmt])
    assert code == "0"
    assert "weuler.ratfunc" in modules
    assert modules & unused == set()
    assert "typing" not in modules
    assert ("json" in modules) == (fmt == "json")
