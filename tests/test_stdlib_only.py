"""The package imports nothing outside the standard library, and importing
the CLI loads neither dataclasses nor inspect."""

import ast
import subprocess
import sys
from pathlib import Path

import weuler

SOURCES = sorted(Path(weuler.__file__).parent.glob("*.py"))


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
    src = Path(weuler.__file__).resolve().parent.parent
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import weuler.cli; "
             "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    done = subprocess.run([sys.executable, "-S", "-c", probe, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]
