"""The public surface the README documents: its library example and weuler.__all__."""

import contextlib
import io
import re
import subprocess
import sys
from pathlib import Path

import weuler

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)


def test_readme_library_example_runs_as_written():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    lines = out.getvalue().splitlines()
    # the values the example's comments promise
    assert "True" in lines and "result: ALL PASS" in lines
    assert lines[-1] == "[2, 3, 4, 5]"


def test_every_exported_name_resolves():
    missing = [name for name in weuler.__all__ if not hasattr(weuler, name)]
    assert missing == []
    namespace: dict = {}
    exec("from weuler import *", namespace)
    assert set(weuler.__all__) <= set(namespace)


def test_dir_lists_every_exported_name():
    assert set(weuler.__all__) <= set(dir(weuler))


def test_a_fresh_import_loads_each_module_when_one_of_its_names_is_read():
    src = Path(weuler.__file__).resolve().parent.parent
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import weuler\n"
             "loaded = lambda: sorted(m for m in sys.modules if m.startswith('weuler'))\n"
             "print(*loaded()); weuler.Series; print(*loaded())")
    done = subprocess.run([sys.executable, "-S", "-c", probe, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["weuler", "weuler weuler.ratfunc weuler.series"]
