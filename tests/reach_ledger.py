"""The reach ledger: which functions of `src/weuler` no CLI run enters.

Runs every subcommand in all three output formats in this process, records
each code object entered under `sys.setprofile`, and prints the `weuler`
functions that were never entered with their line counts, largest first,
then the totals.  A function nested in one that is never entered is counted
with it, not listed on its own.

    PYTHONPATH=src python tests/reach_ledger.py

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from pathlib import Path

import weuler
from weuler import cli

SRC = Path(weuler.__file__).resolve().parent
CORPUS = SRC / "corpus" / "paper.uid"

RUNS = (
    ["numbers", "--max-n", "6"],
    ["numbers", "--max-n", "6", "--w", "4", "--order", "2"],
    ["polys", "--max-n", "5", "--order", "2"],
    ["polys", "--max-n", "5", "--w=-3/2"],
    ["verify", "--suite", "paper", "--max-n", "6", "--max-k", "3"],
    ["check", str(CORPUS), "--max-n", "4"],
    ["padic", "--p", "3", "--w", "4", "--poly", "0,1", "--levels", "3", "--prec", "8"],
)
FORMATS = ("text", "json", "latex")


def functions(path: Path):
    """(first line, last line, qualified name, nested) of every def in `path`.

    The first line is that of the first decorator, as in the code object's
    co_firstlineno; `nested` lists the defs inside this one.
    """
    out = []

    def walk(node, prefix):
        found = []
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                entry = (first, child.end_lineno, name, walk(child, name + "."))
                out.append(entry)
                found.append(entry)
            elif isinstance(child, ast.ClassDef):
                found.extend(walk(child, prefix + child.name + "."))
            else:
                found.extend(walk(child, prefix))
        return found

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def entered_code() -> set[tuple[str, int]]:
    """(file, first line) of every code object entered by the CLI runs."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in RUNS:
                for fmt in FORMATS:
                    code = cli.main(argv + ["--format", fmt])
                    if code != 0:
                        raise SystemExit(f"weuler {' '.join(argv)} --format {fmt} exited {code}")
    finally:
        sys.setprofile(None)
    return seen


def main() -> None:
    seen = entered_code()
    rows, total_lines = [], 0
    for path in sorted(SRC.glob("*.py")):
        filename = str(path)
        total_lines += len(path.read_text(encoding="utf-8").splitlines())
        defs = functions(path)
        inside_unentered = set()
        for first, last, name, nested in defs:
            if (filename, first) in seen or (first, last, name) in inside_unentered:
                continue
            stack = list(nested)
            while stack:
                inner = stack.pop()
                inside_unentered.add(inner[:3])
                stack.extend(inner[3])
            rows.append((last - first + 1, f"{path.stem}.{name}", first))
    rows.sort(key=lambda row: (-row[0], row[1]))
    for lines, name, first in rows:
        print(f"{lines:5d}  {name}  (line {first})")
    unreached = sum(lines for lines, _, _ in rows)
    print(f"{len(rows)} functions never entered, {unreached} of {total_lines} src lines,"
          f" over {len(RUNS) * len(FORMATS)} CLI runs")


if __name__ == "__main__":
    main()
