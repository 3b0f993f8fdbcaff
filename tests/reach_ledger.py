"""The reach ledger: which functions of `src/weuler` no CLI run enters, and why each stays.

Runs every subcommand in all three output formats in this process, records
each code object entered under `sys.setprofile`, and prints the `weuler`
functions that were never entered with their line counts, largest first,
each with its reason from REASONS, then the totals.  A function nested in one
that is never entered is counted with it, not listed on its own.

    PYTHONPATH=src python tests/reach_ledger.py

tests/test_reach_ledger.py, in tier-1, fails when an unreached function has
no reason or a reason names a function that is reached or gone.  The file
name keeps pytest from collecting it.
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
FOUND = SRC / "corpus" / "found.uid"

RUNS = (
    ["numbers", "--max-n", "6"],
    ["numbers", "--max-n", "6", "--w", "4", "--order", "2"],
    ["polys", "--max-n", "5", "--order", "2"],
    ["polys", "--max-n", "5", "--w=-3/2"],
    ["verify", "--suite", "paper", "--max-n", "6", "--max-k", "3"],
    ["check", str(CORPUS), "--max-n", "4"],
    ["check", str(FOUND), "--max-n", "8"],
    ["padic", "--p", "3", "--w", "4", "--poly", "0,1", "--levels", "3", "--prec", "8"],
)
FORMATS = ("text", "json", "latex")

# Why each function no CLI run enters stays in src.  A new function either
# gets a caller on the command line or a line here; a reason whose function
# is reached or deleted goes.
SHEFFER = "Sheffer engine: acceptance criteria 3 and 4 test it; item 5 gives it a CLI job"
PROTOCOL = "operator protocol: completes the arithmetic or equality of its type"
DISPLAY = "display in a session or in a failed assertion"
ROUND_TRIP = "parser round-trip oracle: renders a parsed .uid line back to text"
ERROR = "error path: only a .uid line that fails to parse or to evaluate reaches it"
GCD = "gcd path: WRational divides when a gcd is not 1, which no CLI run meets (item 11)"
FROZEN = "frozen guard: refuses assignment to a .uid syntax node; no caller assigns one"
REASONS = {
    "__init__.__dir__": "library API: dir(weuler) lists every name of __all__, resolved or not",
    "__init__.__getattr__": "library API: resolves `from weuler import X` on first use; "
                            "the CLI imports its layers directly",
    "_record.FrozenRecord.__delattr__": FROZEN,
    "_record.FrozenRecord.__hash__": PROTOCOL,
    "_record.FrozenRecord.__setattr__": FROZEN,
    "_record.Record.__eq__": PROTOCOL,
    "_record.Record.__repr__": DISPLAY,
    "_record.Record._key": PROTOCOL + "; __eq__ and __hash__ read it",
    "cli._check_writable": "outside-input check: rejects an unwritable --out path; the ledger writes to stdout",
    "dsl.Binom.render": ROUND_TRIP,
    "dsl.DslParseError.__init__": ERROR,
    "dsl.ECall.render": ROUND_TRIP,
    "dsl.IndexExpr.render": ROUND_TRIP,
    "dsl.Lit.render": ROUND_TRIP,
    "dsl.SumExpr.render": ROUND_TRIP,
    "dsl.Sym.render": ROUND_TRIP,
    "dsl._Parser._fail": ERROR,
    "dsl._at": ERROR,
    "dsl._divisor_needs_parens": ROUND_TRIP,
    "dsl._is_tight_atom": ROUND_TRIP,
    "dsl._render_xarg": ROUND_TRIP,
    "dsl.check_identity": "library entry point: checks one parsed identity; criterion 8 calls it",
    "dsl.parse_value": "round-trip oracle: the tests parse every value numbers and polys print",
    "dsl.render_expr": ROUND_TRIP,
    "dsl.render_identity": ROUND_TRIP,
    "euler.EulerTable.with_perturbed_number": "fault injection: criterion 2 perturbs each table entry with it",
    "euler.order_k_multinomial": "library entry point: criterion 9 calls it",
    "euler.weighted_euler_gf": "library surface: the one public name for the GF series; criterion 1's series route",
    "padic._LevelReport.valuations": "library surface: criterion 6 and the README example read it",
    "ratfunc.Polynomial.__eq__": PROTOCOL,
    "ratfunc.Polynomial.__hash__": PROTOCOL,
    "ratfunc.Polynomial.__repr__": DISPLAY,
    "ratfunc.Polynomial.__rsub__": PROTOCOL,
    "ratfunc.Polynomial.divexact": GCD + "; bench/tracing.py counts its calls",
    "ratfunc.Polynomial.divmod": GCD,
    "ratfunc.WRational.__hash__": PROTOCOL,
    "ratfunc.WRational.__repr__": DISPLAY,
    "ratfunc.WRational.__rsub__": PROTOCOL,
    "ratfunc.WRational.__rtruediv__": PROTOCOL,
    "ratfunc.WRational.is_polynomial": "canonical-form predicate: the ratfunc property tests read it",
    "series.Series.__eq__": PROTOCOL,
    "series.Series.__hash__": PROTOCOL,
    "series.Series.__neg__": PROTOCOL,
    "series.Series.__pow__": PROTOCOL,
    "series.Series.__repr__": DISPLAY,
    "series.Series.__rmul__": PROTOCOL,
    "series.Series.__str__": DISPLAY,
    "series.Series.__sub__": PROTOCOL,
    "series.Series.add_constant": SHEFFER,
    "series.Series.compose": SHEFFER,
    "series.Series.monomial": SHEFFER,
    "series.Series.one": PROTOCOL,
    "series.Series.order": SHEFFER,
    "series.Series.reverse": SHEFFER,
    "series.Series.truncate": SHEFFER + "; compose and sheffer_basis cut series with it",
    "series.exp_series": SHEFFER,
    "umbral.ShefferPair.__init__": SHEFFER,
    "umbral.appell_basis": SHEFFER + "; bench/tracing.py times it as umbral.appell_basis",
    "umbral.biorthogonality_check": SHEFFER,
    "umbral.expand_in_basis": SHEFFER,
    "umbral.sheffer_basis": SHEFFER,
}


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


def ledger() -> tuple[list[tuple[int, str, int]], int]:
    """(lines, name, first line) of every unreached function, largest first,
    and the total number of src lines."""
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
    return rows, total_lines


def main() -> None:
    rows, total_lines = ledger()
    for lines, name, first in rows:
        print(f"{lines:5d}  {name}  (line {first})  {REASONS.get(name, 'NO REASON')}")
    unreached = sum(lines for lines, _, _ in rows)
    print(f"{len(rows)} functions never entered, {unreached} of {total_lines} src lines,"
          f" over {len(RUNS) * len(FORMATS)} CLI runs")


if __name__ == "__main__":
    main()
