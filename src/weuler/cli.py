"""Command-line interface: tables, verification suite, corpus checks, p-adic runs.

Each subcommand's runner checks its arguments, computes, and returns its exit
code with three lazy renderers: the JSON payload without its "command" key,
the LaTeX rows without their row terminator, and the text.  `main` resolves
the format, renders only the one asked for, and writes it once.

Exit codes: 0 success or all-pass, 1 identity violation, 2 usage or parse
error (also an --out path that cannot be written, rejected before any work),
3 runtime error (an evaluation error, a .uid range that --max-n leaves empty,
or any failure after the arguments were accepted).  Output is deterministic;
the default format comes from WEULER_FORMAT (text unless overridden).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from fractions import Fraction

from .dsl import check_corpus
from .euler import EulerTable, verify_paper_suite
from .padic import convergence_report, is_admissible_weight, is_odd_prime, shift_identity_check
from .ratfunc import Polynomial

FORMATS = ("text", "json", "latex")

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    """An argument was rejected before any computation started (exit 2)."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weuler",
        description="Weighted Euler numbers, polynomials, and identity checks over Q(w).",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=FORMATS, default=None,
                       help="output format (default from WEULER_FORMAT, else text)")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="write output to FILE instead of stdout")

    p_numbers = sub.add_parser("numbers", help="table of weighted Euler numbers")
    p_numbers.add_argument("--max-n", type=int, required=True, metavar="N",
                           help="list E_n for n < N")
    p_numbers.add_argument("--w", default=None, metavar="RAT",
                           help="evaluate at a rational w instead of symbolic")
    p_numbers.add_argument("--order", type=int, default=1, metavar="K")
    add_common(p_numbers)

    p_polys = sub.add_parser("polys", help="table of weighted Euler polynomials")
    p_polys.add_argument("--max-n", type=int, required=True, metavar="N")
    p_polys.add_argument("--w", default=None, metavar="RAT")
    p_polys.add_argument("--order", type=int, default=1, metavar="K")
    add_common(p_polys)

    p_verify = sub.add_parser("verify", help="run the identity verification suite")
    p_verify.add_argument("--suite", choices=("paper",), required=True)
    p_verify.add_argument("--max-n", type=int, required=True, metavar="N")
    p_verify.add_argument("--max-k", type=int, required=True, metavar="K")
    add_common(p_verify)

    p_check = sub.add_parser("check", help="check a .uid identity corpus")
    p_check.add_argument("file", metavar="FILE.uid")
    p_check.add_argument("--max-n", type=int, required=True, metavar="N",
                         help="cap checked indices at N")
    add_common(p_check)

    p_padic = sub.add_parser("padic", help="p-adic convergence and shift-identity reports")
    p_padic.add_argument("--p", type=int, required=True)
    p_padic.add_argument("--w", required=True, metavar="RAT")
    p_padic.add_argument("--poly", required=True, metavar="COEFFS",
                         help="comma-separated rational coefficients, constant first")
    p_padic.add_argument("--levels", type=int, required=True, metavar="L")
    p_padic.add_argument("--prec", type=int, required=True, metavar="M",
                         help="sets only the lower bound 4*M shown for an exactly-zero "
                              "deviation; it is not a working precision")
    add_common(p_padic)

    return parser


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        digits, limit = sum(ch.isdecimal() for ch in text), sys.get_int_max_str_digits()
        if limit and digits > limit:   # too long for int(); echoing it would flood the terminal
            raise UsageError(f"{what} has {digits} digits, past Python's int_max_str_digits "
                             f"limit of {limit}") from None
        raise UsageError(f"{what} must be a rational like 4 or -1/2, got {text!r}")


def _resolve_format(args) -> str:
    fmt = args.format if args.format else os.environ.get("WEULER_FORMAT", "text")
    if fmt not in FORMATS:
        raise UsageError(f"unknown format {fmt!r} (choose from {', '.join(FORMATS)})")
    return fmt


def _check_writable(path: str) -> None:
    """Reject an --out path that open() would refuse, before any work is done."""
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        errnum = errno.EISDIR
    elif not os.path.isdir(parent):
        errnum = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        errnum = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write {path}: {os.strerror(errnum)}")


def _run_table(args):
    if args.max_n < 1:
        raise UsageError("--max-n must be at least 1")
    if args.order < 1:
        raise UsageError("--order must be at least 1")
    w = None if args.w is None else _parse_rational(args.w, "--w")
    if w == -1:
        raise UsageError("w = -1 is a pole of the generating function")
    table = EulerTable.build(args.max_n, args.order, w=w)
    field = table.field
    if args.subcommand == "numbers":
        values, render, to_json, latex = table.numbers, field.render, field.render, field.latex
    else:
        values, render, to_json, latex = table.polys, str, Polynomial.to_json, Polynomial.latex
    return (
        EXIT_OK,
        lambda: {
            "maxN": args.max_n,
            "order": table.order,
            "w": None if table.w0 is None else str(table.w0),
            "values": [to_json(v) for v in values],
        },
        lambda: (f"{n} & ${latex(v)}$" for n, v in enumerate(values)),
        lambda: "\n".join(f"{n}: {render(v)}" for n, v in enumerate(values)),
    )


def _run_verify(args):
    if args.max_n < 2 or args.max_k < 1:
        raise UsageError("need --max-n >= 2 and --max-k >= 1")
    report = verify_paper_suite(args.max_n, args.max_k)
    return (
        EXIT_OK if report.passed else EXIT_VIOLATION,
        lambda: {
            "suite": "paper",
            "maxN": args.max_n,
            "maxK": args.max_k,
            "allPass": report.passed,
            "checks": report.to_json(),
        },
        lambda: (f"{r.check} & {r.status.upper()}" for r in report.results),
        report.render_text,
    )


def _run_check(args):
    if args.max_n < 0:
        raise UsageError("--max-n must be nonnegative")
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            corpus = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {args.file}: {exc.strerror}")
    verdicts = check_corpus(corpus, max_n=args.max_n)
    statuses = {v.status for v in verdicts}
    code = (EXIT_USAGE if any(v.location is not None for v in verdicts)   # a parse error
            else EXIT_RUNTIME if "error" in statuses
            else EXIT_VIOLATION if "fail" in statuses else EXIT_OK)
    return (
        code,
        lambda: {
            "file": args.file,
            "maxN": args.max_n,
            "allPass": all(v.status == "pass" for v in verdicts),
            "verdicts": [v.to_json() for v in verdicts],
        },
        lambda: (f"{i} & {v.status.upper()}" for i, v in enumerate(verdicts)),
        lambda: "\n".join(v.render_text() for v in verdicts),
    )


def _run_padic(args):
    if not is_odd_prime(args.p):
        raise UsageError(f"--p must be an odd prime, got {args.p}")
    w = _parse_rational(args.w, "--w")
    if not is_admissible_weight(w, args.p):
        raise UsageError(f"weight w = {w} requires |1-w|_p < 1 for p = {args.p}")
    coeffs = [_parse_rational(c, "--poly entry") for c in args.poly.split(",")]
    if args.levels < 1 or args.prec < 1:
        raise UsageError("--levels and --prec must be at least 1")
    convergence = convergence_report(coeffs, w, args.p, args.levels, args.prec)
    shift = shift_identity_check(coeffs, w, args.p, args.levels, args.prec,
                                 sums=[r.partial_sum for r in convergence.rows])
    return (
        EXIT_OK if shift.symbolic_ok else EXIT_VIOLATION,
        lambda: {
            "p": args.p,
            "w": str(w),
            "poly": [str(c) for c in coeffs],
            "levels": args.levels,
            "precision": args.prec,
            "convergence": convergence.to_json(),
            "shift": shift.to_json(),
        },
        convergence.latex_rows,
        lambda: convergence.render_text() + "\n\nshift identity:\n" + shift.render_text(),
    )


_RUNNERS = {
    "numbers": _run_table,
    "polys": _run_table,
    "verify": _run_verify,
    "check": _run_check,
    "padic": _run_padic,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        fmt = _resolve_format(args)
        if args.out:
            _check_writable(args.out)
        code, payload, latex_rows, text = _RUNNERS[args.subcommand](args)
        if fmt == "json":
            output = json.dumps({"command": args.subcommand, **payload()}, indent=2)
        elif fmt == "latex":
            output = "\n".join(f"{row} \\\\" for row in latex_rows())
        else:
            output = text()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(output + "\n")
        else:
            print(output)
        return code
    except UsageError as exc:
        print(f"weuler: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:   # the arguments were accepted; the computation failed
        print(f"weuler: runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
