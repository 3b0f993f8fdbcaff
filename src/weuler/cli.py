"""Command-line interface: tables, verification suite, corpus checks, p-adic runs.

Exit codes: 0 success or all-pass, 1 identity violation, 2 usage or parse
error, 3 runtime error (an evaluation error, or any failure after the
arguments were accepted).  Output is deterministic; the default
format comes from WEULER_FORMAT (text unless overridden).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .dsl import TableContext, check_corpus
from .euler import EulerTable, latex_numbers_rows, latex_polys_rows, verify_paper_suite
from .padic import convergence_report, is_admissible_weight, is_odd_prime, shift_identity_check

FORMATS = ("text", "json", "latex")

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    """An argument was rejected before any computation started (exit 2)."""


def _default_format() -> str:
    return os.environ.get("WEULER_FORMAT", "text")


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
    p_padic.add_argument("--prec", type=int, required=True, metavar="M")
    add_common(p_padic)

    return parser


def _usage_error(message: str) -> int:
    print(f"weuler: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{what} must be a rational like 4 or -1/2, got {text!r}")


def _resolve_format(args) -> str:
    fmt = args.format if args.format else _default_format()
    if fmt not in FORMATS:
        raise UsageError(f"unknown format {fmt!r} (choose from {', '.join(FORMATS)})")
    return fmt


def _table_json(table: EulerTable, command: str, max_n: int) -> dict:
    payload = {
        "command": command,
        "maxN": max_n,
        "order": table.order,
        "w": None if table.w0 is None else str(table.w0),
    }
    if command == "numbers":
        payload["values"] = [table.field.render(v) for v in table.numbers]
    else:
        payload["values"] = [p.to_json() for p in table.polys]
    return payload


def _run_table(args, command: str) -> int:
    fmt = _resolve_format(args)
    if args.max_n < 1:
        raise UsageError("--max-n must be at least 1")
    if args.order < 1:
        raise UsageError("--order must be at least 1")
    w = None if args.w is None else _parse_rational(args.w, "--w")
    if w == -1:
        raise UsageError("w = -1 is a pole of the generating function")
    table = EulerTable.build(args.max_n, args.order, w=w)
    if fmt == "json":
        text = json.dumps(_table_json(table, command, args.max_n), indent=2)
    elif fmt == "latex":
        text = latex_numbers_rows(table) if command == "numbers" else latex_polys_rows(table)
    else:
        source = table.numbers if command == "numbers" else table.polys
        render = table.field.render if command == "numbers" else str
        text = "\n".join(f"{n}: {render(v)}" for n, v in enumerate(source))
    _emit(text, args.out)
    return EXIT_OK


def _run_verify(args) -> int:
    fmt = _resolve_format(args)
    if args.max_n < 2 or args.max_k < 1:
        raise UsageError("need --max-n >= 2 and --max-k >= 1")
    report = verify_paper_suite(args.max_n, args.max_k)
    if fmt == "json":
        payload = {
            "command": "verify",
            "suite": "paper",
            "maxN": args.max_n,
            "maxK": args.max_k,
            "allPass": report.passed,
            "checks": report.to_json(),
        }
        text = json.dumps(payload, indent=2)
    elif fmt == "latex":
        text = "\n".join(f"{r.check} & {r.status.upper()} \\\\" for r in report.results)
    else:
        text = report.render_text()
    _emit(text, args.out)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _run_check(args) -> int:
    fmt = _resolve_format(args)
    if args.max_n < 0:
        raise UsageError("--max-n must be nonnegative")
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            corpus = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {args.file}: {exc.strerror}")
    ctx = TableContext()
    verdicts = check_corpus(corpus, ctx, max_n=args.max_n)
    if fmt == "json":
        payload = {
            "command": "check",
            "file": args.file,
            "maxN": args.max_n,
            "allPass": all(v.status == "pass" for v in verdicts),
            "verdicts": [v.to_json() for v in verdicts],
        }
        text = json.dumps(payload, indent=2)
    elif fmt == "latex":
        text = "\n".join(f"{i} & {v.status.upper()} \\\\" for i, v in enumerate(verdicts))
    else:
        text = "\n".join(v.render_text() for v in verdicts)
    _emit(text, args.out)
    if any(v.status == "error" and v.location is not None for v in verdicts):
        return EXIT_USAGE
    if any(v.status == "error" for v in verdicts):
        return EXIT_RUNTIME
    if any(v.status == "fail" for v in verdicts):
        return EXIT_VIOLATION
    return EXIT_OK


def _run_padic(args) -> int:
    fmt = _resolve_format(args)
    if not is_odd_prime(args.p):
        raise UsageError(f"--p must be an odd prime, got {args.p}")
    w = _parse_rational(args.w, "--w")
    if not is_admissible_weight(w, args.p):
        raise UsageError(f"weight w = {w} requires |1-w|_p < 1 for p = {args.p}")
    coeffs = [_parse_rational(c, "--poly entry") for c in args.poly.split(",")]
    if args.levels < 1 or args.prec < 1:
        raise UsageError("--levels and --prec must be at least 1")
    convergence = convergence_report(coeffs, w, args.p, args.levels, args.prec)
    shift = shift_identity_check(coeffs, w, args.p, args.levels, args.prec)
    if fmt == "json":
        payload = {
            "command": "padic",
            "p": args.p,
            "w": str(w),
            "poly": [str(c) for c in coeffs],
            "levels": args.levels,
            "precision": args.prec,
            "convergence": convergence.to_json(),
            "shift": shift.to_json(),
        }
        text = json.dumps(payload, indent=2)
    elif fmt == "latex":
        rows = [f"{r.level} & {r.deviation_valuation} \\\\" for r in convergence.rows]
        text = "\n".join(rows)
    else:
        text = convergence.render_text() + "\n\nshift identity:\n" + shift.render_text()
    _emit(text, args.out)
    return EXIT_OK if shift.symbolic_ok else EXIT_VIOLATION


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.subcommand in ("numbers", "polys"):
            return _run_table(args, args.subcommand)
        if args.subcommand == "verify":
            return _run_verify(args)
        if args.subcommand == "check":
            return _run_check(args)
        if args.subcommand == "padic":
            return _run_padic(args)
    except UsageError as exc:
        return _usage_error(str(exc))
    except Exception as exc:   # the arguments were accepted; the computation failed
        print(f"weuler: runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return _usage_error(f"unknown subcommand {args.subcommand!r}")


if __name__ == "__main__":
    sys.exit(main())
