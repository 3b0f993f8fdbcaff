"""One in-process pass over a workload, optionally traced.

    python3 bench/tracing.py --workload suite-qw --seed 0 --trace 1

Run from the root of a checkout.  Imports weuler from ./src, calls
weuler.cli.main(argv) for each command in turn with stdout captured, checks
every output, and prints one JSON object.  run.py starts it as a fresh
child interpreter, once untraced and once traced, so the two passes differ
only by the tracing.

With --trace 1 the public functions of each layer are wrapped from outside
(no file under src/ changes).  Each call records a span: name, start, end,
parent span and command index.  Spans stay in memory and are written to
bench/out/trace-<workload>-<seed>.tsv when the pass ends.  A span's self
time is its duration minus the durations of its children; code between
wrapped functions counts toward the nearest enclosing span, and
weuler.cli.main is the root of each command.  Each command's result holds
its wall time, measured outside cli.main, and the sum of its self times
(self_s), so that test_bench.py can check the two agree.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

# (span name, module, attribute).  Every alias of a wrapped method is
# wrapped too (WRational.__radd__ is WRational.__add__).
SPANS = (
    ("ratfunc.op", "weuler.ratfunc", "WRational.__add__"),
    ("ratfunc.op", "weuler.ratfunc", "WRational.__sub__"),
    ("ratfunc.op", "weuler.ratfunc", "WRational.__mul__"),
    ("ratfunc.op", "weuler.ratfunc", "WRational.__truediv__"),
    ("ratfunc.poly_mul", "weuler.ratfunc", "WPolynomial.__mul__"),
    ("ratfunc.gcd", "weuler.ratfunc", "poly_gcd"),
    ("series.inverse", "weuler.series", "Series.inverse"),
    ("series.mul", "weuler.series", "Series.__mul__"),
    ("umbral.apply_functional", "weuler.umbral", "apply_functional"),
    ("umbral.pairing", "weuler.umbral", "pairing"),
    ("umbral.appell_basis", "weuler.umbral", "appell_basis"),
    ("euler.multinomial", "weuler.euler", "order_k_multinomial"),
    ("euler.suite", "weuler.euler", "verify_paper_suite"),
    ("dsl.check", "weuler.dsl", "check_corpus"),
    ("dsl.parse", "weuler.dsl", "parse_identity"),
    ("dsl.eval", "weuler.dsl", "evaluate_expr"),
    ("padic.report", "weuler.padic", "convergence_report"),
    ("padic.report", "weuler.padic", "shift_identity_check"),
    ("padic.exact_integral", "weuler.padic", "exact_integral"),
    ("padic.valuation", "weuler.padic", "vp_fraction"),
    ("cli.render", "weuler.ratfunc", "WRational.__str__"),
    ("cli.render", "weuler.ratfunc", "RationalField.render"),
    ("cli.render", "weuler.ratfunc", "WRationalField.render"),
    ("cli.render", "weuler.umbral", "XPolynomial.__str__"),
    ("cli.render", "weuler.umbral", "XPolynomial.to_json"),
    ("cli.render", "weuler.euler", "Report.render_text"),
    ("cli.render", "weuler.euler", "Report.to_json"),
    ("cli.render", "weuler.dsl", "Verdict.render_text"),
    ("cli.render", "weuler.dsl", "Verdict.to_json"),
    ("cli.render", "weuler.padic", "ConvergenceReport.render_text"),
    ("cli.render", "weuler.padic", "ConvergenceReport.to_json"),
    ("cli.render", "weuler.padic", "ShiftReport.render_text"),
    ("cli.render", "weuler.padic", "ShiftReport.to_json"),
    ("cli.render", "json", "dumps"),
)

# span name -> the per-layer metric its self time counts in
SELF_TIME = {
    "ratfunc.op": "ratfunc.op_s",
    "ratfunc.poly_mul": "ratfunc.poly_mul_s",
    "ratfunc.gcd": "ratfunc.gcd_s",
    "series.inverse": "series.inverse_s",
    "series.mul": "series.mul_s",
    "umbral.apply_functional": "umbral.apply_functional_s",
    "umbral.pairing": "umbral.pairing_s",
    "umbral.appell_basis": "umbral.appell_basis_s",
    "euler.table_build": "euler.table_build_s",
    "dsl.table_build": "euler.table_build_s",   # an EulerTable.build made for a dsl.TableContext
    "euler.multinomial": "euler.multinomial_s",
    "euler.suite": "euler.suite_s",
    "dsl.check": "dsl.check_s",
    "dsl.parse": "dsl.parse_s",
    "dsl.eval": "dsl.eval_s",
    "padic.report": "padic.report_s",
    "padic.partial_sums": "padic.partial_sums_s",
    "padic.exact_integral": "padic.exact_integral_s",
    "padic.valuation": "padic.valuation_s",
    "cli.render": "cli.render_s",
    "cli.main": "cli.self_s",
}

# span name -> the per-layer metric counting its calls
CALLS = {
    "ratfunc.op": "ratfunc.ops",
    "ratfunc.poly_mul": "ratfunc.poly_mul_calls",
    "ratfunc.gcd": "ratfunc.gcd_calls",
    "series.inverse": "series.inverse_calls",
    "series.mul": "series.mul_calls",
    "umbral.apply_functional": "umbral.apply_functional_calls",
    "umbral.pairing": "umbral.pairing_calls",
    "euler.multinomial": "euler.multinomial_calls",
    "dsl.table_build": "dsl.table_builds",
    "dsl.eval": "dsl.eval_nodes",
}


class Tracer:
    """Spans and counters of one pass; install() wraps the layers, the returned callable undoes it."""

    def __init__(self):
        self.spans: list[tuple] = []      # (id, name, start, end, parent id, command index)
        self.divexact_calls = 0
        self.command = -1
        self.tables: list = []            # every EulerTable.build result
        self.sums: list = []              # (p, levels, partial sums) of every partial_sums call
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name, fn, keep=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.command))
            if keep is not None:
                keep(args, result)
            return result

        return traced

    def install(self):
        undo = []
        modules = [importlib.import_module(f"weuler.{m}")
                   for m in ("ratfunc", "series", "umbral", "euler", "padic", "dsl", "cli")]

        def replace(module, attr, make):
            owner, _, fname = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                raw = cls.__dict__[fname]
                binder = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
                new = make(raw.__func__ if binder else raw)
                new = binder(new) if binder else new
                targets = [cls]
            else:
                raw = getattr(module, fname)
                new = make(raw)
                targets = [module, *modules]
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is raw:
                        setattr(target, key, new)
                        undo.append((target, key, value))

        for name, module, attr in SPANS:
            replace(importlib.import_module(module), attr, lambda fn, name=name: self.wrap(name, fn))
        ratfunc, euler, padic = modules[0], modules[3], modules[4]

        def count_divexact(fn):
            def counted(*args, **kwargs):
                self.divexact_calls += 1
                return fn(*args, **kwargs)
            return counted

        replace(ratfunc, "WPolynomial.divexact", count_divexact)

        def keep_table(args, table):
            self.tables.append(table)

        def build(fn):
            # a build for a dsl.TableContext is named for the DSL, which asked for it
            from_euler = self.wrap("euler.table_build", fn, keep_table)
            from_dsl = self.wrap("dsl.table_build", fn, keep_table)

            def dispatch(*args, **kwargs):
                caller = sys._getframe(1).f_globals.get("__name__")
                return (from_dsl if caller == "weuler.dsl" else from_euler)(*args, **kwargs)

            return dispatch

        replace(euler, "EulerTable.build", build)

        def keep_sums(args, sums):
            _, _, p, levels = args       # padic calls partial_sums(f, w, p, levels)
            self.sums.append((p, levels, sums))

        replace(padic, "partial_sums", lambda fn: self.wrap("padic.partial_sums", fn, keep_sums))

        def restore():
            for target, key, value in reversed(undo):
                setattr(target, key, value)

        return restore

    def self_times(self) -> list[tuple[tuple, float]]:
        """(span, self time) of every span: its duration minus its children's."""
        children: dict[int, float] = defaultdict(float)
        for sid, name, start, end, parent, cmd in self.spans:
            children[parent] += end - start
        return [(span, span[3] - span[2] - children[span[0]]) for span in self.spans]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass, from the spans, counters and kept results."""
        out: dict[str, float] = {m: 0.0 for m in SELF_TIME.values()}
        out.update({m: 0 for m in CALLS.values()})
        dsl_build_s = 0.0
        for (sid, name, start, end, parent, cmd), own in self.self_times():
            out[SELF_TIME[name]] += own
            if name in CALLS:
                out[CALLS[name]] += 1
            if name == "dsl.table_build":
                dsl_build_s += end - start
        out["dsl.table_build_s"] = dsl_build_s     # inclusive: the whole rebuild the DSL asked for
        out["euler.table_builds"] = len(self.tables)
        out["ratfunc.divexact_calls"] = self.divexact_calls
        ops = out["ratfunc.ops"]
        out["ratfunc.divexact_per_op"] = out["ratfunc.divexact_calls"] / ops if ops else 0.0
        degree, bits = 0, 0
        for table in self.tables:
            values = list(table.numbers)
            for poly in table.polys:
                values.extend(poly.coeffs)
            for value in values:
                d, b = _size(value)
                degree, bits = max(degree, d), max(bits, b)
        out["ratfunc.max_num_degree"] = degree
        out["ratfunc.max_coeff_bits"] = bits
        out["padic.terms"] = sum(p ** levels for p, levels, _ in self.sums)
        out["padic.max_sum_bits"] = max(
            (_size(s)[1] for _, _, sums in self.sums for s in sums), default=0)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tstart\tend\tparent\tcommand\n")
            for span in sorted(self.spans):
                handle.write("\t".join(map(str, span)) + "\n")


def _size(value) -> tuple[int, int]:
    """(numerator degree in w, largest numerator or denominator bit length) of a table entry."""
    if isinstance(value, Fraction):
        return 0, max(value.numerator.bit_length(), value.denominator.bit_length())
    coeffs = value.num.coeffs + value.den.coeffs
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs)
    return value.num.degree, bits


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    """Run the workload's commands in-process; the result is JSON-ready."""
    sys.path.insert(0, str(Path.cwd() / "src"))
    from weuler import cli

    tracer = Tracer() if traced else None
    restore = tracer.install() if traced else None
    main = tracer.wrap("cli.main", cli.main) if traced else cli.main
    runs = []
    try:
        for index, cmd in enumerate(workloads.commands(workload, seed)):
            out, err = io.StringIO(), io.StringIO()
            if traced:
                tracer.command = index
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(cmd.argv))
            runs.append((cmd, code, time.perf_counter() - start, out.getvalue(), err.getvalue()))
    finally:
        if restore is not None:
            restore()
    commands = []
    for cmd, code, seconds, stdout, stderr in runs:
        stdout_bytes = stdout.encode("utf-8")
        commands.append({
            "command": cmd.text,
            "kind": cmd.kind,
            "exit": code,
            "seconds": seconds,
            "error": workloads.check_output(cmd, code, stdout_bytes, stderr.encode("utf-8")),
        })
    result = {"wall_s": sum(c["seconds"] for c in commands), "commands": commands,
              "int_max_str_digits": sys.get_int_max_str_digits()}
    if traced:
        metrics = tracer.metrics()
        metrics["cli.output_bytes"] = sum(len(r[3].encode("utf-8")) for r in runs)
        result["metrics"] = metrics
        per_command: dict[int, float] = defaultdict(float)
        for span, own in tracer.self_times():
            per_command[span[5]] += own
        for index, command in enumerate(commands):
            command["self_s"] = per_command[index]
        tracer.write(BENCH_DIR / "out" / f"trace-{workload}-{seed}.tsv")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)
    print(json.dumps(run_pass(args.workload, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
