"""Compare a parent and a changed source tree on the benchmark, in alternating pairs.

    python3 bench/compare.py --parent PARENT_DIR --change CHANGE_DIR [--workload NAME]

Both sides run this directory's run.py with --trace 0 (identical benchmark
code and settings, run length from BENCHMARK.json), each from the root of
its own tree.  There are ten pairs; pair i uses seed i on both sides, and
the side that runs first alternates.  Each workload prints in its own rows,
one per metric: each side's median and quartiles, the change's
wins/losses/ties over the pairs, and a verdict:

  wrong       some change run gave a wrong answer (correct is false)
  failed      the change's runs failed more commands than the parent's
  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile spread
  unresolved  the parent's spread (interquartile range / median) exceeds
              the metric's bound, and not every change run beats every
              parent run
  regressed   the change's median is worse than the parent's by more than
              the bound
  unchanged   otherwise

The first two stand in for every verdict of the workload, improved
included: a time is no gain when the work it measures is wrong or undone.
End-to-end metrics take their bound from BENCHMARK.json; the per-command-kind
times (verify_s, check_s, table_s, padic_s) take the bound of wall_s.  All
times are run.py's, scaled to its reference host speed.  The
last line is every run made, as JSON, each with its nproc, Python version
and int_max_str_digits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
IMPROVE_SHARE = 0.9
PAIRS = 10


def run_side(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed in {tree} ({workload}, seed {seed}):\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    extra, result = json.loads(lines[-2]), json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values.update({k: v for k, v in extra["detail"].items() if k.endswith("_s")})
    return {"tree": str(tree), "workload": workload, "seed": seed, "values": values,
            "env": extra["env"], "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"]}


def health(parent: list[dict], change: list[dict]) -> str | None:
    """"wrong" or "failed" when the change's runs are worse at the work itself, else None."""
    if not all(r["correct"] for r in change):
        return "wrong"
    if sum(r["failed"] for r in change) > sum(r["failed"] for r in parent):
        return "failed"
    return None


def verdict(parent: list[float], change: list[float], bound: float,
            failure: str | None = None) -> tuple[str, str]:
    """(wins/losses/ties, verdict) for a lower-is-better metric measured in pairs.

    failure is health() of the runs the values come from; it replaces the verdict.
    """
    wins = sum(c < p for p, c in zip(parent, change))
    losses = sum(c > p for p, c in zip(parent, change))
    ties = len(parent) - wins - losses
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if wins >= IMPROVE_SHARE * len(parent) and p_med - c_med > q3 - q1:
        result = "improved"
    elif (q3 - q1) > bound * p_med and not max(change) < min(parent):
        result = "unresolved"
    elif c_med > p_med * (1 + bound):
        result = "regressed"
    else:
        result = "unchanged"
    return f"{wins}/{losses}/{ties}", failure or result


def summary(values: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="repeatable; default every workload")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    print(f"{'workload':<10} {'metric':<15} {'parent median [q1, q3]':<28} "
          f"{'change median [q1, q3]':<28} {'W/L/T':<8} verdict")
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        sides: dict[str, list[dict]] = {"parent": [], "change": []}
        for seed in range(1, PAIRS + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                tree = args.parent if side == "parent" else args.change
                sides[side].append(run_side(tree.resolve(), workload, seed, spec["run_seconds"]))
        runs.extend(sides["parent"] + sides["change"])
        failure = health(sides["parent"], sides["change"])
        for metric in sides["parent"][0]["values"]:
            parent = [r["values"][metric] for r in sides["parent"]]
            change = [r["values"][metric] for r in sides["change"]]
            wlt, result = verdict(parent, change, bounds.get(metric, bounds["wall_s"]), failure)
            print(f"{workload:<10} {metric:<15} {summary(parent):<28} {summary(change):<28} "
                  f"{wlt:<8} {result}")
        failed = {side: sum(r["failed"] for r in rs) for side, rs in sides.items()}
        attempted = {side: sum(r["attempted"] for r in rs) for side, rs in sides.items()}
        print(f"{workload:<10} {'ops_failed':<15} {failed['parent']}/{attempted['parent']:<26} "
              f"{failed['change']}/{attempted['change']:<26} {'':<8} {failure or 'ok'}")
    print(json.dumps(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
