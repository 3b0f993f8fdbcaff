"""Tests of the benchmark itself.  Run from the root of the repository:

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

The traced-repeat test runs every workload twice in-process (about two
minutes on a 2-core machine).
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from compare import health, verdict  # noqa: E402
from run import MONITOR_REF_S, speed_scale  # noqa: E402
from workloads import Command, check_output  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_UNITS = {"count", "degree", "bits", "bytes", "ratio"}


def test_seed_zero_runs_the_documented_commands():
    for name, cmds in workloads.WORKLOADS.items():
        assert workloads.commands(name, 0) == list(cmds)
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def _without_weight(cmd: Command) -> list[str]:
    argv, skip = [], False
    for arg in cmd.argv:
        if skip:
            skip = False
        elif arg == "--w":
            skip = True
        elif not arg.startswith("--w="):
            argv.append(arg)
    return argv


@pytest.mark.parametrize("seed", range(1, 13))
def test_other_seeds_keep_sizes_and_draw_admissible_weights(seed):
    from weuler.padic import is_admissible_weight

    for name, base in workloads.WORKLOADS.items():
        drawn = workloads.commands(name, seed)
        assert sorted(map(_without_weight, drawn)) == sorted(map(_without_weight, base))
        for cmd in drawn:
            twin = next(c for c in base if _without_weight(c) == _without_weight(cmd))
            if cmd.argv != twin.argv and any(a.startswith("--w") for a in cmd.argv):
                # a redrawn weight differs from the default, else the digest check would be lost
                assert Fraction(workloads._option(cmd, "--w")) != Fraction(workloads._option(twin, "--w"))
            if cmd.kind == "padic":
                p = int(workloads._option(cmd, "--p"))
                assert is_admissible_weight(Fraction(workloads._option(cmd, "--w")), p)
            elif any(a.startswith("--w") for a in cmd.argv):
                w = abs(Fraction(workloads._option(cmd, "--w")))
                assert max(w.numerator, w.denominator) in (4, 3)


def test_checks_reject_wrong_output():
    from weuler.euler import weighted_euler_numbers

    numbers = Command("table", ("numbers", "--max-n", "6", "--w=1/4"))
    good = "".join(f"{n}: {e}\n" for n, e in enumerate(weighted_euler_numbers(6, Fraction(1, 4))))
    bad = "".join(f"{n}: {e}\n" for n, e in enumerate(weighted_euler_numbers(6, Fraction(4))))
    assert check_output(numbers, 0, good.encode(), b"") is None
    assert check_output(numbers, 0, bad.encode(), b"") is not None
    verify = workloads.WORKLOADS["suite-qw"][0]
    assert check_output(verify, 0, b"result: FAILURES PRESENT\n", b"") is not None
    assert check_output(verify, 2, b"", b"weuler: error: boom\n") == "exit 2: weuler: error: boom"
    padic = Command("padic", tuple("padic --p 3 --w=-2 --poly 1 --levels 2 --prec 5".split()))
    assert check_output(padic, 0, b"    1  two  508\n", b"").startswith("unparsable output")


def test_compare_withholds_gains_from_wrong_or_failing_changes():
    parent = [10.0 + 0.1 * i for i in range(10)]
    faster = [5.0] * 10
    assert verdict(parent, faster, 0.25) == ("10/0/0", "improved")
    ok = {"correct": True, "failed": 1}
    assert health([ok] * 10, [ok] * 10) is None
    assert health([ok] * 10, [ok] * 9 + [{"correct": True, "failed": 2}]) == "failed"
    assert health([ok] * 10, [ok] * 9 + [{"correct": False, "failed": 1}]) == "wrong"
    assert health([{"correct": True, "failed": 2}] * 10, [ok] * 10) is None
    assert verdict(parent, faster, 0.25, "failed") == ("10/0/0", "failed")
    assert verdict(parent, faster, 0.25, "wrong") == ("10/0/0", "wrong")


def test_speed_scale_uses_the_monitor_units_that_ended_within_the_interval():
    units = [(1.0, 0.001), (2.0, 0.002), (3.0, 0.004)]
    assert speed_scale(units, 1.5, 2.5) == pytest.approx(MONITOR_REF_S / 0.002)
    assert speed_scale(units, 2.0, 3.5) == pytest.approx(MONITOR_REF_S / 0.003)
    with pytest.raises(RuntimeError):
        speed_scale(units, 3.5, 9.0)


def _traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "tracing.py"), "--workload", workload, "--seed", "0",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_and_self_times_add_up(workload):
    first, second = _traced(workload), _traced(workload)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [name for name, unit in units.items() if unit in COUNT_UNITS]
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    # every per-layer metric except the two whole-run ones comes from the trace
    assert set(first["metrics"]) == set(units) - {"trace.wall_s", "trace.overhead_s"}
    # the span self times of a command sum to its cli.main span, so compare them with the
    # command's wall time taken outside cli.main; the gap is the tracer's own bookkeeping
    for command in first["commands"]:
        assert 0.97 * command["seconds"] - 0.002 <= command["self_s"] <= command["seconds"], command
    self_times = sum(v for k, v in first["metrics"].items()
                     if units[k] == "s" and k != "dsl.table_build_s")
    assert self_times == pytest.approx(sum(c["self_s"] for c in first["commands"]))
    failed = [c["command"] for c in first["commands"] if c["error"] is not None]
    expected = ["padic --p 7 --w 8 --poly 1 --levels 5 --prec 12"] if workload == "numeric-q" else []
    assert failed == expected
