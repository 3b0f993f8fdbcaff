"""Benchmark of the weuler CLI: end-to-end times per workload, or traced per-layer metrics.

    python3 bench/run.py --workload suite-qw --seed 0 --seconds 35 --trace 0

Run from the root of a checkout; the program under test is ./src.

--trace 0 runs each command of the workload as its own
`python -m weuler.cli ...` process, the way users run it, one at a time: a
closed loop with a single client.  Whole passes over the workload repeat
while another pass still fits in --seconds (at least one pass).  setup_s
is the median time to import weuler.cli in a fresh interpreter, measured
inside it, over SETUP_BATCH samples before every pass and after the last.

Times are scaled to a reference host speed.  On a shared host the same
command's wall time differs by up to half from one run to the next, and
within seconds, because the CPU runs at the speed its neighbours leave it.
So the benchmark, its children and a speed monitor (MONITOR, a fixed
stdlib-only load at the lowest priority) share one CPU, and each command's
wall time is multiplied by MONITOR_REF_S over the mean CPU time of the
monitor units that ran during that command.  A command's time is the
median of its scaled times over the passes; wall_s and the per-kind times
are sums of those medians.  An import is too short for the monitor to
time, so each import is scaled by a fixed loop timed just before and just
after it in the same interpreter (IMPORT_PROBE), and setup_s is the median
of those scaled imports.  The monitor slows the commands by the ~1.5 % of
the CPU it gets, the same on every tree.  The unscaled medians are printed
too (wall_raw, setup_raw).

--trace 1 runs the workload in-process in two fresh child interpreters
(bench/tracing.py), untraced and then traced, and reports per-layer
metrics; trace.overhead_s is the difference of their wall times.

Every output is checked (see workloads.py).  The last stdout line is one
JSON object {correct, attempted, failed, metrics}.  `failed` counts the
commands that exited nonzero or failed their check, out of `attempted`
(the ops_failed metric with its base).  `correct` is false when a command
gave a wrong answer: output that fails its check, or exit code 1, which
claims that a true identity is violated.  A command that refuses or
crashes (exit 2 or 3) is failed but not wrong.  The line before it is a
JSON object with the per-kind times (verify_s, check_s, table_s, padic_s)
and the environment, which compare.py reads.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

SETUP_BATCH = 8
KIND_METRICS = {"verify": "verify_s", "check": "check_s", "table": "table_s", "padic": "padic_s"}
# An import lasts a few tens of ms, too short for the monitor to time, so
# the probe times a fixed loop of its own just before and just after the
# import, in the same interpreter.  The loop imports nothing, so it does not
# load any module weuler.cli would load.
IMPORT_PROBE = (
    "import sys, time\n"
    "def loop():\n"
    "    start = time.perf_counter()\n"
    "    x = 0\n"
    "    for i in range(30000):\n"
    "        x = (x * 31 + i) % 1000003\n"
    "    return time.perf_counter() - start\n"
    "before = loop()\n"
    "start = time.perf_counter()\n"
    "import weuler.cli\n"
    "took = time.perf_counter() - start\n"
    "print(took, before, loop(), sys.get_int_max_str_digits())\n"
)
# The probe loop's time at the reference host speed; import times are
# scaled to that speed by the mean of the loop's two times around them.
PROBE_REF_S = 0.003
# The speed monitor: a fixed stdlib-only load of the kind weuler spends its
# time on (Fraction arithmetic), run at the lowest priority on the CPU the
# commands run on.  The scheduler gives it about 1.5 % of that CPU while a
# command runs, in slices spread over the command's run, so the CPU time
# of its units tracks the speed the command ran at.  It shares no code with
# weuler, so a change to the program does not change its work.  Each line it writes
# is the end time of one unit and the unit's CPU time.
MONITOR = (
    "import os, time\n"
    "from fractions import Fraction\n"
    "os.nice(19)\n"
    "parent = os.getppid()\n"
    "while os.getppid() == parent:   # ends with the benchmark, however that ends\n"
    "    start = time.thread_time()\n"
    "    acc = Fraction(0)\n"
    "    for i in range(1, 100):\n"
    "        acc += Fraction(i, i + 7) * Fraction(3 * i + 1, 2 * i + 5)\n"
    "    os.write(1, f'{time.perf_counter()} {time.thread_time() - start}\\n'.encode())\n"
)
# A monitor unit's CPU time at the reference host speed; time metrics are
# scaled to that speed (see end_to_end).
MONITOR_REF_S = 0.0007


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    # measure the program with its default settings and against this tree
    env.pop("WEULER_FORMAT", None)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def sample_setup(root: Path, samples: list[tuple[float, float]]) -> int:
    """Append SETUP_BATCH (raw, scaled) import times of weuler.cli in fresh interpreters.

    Returns their int_max_str_digits.
    """
    for _ in range(SETUP_BATCH):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=child_env(root),
                             capture_output=True, text=True, check=True, timeout=60).stdout.split()
        took, before, after = map(float, out[:3])
        samples.append((took, took * PROBE_REF_S * 2 / (before + after)))
    return int(out[3])


def run_command(root: Path, cmd: workloads.Command) -> dict:
    """One CLI process: wall time, exit code, peak RSS (from wait4) and the check result."""
    with tempfile.TemporaryFile(dir=BENCH_DIR) as out, tempfile.TemporaryFile(dir=BENCH_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "weuler.cli", *cmd.argv], cwd=root,
                                env=child_env(root), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    return {"command": cmd.text, "kind": cmd.kind, "exit": code, "start": start, "end": end,
            "seconds": end - start, "rss_mb": usage.ru_maxrss / 1024, "stdout": stdout,
            "stderr": stderr}


def check_all(runs: list[dict]) -> None:
    """Set each run's "error"; identical outputs of one command are checked once."""
    seen: dict[tuple, str | None] = {}
    for run in runs:
        key = (run["command"], run["exit"], run["stdout"], run["stderr"])
        if key not in seen:
            cmd = workloads.Command(run["kind"], tuple(run["command"].split()))
            seen[key] = workloads.check_output(cmd, run["exit"], run["stdout"], run["stderr"])
        run["error"] = seen[key]


def is_wrong(run: dict) -> bool:
    return run["error"] is not None and run["exit"] in (0, 1)


class Monitor:
    """The speed monitor (MONITOR) as a child process; stop() returns the units it ran."""

    def __init__(self, root: Path):
        self.log = tempfile.TemporaryFile(dir=BENCH_DIR)
        self.proc = subprocess.Popen([sys.executable, "-c", MONITOR], cwd=root,
                                     stdout=self.log)

    def stop(self) -> list[tuple[float, float]]:
        """(end time, CPU time) of every unit, by end time."""
        self.proc.kill()
        self.proc.wait()
        self.log.seek(0)
        lines = (line.split() for line in self.log.read().decode().splitlines())
        self.log.close()
        return sorted((float(t[0]), float(t[1])) for t in lines if len(t) == 2)


def speed_scale(units: list[tuple[float, float]], start: float, end: float) -> float:
    """MONITOR_REF_S over the mean CPU time of the units that ended from start to end."""
    ends = [t for t, _ in units]
    cpu = [c for _, c in units[bisect.bisect_left(ends, start):bisect.bisect_right(ends, end)]]
    if not cpu:
        raise RuntimeError("the speed monitor ran no unit during a measured interval")
    return MONITOR_REF_S * len(cpu) / sum(cpu)


def end_to_end(root: Path, workload: str, seed: int, seconds: float) -> tuple[list[dict], dict, dict]:
    cmds = workloads.commands(workload, seed)
    setup: list[tuple[float, float]] = []
    passes: list[list[dict]] = []
    # the benchmark, its children and the monitor share one CPU, so the
    # monitor sees the speed the commands run at
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    monitor = Monitor(root)
    try:
        begin = time.perf_counter()
        while True:
            start = time.perf_counter()
            sample_setup(root, setup)
            one = [run_command(root, cmd) for cmd in cmds]
            passes.append(one)
            now = time.perf_counter()
            if now - begin + (now - start) > seconds:
                break
        digits = sample_setup(root, setup)
    finally:
        units = monitor.stop()
    runs = [run for one in passes for run in one]
    check_all(runs)
    # This host's speed drifts by up to half within seconds and over minutes.
    # A command's time is scaled to the reference speed by the monitor units
    # that ran during it; an import was scaled by its probe (IMPORT_PROBE).
    for run in runs:
        run["scaled_s"] = run["seconds"] * speed_scale(units, run["start"], run["end"])
    medians = [statistics.median(one[i]["scaled_s"] for one in passes) for i in range(len(cmds))]
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "wall_s": sum(medians),
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
    }
    detail = {
        metric: sum(m for c, m in zip(cmds, medians) if c.kind == kind)
        for kind, metric in KIND_METRICS.items() if any(c.kind == kind for c in cmds)
    }
    detail["passes"] = len(passes)
    detail["setup_samples"] = len(setup)
    detail["monitor_units"] = len(units)
    detail["wall_raw"] = sum(statistics.median(one[i]["seconds"] for one in passes)
                             for i in range(len(cmds)))
    detail["setup_raw"] = statistics.median(raw for raw, _ in setup)
    return runs, metrics, {"detail": detail, "env": environment(digits)}


def traced(root: Path, workload: str, seed: int) -> tuple[list[dict], dict, dict]:
    results = []
    for trace in (0, 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "tracing.py"), "--workload", workload,
             "--seed", str(seed), "--trace", str(trace)],
            cwd=root, env=child_env(root), capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"traced pass failed:\n{proc.stderr}")
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    untraced, with_trace = results
    metrics = dict(with_trace["metrics"])
    metrics["trace.wall_s"] = with_trace["wall_s"]
    metrics["trace.overhead_s"] = with_trace["wall_s"] - untraced["wall_s"]
    runs = untraced["commands"] + with_trace["commands"]
    return runs, metrics, {"detail": {"untraced_wall_s": untraced["wall_s"]},
                           "env": environment(with_trace["int_max_str_digits"])}


def load_spec() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def environment(int_max_str_digits: int) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "int_max_str_digits": int_max_str_digits}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    spec = load_spec()
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "weuler" / "cli.py").is_file():
        print(f"run.py: no weuler source under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))      # the output checks use weuler's own recurrences
    if args.trace:
        runs, values, extra = traced(root, args.workload, args.seed)
    else:
        runs, values, extra = end_to_end(root, args.workload, args.seed, args.seconds)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    failed = [r for r in runs if r["error"] is not None]
    env = extra["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  nproc {env['nproc']}  "
          f"python {env['python']}  int_max_str_digits {env['int_max_str_digits']}")
    for r in runs:
        status = "ok" if r["error"] is None else "FAILED"
        scaled = f" (scaled {r['scaled_s']:.3f} s)" if "scaled_s" in r else ""
        print(f"  {status:<6} {r['seconds']:9.3f} s{scaled}  {r['command']}"
              + ("" if r["error"] is None else f"  ({r['error']})"))
    for name, m in metrics.items():
        print(f"{name:<30} {m['value']:.6g} {m['unit']}")
    for name, value in extra["detail"].items():
        print(f"{name:<30} {value:.6g}" + (" s" if isinstance(value, float) else ""))
    print(f"{'ops_failed':<30} {len(failed)}/{len(runs)}")
    print(json.dumps(extra))
    print(json.dumps({"correct": not any(is_wrong(r) for r in runs), "attempted": len(runs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
