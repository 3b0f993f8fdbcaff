"""The benchmark's workloads: which `weuler` commands each runs, and how each output is checked.

Seed 0 runs the documented commands in the documented order, and most of
their outputs are pinned by SHA-256 (default stdout is byte-for-byte
deterministic).  Any other seed keeps every command's size but draws the
numeric weights and the order in which the commands run; a command whose
argv then differs from the seed-0 one is checked by invariants instead of
a digest.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb

CORPUS = "src/weuler/corpus/paper.uid"


@dataclass(frozen=True)
class Command:
    kind: str           # "verify" | "check" | "table" | "padic": the end-to-end metric it counts in
    argv: tuple[str, ...]

    @property
    def text(self) -> str:
        return " ".join(self.argv)


def _cmd(kind: str, text: str) -> Command:
    return Command(kind, tuple(text.split()))


# Why each workload exists is in BENCHMARK.json; the short form:
#   suite-qw   many small Q(w) operations on (1+w)^m denominators (proof checking)
#   tables-qw  few large Q(w) operations inside Series.inverse (table generation)
#   numeric-q  fixed weight, so no Q(w) arithmetic: Series over Fraction, p-adic sums, big output
WORKLOADS: dict[str, tuple[Command, ...]] = {
    "suite-qw": (
        _cmd("verify", "verify --suite paper --max-n 12 --max-k 4"),
        _cmd("check", f"check {CORPUS} --max-n 10"),
    ),
    "tables-qw": (
        _cmd("table", "numbers --max-n 32"),
        _cmd("table", "polys --max-n 24 --order 2"),
    ),
    "numeric-q": (
        _cmd("table", "numbers --max-n 400 --w 4"),
        _cmd("table", "polys --max-n 160 --w=-3/2 --order 3"),
        # the documented [2,4,8,7,...] dip case, taken to level 8
        _cmd("padic", "padic --p 3 --w 4 --poly 0,0,0,0,0,1 --levels 8 --prec 20"),
        # known defect: the text report calls str() on a ~50 000-bit partial
        # sum, which Python's default int_max_str_digits (4300) rejects, so
        # this command exits 2 on every seed and counts as failed
        _cmd("padic", "padic --p 7 --w 8 --poly 1 --levels 5 --prec 12"),
    ),
}

# stdout SHA-256 of the seed-0 commands that succeed
DIGESTS = {
    "verify --suite paper --max-n 12 --max-k 4":
        "4dbf8e709dae73d9c7c09c4328a77dd53fdeccdb2eb371dee4f79faee27d30ce",
    f"check {CORPUS} --max-n 10":
        "7360f97c9449f7663a2f2e74efe4ce4dd744c4d311133b3b1381959e263f0327",
    "numbers --max-n 32":
        "75f4b2a6118029b21f9dd47153ad29eebade89946157d49b8ef9fef4135b4811",
    "polys --max-n 24 --order 2":
        "3b7980add10506e94825b8687770bb54d9df61f1704215b2f3bf032d26b55c20",
    "numbers --max-n 400 --w 4":
        "2da74ab1329b0ea7dd26587285f3454e84ea2f7876a070447fb514e5575b599b",
    "polys --max-n 160 --w=-3/2 --order 3":
        "d788a694e9ecf6649ac622b8718b633f29cec494af3d883e84a2058a29941d54",
    "padic --p 3 --w 4 --poly 0,0,0,0,0,1 --levels 8 --prec 20":
        "9d485b46db00433ab7d51961d4c97e6a1b20811468fc3edccc7148b1c992461d",
}

DIP_CASE = WORKLOADS["numeric-q"][2].text
DIP_VALUATIONS = [2, 4, 8, 7, 8, 9, 10, 11]


def _draw_table_weight(rng: random.Random, default: Fraction) -> Fraction:
    """Same height and shape as the default: +-h or +-1/h for an integer h, +-a/b or +-b/a otherwise.

    Other rationals of the same height (4/3 for 4, say) cost 10-20 % more,
    which would drown the run-to-run spread in input variation.
    """
    w = abs(default)
    if rng.random() < 0.5:
        w = 1 / w
    return w if rng.random() < 0.5 else -w


def _draw_padic_weight(rng: random.Random, p: int) -> int:
    """Admissible w = 1 + p*u with u = +-1, so |w| stays near the default 1 + p."""
    return 1 + p * rng.choice((1, -1))


def _redraw(cmd: Command, rng: random.Random) -> Command:
    argv = list(cmd.argv)
    for i, arg in enumerate(argv):
        if arg == "--w" or arg.startswith("--w="):
            default = Fraction(_option(cmd, "--w"))
            if cmd.kind == "padic":
                new = _draw_padic_weight(rng, int(_option(cmd, "--p")))
            else:
                new = _draw_table_weight(rng, default)
            if new == default:
                return cmd      # same argv text as seed 0, so the digest and dip checks apply
            # "=" form: argparse would read a negative value as an option
            argv[i:i + (2 if arg == "--w" else 1)] = [f"--w={new}"]
            break
    return Command(cmd.kind, tuple(argv))


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's commands for this seed, in the order they run."""
    base = list(WORKLOADS[workload])
    if seed == 0:
        return base
    rng = random.Random(f"{workload}:{seed}")
    drawn = [_redraw(c, rng) for c in base]
    rng.shuffle(drawn)
    return drawn


# ---------------------------------------------------------------------------
# Output checks


def _option(cmd: Command, name: str) -> str:
    for i, arg in enumerate(cmd.argv):
        if arg == name:
            return cmd.argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    raise KeyError(name)


def _check_numbers(cmd: Command, lines: list[str]) -> str | None:
    """Compare with the triangular recurrence, which shares no code with the CLI's series inversion."""
    from weuler.euler import weighted_euler_numbers

    count = int(_option(cmd, "--max-n"))
    w = Fraction(_option(cmd, "--w"))
    expected = [f"{n}: {e}" for n, e in enumerate(weighted_euler_numbers(count, w))]
    if lines != expected:
        return "numbers differ from the triangular recurrence"
    return None


_TERM = re.compile(r"^(?:(?P<c>-?\d+(?:/\d+)?)(?:\*|$))?(?P<x>x(?:\^(?P<j>\d+))?)?$")


def _parse_xpoly(text: str) -> dict[int, Fraction]:
    coeffs = {}
    for part in text.split(" + "):
        m = _TERM.match(part)
        if m is None or (m["c"] is None and m["x"] is None):
            raise ValueError(f"cannot parse term {part!r}")
        j = 0 if m["x"] is None else int(m["j"] or 1)
        coeffs[j] = Fraction(m["c"]) if m["c"] is not None else Fraction(1)
    return coeffs


def _check_polys(cmd: Command, lines: list[str]) -> str | None:
    """Appell structure, plus constant terms equal to the order-k convolution of recurrence numbers."""
    from weuler.euler import weighted_euler_numbers

    count = int(_option(cmd, "--max-n"))
    order = int(_option(cmd, "--order"))
    w = Fraction(_option(cmd, "--w"))
    if len(lines) != count:
        return f"expected {count} lines, got {len(lines)}"
    polys = []
    for n, line in enumerate(lines):
        head, _, body = line.partition(": ")
        if head != str(n):
            return f"line {n} is not numbered {n}"
        polys.append(_parse_xpoly(body))
    base = weighted_euler_numbers(count, w)
    numbers = base
    for _ in range(order - 1):
        numbers = [sum(comb(n, i) * numbers[i] * base[n - i] for i in range(n + 1))
                   for n in range(count)]
    for n, p in enumerate(polys):
        expected = {l: comb(n, l) * numbers[n - l] for l in range(n + 1)}
        if p != {l: c for l, c in expected.items() if c}:
            return f"E^({order})_{n}(x) is not sum_l C(n,l) E^({order})_(n-l) x^l"
    return None


def padic_valuations(lines: list[str]) -> tuple[list[int], list[int]]:
    """(convergence valuations, shift-identity valuations), each listed by level from 1."""
    sections: list[list[int]] = [[], []]
    current = 0
    for line in lines:
        if line.startswith("shift identity:"):
            current = 1
            continue
        tokens = line.split()
        if len(tokens) >= 2 and tokens[0].isdigit():
            if int(tokens[0]) != len(sections[current]) + 1:
                raise ValueError(f"unexpected level in {line!r}")
            sections[current].append(int(tokens[2] if tokens[1] == ">=" else tokens[1]))
    return sections[0], sections[1]


def _check_padic(cmd: Command, lines: list[str]) -> str | None:
    levels = int(_option(cmd, "--levels"))
    convergence, shift = padic_valuations(lines)
    if len(convergence) != levels or len(shift) != levels:
        return f"expected {levels} levels in each report"
    if not any(": holds" in line for line in lines):
        return "symbolic shift identity does not hold"
    if cmd.text == DIP_CASE and convergence != DIP_VALUATIONS:
        return f"dip case valuations {convergence}, expected {DIP_VALUATIONS}"
    for valuations in (convergence, shift):
        for level, v in enumerate(valuations, start=1):
            if v < level:
                return f"valuation {v} below level {level}"
    return None


def check_output(cmd: Command, returncode: int, stdout: bytes, stderr: bytes) -> str | None:
    """None if the command succeeded with correct output, else why it failed."""
    if returncode != 0:
        last = stderr.decode("utf-8", "replace").strip().splitlines()
        return f"exit {returncode}: {last[-1] if last else 'no message'}"
    pinned = DIGESTS.get(cmd.text)
    if pinned is not None and hashlib.sha256(stdout).hexdigest() != pinned:
        return "stdout differs from the pinned SHA-256"
    try:
        return _check_content(cmd, stdout.decode("utf-8").splitlines(), pinned is not None)
    except ValueError as exc:       # also UnicodeDecodeError: output that does not parse is wrong
        return f"unparsable output: {exc}"


def _check_content(cmd: Command, lines: list[str], pinned: bool) -> str | None:
    if cmd.kind == "verify":
        return None if lines and lines[-1] == "result: ALL PASS" else "verify does not read ALL PASS"
    if cmd.kind == "check":
        ok = lines and all(line.startswith("PASS  ") for line in lines)
        return None if ok else "a corpus line does not read PASS"
    if cmd.kind == "padic":
        return _check_padic(cmd, lines)
    if pinned:
        return None
    return (_check_numbers if cmd.argv[0] == "numbers" else _check_polys)(cmd, lines)
