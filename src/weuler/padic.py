"""Truncated fermionic sums and their p-adic convergence reports.

Partial sums S_m = sum_{a < p^m} w^a f(a) (-1)^a are exact rationals, and a
report reads only the valuation of each deviation from the exact limit.  The
limits come from the weighted Euler numbers, never from a second derivation
here.  Weights must satisfy |1-w|_p < 1 and p must be an odd prime.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .euler import field_and_w, weighted_euler_numbers
from .ratfunc import QQ, QW, W, Polynomial, exact_text

# an exactly-zero deviation has no valuation; a report shows it as the lower
# bound ZERO_VALUATION_GUARD * M, well above any honest valuation
ZERO_VALUATION_GUARD = 4


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _require_odd_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def _require_base(p: int) -> None:
    # p = 1 or -1 divides every integer, so a valuation loop would never end
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")


def vp_int(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer."""
    _require_base(p)
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_fraction(r: Fraction, p: int) -> int:
    if r == 0:
        raise ValueError("valuation of zero is undefined")
    return vp_int(r.numerator, p) - vp_int(r.denominator, p)


def is_admissible_weight(w: Fraction, p: int) -> bool:
    """|1-w|_p < 1, i.e. v_p(1-w) >= 1; w = 1 counts (deviation exactly 0)."""
    _require_base(p)
    diff = 1 - Fraction(w)
    return diff == 0 or vp_fraction(diff, p) >= 1


def _require_admissible(w: Fraction, p: int) -> None:
    if not is_admissible_weight(w, p):
        raise ValueError(f"weight w = {w} requires |1-w|_p < 1 for p = {p}")


# ---------------------------------------------------------------------------
# Truncated fermionic sums


def _coerce_poly(f) -> Polynomial:
    return Polynomial(QQ, f.coeffs if isinstance(f, Polynomial) else f)


def partial_sums(f, w, p: int, levels: int) -> list[Fraction]:
    """[S_1, ..., S_levels] with S_m = sum_{a<p^m} w^a f(a) (-1)^a, exact.

    One pass over a < p^levels; each S_m extends the previous one.
    """
    _require_odd_prime(p)
    w = Fraction(w)
    _require_admissible(w, p)
    if levels < 1:
        raise ValueError("levels must be at least 1")
    f = _coerce_poly(f)
    out = []
    acc = Fraction(0)
    wa = Fraction(1)
    cut = p
    a = 0
    while len(out) < levels:
        acc += wa * f.eval_at(a) if a % 2 == 0 else -wa * f.eval_at(a)
        wa *= w
        a += 1
        if a == cut:
            out.append(acc)
            cut *= p
    return out


def exact_integral(f, w=None):
    """sum_j f_j E_{j,w}: the limit value, by linearity.

    With w = None the result is symbolic in Q(w); otherwise exact in Q.
    """
    f = _coerce_poly(f)
    field, _ = field_and_w(w)
    return field.dot(f.coeffs, weighted_euler_numbers(max(len(f.coeffs), 1), w=w))


def _truncated_text(r: Fraction) -> str:
    """Exact text of r, cut to its first and last 12 characters when over 48."""
    text = exact_text(r)
    if len(text) <= 48:
        return text
    return f"{text[:12]}...{text[-12:]} ({len(text)} chars)"


class LevelRow(Record):
    level: int
    partial_sum: Fraction
    deviation_valuation: int | None   # None: the deviation is exactly zero

    @property
    def exact_zero(self) -> bool:
        return self.deviation_valuation is None


def _deviation_rows(sums: list[Fraction], target: Fraction, p: int) -> list[LevelRow]:
    return [LevelRow(m, s, None if s == target else vp_fraction(s - target, p))
            for m, s in enumerate(sums, start=1)]


class _LevelReport:
    """What the two reports share: their per-level deviation rows, and the
    lower bound zero_bound = ZERO_VALUATION_GUARD * M that text, json and
    latex show in place of an exactly-zero deviation's valuation."""

    rows: list[LevelRow]
    zero_bound: int

    @property
    def valuations(self) -> list[int | None]:
        return [r.deviation_valuation for r in self.rows]

    def _levels_json(self) -> list[dict]:
        return [{
            "level": r.level,
            "partial_sum": _truncated_text(r.partial_sum),
            "valuation": self.zero_bound if r.exact_zero else r.deviation_valuation,
            "exact_zero": r.exact_zero,
        } for r in self.rows]

    def _level_lines(self, width: int) -> list[str]:
        lines = []
        for r in self.rows:
            v = f">= {self.zero_bound}" if r.exact_zero else str(r.deviation_valuation)
            lines.append(f"{r.level:>5}  {v:>{width}}  {_truncated_text(r.partial_sum)}")
        return lines

    def latex_rows(self):
        """One `level & valuation` row per level, an exact zero as its lower bound."""
        return (f"{r.level} & $\\geq {self.zero_bound}$" if r.exact_zero
                else f"{r.level} & {r.deviation_valuation}" for r in self.rows)


class ConvergenceReport(_LevelReport, Record):
    p: int
    w: Fraction
    target: Fraction
    rows: list[LevelRow]
    zero_bound: int

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "w": exact_text(self.w),
            "target": _truncated_text(self.target),
            "levels": self._levels_json(),
        }

    def render_text(self) -> str:
        lines = [f"p = {self.p}, w = {exact_text(self.w)}, "
                 f"exact value = {_truncated_text(self.target)}"]
        lines.append(f"{'level':>5}  {'v_p(S_m - exact)':>16}  partial sum")
        return "\n".join(lines + self._level_lines(16))


def convergence_report(f, w, p: int, levels: int, M: int) -> ConvergenceReport:
    """Deviation valuations of the partial sums against the exact limit."""
    w = Fraction(w)
    f = _coerce_poly(f)
    sums = partial_sums(f, w, p, levels)
    target = exact_integral(f, w=w)
    return ConvergenceReport(p, w, target, _deviation_rows(sums, target, p), M * ZERO_VALUATION_GUARD)


class ShiftReport(_LevelReport, Record):
    p: int
    w: Fraction
    symbolic_ok: bool
    symbolic_difference: str
    expected: Fraction            # 2 f(0)
    rows: list[LevelRow]          # deviations D_m = w S_m(f1) + S_m(f) - 2 f(0)
    zero_bound: int

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "w": exact_text(self.w),
            "symbolic": "pass" if self.symbolic_ok else "fail",
            "symbolic_difference": self.symbolic_difference,
            "expected": exact_text(self.expected),
            "levels": self._levels_json(),
        }

    def render_text(self) -> str:
        sym = "holds" if self.symbolic_ok else f"FAILS, difference {self.symbolic_difference}"
        lines = [
            f"p = {self.p}, w = {exact_text(self.w)}",
            f"symbolic identity w*I(f(.+1)) + I(f) = 2 f(0): {sym}",
            f"{'level':>5}  {'v_p(D_m)':>9}  combination value",
        ]
        return "\n".join(lines + self._level_lines(9))


def shift_identity_check(f, w, p: int, levels: int, M: int, sums=None) -> ShiftReport:
    """w I(f(.+1)) + I(f) = 2 f(0): symbolic identity plus partial-sum decay.

    The symbolic half is checked with w as an indeterminate, so it covers
    every admissible weight at once; the numeric half tracks the deviation
    D_m = w S_m(f(.+1)) + S_m(f) - 2 f(0) at the given w.  sums, if given,
    is partial_sums(f, w, p, levels), already computed (a convergence
    report's rows hold it), and is used instead of summing f again.
    """
    w = Fraction(w)
    f = _coerce_poly(f)
    f1 = f.shifted(1)
    symbolic = W * exact_integral(f1) + exact_integral(f) - 2 * f.coefficient(0)
    symbolic_ok = symbolic == QW.zero
    sums_f = partial_sums(f, w, p, levels) if sums is None else sums
    sums_f1 = partial_sums(f1, w, p, levels)
    expected = 2 * f.eval_at(0)
    combos = [w * s1 + s0 for s0, s1 in zip(sums_f, sums_f1)]
    rows = _deviation_rows(combos, expected, p)
    return ShiftReport(p, w, symbolic_ok, QW.render(symbolic), expected, rows, M * ZERO_VALUATION_GUARD)
