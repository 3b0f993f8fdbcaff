"""Fixed-precision p-adic numbers and truncated fermionic sums.

Partial sums S_m = sum_{a < p^m} w^a f(a) (-1)^a are computed in exact
rational arithmetic and only reduced p-adically for reporting; the exact
limits come from the weighted Euler numbers, never from a second derivation
here.  Weights must satisfy |1-w|_p < 1 and p must be an odd prime.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .euler import weighted_euler_numbers
from .ratfunc import QQ, QW, W, Polynomial

# reported valuation for a deviation that is exactly zero: a true infinity is
# unrepresentable, so stand in with a sentinel well above any honest valuation
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


class PadicNumber:
    """p^v * unit with the unit known modulo p^M (or an exact zero).

    The represented value is known modulo p^(v+M).  Exact zeros carry
    valuation None; their precision records the modulus they are zero to.
    """

    __slots__ = ("p", "valuation", "unit", "precision")

    def __init__(self, p: int, valuation: Optional[int], unit: int, precision: int):
        _require_odd_prime(p)
        if precision < 1:
            raise ValueError("precision must be at least 1")
        if valuation is None:
            unit = 0
        else:
            modulus = p ** precision
            unit %= modulus
            if unit == 0 or unit % p == 0:
                raise ValueError("unit must be coprime to p")
        self.p = p
        self.valuation = valuation
        self.unit = unit
        self.precision = precision

    @classmethod
    def zero(cls, p: int, precision: int) -> "PadicNumber":
        return cls(p, None, 0, precision)

    def is_zero(self) -> bool:
        return self.valuation is None

    def abs_precision(self) -> int:
        """The value is known modulo p to this power."""
        if self.valuation is None:
            return self.precision
        return self.valuation + self.precision

    def _shifted_int(self, base: int, k: int) -> int:
        """Integer value of self / p^base modulo p^(k - base).

        Keeps everything in exact integers even for negative valuations;
        requires base <= valuation and k <= abs_precision().
        """
        if k > self.abs_precision():
            raise ValueError("not enough precision")
        if self.valuation is None:
            return 0
        if self.valuation < base:
            raise ValueError("base exceeds valuation")
        return (self.p ** (self.valuation - base) * self.unit) % self.p ** (k - base)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PadicNumber):
            return NotImplemented
        if self.p != other.p:
            return False
        k = min(self.abs_precision(), other.abs_precision())
        vals = [x.valuation for x in (self, other) if x.valuation is not None]
        base = min(vals) if vals else 0
        if k <= base:
            return True  # both values vanish modulo p^k
        return self._shifted_int(base, k) == other._shifted_int(base, k)

    def __hash__(self):
        raise TypeError("unhashable: equality is precision-relative")

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        if self.p != other.p:
            raise ValueError("mixed primes")
        p = self.p
        k = min(self.abs_precision(), other.abs_precision())
        vals = [x.valuation for x in (self, other) if x.valuation is not None]
        base = min(vals) if vals else 0
        if k <= base:
            return PadicNumber.zero(p, max(k, 1))
        raw = (self._shifted_int(base, k) + other._shifted_int(base, k)) % p ** (k - base)
        res = _from_residue(raw, p, k - base)
        if res.valuation is None:
            return PadicNumber.zero(p, max(k, 1))
        return PadicNumber(p, res.valuation + base, res.unit, res.precision)

    def __neg__(self) -> "PadicNumber":
        if self.valuation is None:
            return self
        return PadicNumber(self.p, self.valuation, self.p ** self.precision - self.unit, self.precision)

    def __sub__(self, other: "PadicNumber") -> "PadicNumber":
        return self + (-other)

    def __mul__(self, other: "PadicNumber") -> "PadicNumber":
        if self.p != other.p:
            raise ValueError("mixed primes")
        p = self.p
        if self.is_zero() or other.is_zero():
            zero_prec = min(
                self.precision + (other.valuation or 0),
                other.precision + (self.valuation or 0),
            )
            return PadicNumber.zero(p, max(zero_prec, 1))
        m = min(self.precision, other.precision)
        return PadicNumber(p, self.valuation + other.valuation, self.unit * other.unit % p ** m, m)

    def __str__(self) -> str:
        if self.valuation is None:
            return f"O({self.p}^{self.precision})"
        return f"{self.p}^{self.valuation} * {self.unit} + O({self.p}^{self.abs_precision()})"

    def __repr__(self) -> str:
        return f"PadicNumber({str(self)})"


def _from_residue(raw: int, p: int, abs_prec: int) -> PadicNumber:
    """Classify an integer known modulo p^abs_prec."""
    if raw % p ** abs_prec == 0:
        return PadicNumber.zero(p, abs_prec)
    v = vp_int(raw, p)
    return PadicNumber(p, v, raw // p ** v, abs_prec - v)


def padic_from_rational(r, p: int, M: int) -> PadicNumber:
    """Exact reduction: valuation plus unit modulo p^M."""
    _require_odd_prime(p)
    if M < 1:
        raise ValueError("precision must be at least 1")
    r = Fraction(r)
    if r == 0:
        return PadicNumber.zero(p, M)
    vn = vp_int(r.numerator, p)
    vd = vp_int(r.denominator, p)
    modulus = p ** M
    num_unit = abs(r.numerator) // p ** vn
    den_unit = r.denominator // p ** vd
    unit = num_unit * pow(den_unit, -1, modulus) % modulus
    if r < 0:
        unit = modulus - unit
    return PadicNumber(p, vn - vd, unit, M)


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


def fermionic_partial_sum(f, w, p: int, level: int, M: int) -> PadicNumber:
    """S_level reduced to a p-adic number of precision M."""
    return padic_from_rational(partial_sums(f, w, p, level)[-1], p, M)


def exact_integral(f, w=None):
    """sum_j f_j E_{j,w}: the limit value, by linearity.

    With w = None the result is symbolic in Q(w); otherwise exact in Q.
    """
    f = _coerce_poly(f)
    field = QW if w is None else QQ
    numbers = weighted_euler_numbers(f.degree + 1 if f.degree >= 0 else 1, w=w)
    acc = field.zero
    for j, c in enumerate(f.coeffs):
        acc = acc + c * numbers[j]
    return acc


def _exact_text(r: Fraction) -> str:
    """str(r) for any size: Decimal renders an int exactly, with no int_max_str_digits limit."""
    num = str(decimal.Decimal(r.numerator))
    return num if r.denominator == 1 else f"{num}/{decimal.Decimal(r.denominator)}"


def _truncated_text(r: Fraction) -> str:
    """Exact text of r, cut to its first and last 12 characters when over 48."""
    text = _exact_text(r)
    if len(text) <= 48:
        return text
    return f"{text[:12]}...{text[-12:]} ({len(text)} chars)"


@dataclass
class LevelRow:
    level: int
    partial_sum: Fraction
    deviation_valuation: int
    exact_zero: bool

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "partial_sum": _truncated_text(self.partial_sum),
            "valuation": self.deviation_valuation,
            "exact_zero": self.exact_zero,
        }


def _deviation_rows(sums: list[Fraction], target: Fraction, p: int, M: int) -> list[LevelRow]:
    rows = []
    for m, s in enumerate(sums, start=1):
        dev = s - target
        if dev == 0:
            rows.append(LevelRow(m, s, M * ZERO_VALUATION_GUARD, True))
        else:
            rows.append(LevelRow(m, s, vp_fraction(dev, p), False))
    return rows


class _LevelReport:
    """What the two reports share: their per-level deviation rows."""

    rows: list[LevelRow]

    @property
    def valuations(self) -> list[int]:
        return [r.deviation_valuation for r in self.rows]

    def _level_lines(self, width: int) -> list[str]:
        lines = []
        for r in self.rows:
            v = f">= {r.deviation_valuation}" if r.exact_zero else str(r.deviation_valuation)
            lines.append(f"{r.level:>5}  {v:>{width}}  {_truncated_text(r.partial_sum)}")
        return lines


@dataclass
class ConvergenceReport(_LevelReport):
    p: int
    w: Fraction
    target: Fraction
    rows: list[LevelRow]

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "w": str(self.w),
            "target": _truncated_text(self.target),
            "levels": [r.to_json() for r in self.rows],
        }

    def render_text(self) -> str:
        lines = [f"p = {self.p}, w = {self.w}, exact value = {_truncated_text(self.target)}"]
        lines.append(f"{'level':>5}  {'v_p(S_m - exact)':>16}  partial sum")
        return "\n".join(lines + self._level_lines(16))


def convergence_report(f, w, p: int, levels: int, M: int) -> ConvergenceReport:
    """Deviation valuations of the partial sums against the exact limit."""
    w = Fraction(w)
    f = _coerce_poly(f)
    sums = partial_sums(f, w, p, levels)
    target = exact_integral(f, w=w)
    return ConvergenceReport(p, w, target, _deviation_rows(sums, target, p, M))


@dataclass
class ShiftReport(_LevelReport):
    p: int
    w: Fraction
    symbolic_ok: bool
    symbolic_difference: str
    expected: Fraction            # 2 f(0)
    rows: list[LevelRow]          # deviations D_m = w S_m(f1) + S_m(f) - 2 f(0)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "w": str(self.w),
            "symbolic": "pass" if self.symbolic_ok else "fail",
            "symbolic_difference": self.symbolic_difference,
            "expected": str(self.expected),
            "levels": [r.to_json() for r in self.rows],
        }

    def render_text(self) -> str:
        sym = "holds" if self.symbolic_ok else f"FAILS, difference {self.symbolic_difference}"
        lines = [
            f"p = {self.p}, w = {self.w}",
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
    rows = _deviation_rows(combos, expected, p, M)
    return ShiftReport(p, w, symbolic_ok, QW.render(symbolic), expected, rows)
