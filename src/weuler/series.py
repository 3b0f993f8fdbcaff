"""Truncated formal power series over a generic coefficient field.

A series stores its ordinary coefficients c_0..c_{N-1} of t^k together with
the explicit precision N.  The exponential ("umbral") coefficient a_k equals
k! * c_k; the conversion lives in :meth:`Series.umbral_coefficient` so that
products stay plain Cauchy convolutions.

Binary operations truncate silently to the smaller precision; nothing ever
reads past the known range.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ratfunc import Polynomial, binary_power, convolve


class Series:
    """Coefficients c_0..c_{N-1} over `field` with precision N.

    The constructor coerces every coefficient through ``field.of``;
    arithmetic builds its results from field elements with ``_make``.
    A product is ``ratfunc.convolve`` cut at the smaller precision, the
    loop that small polynomial products take, and a series prints as the
    polynomial in t of its coefficients, ``1 + t + 1/2*t^2 + O(t^3)``.
    """

    __slots__ = ("field", "coeffs", "precision")

    def __init__(self, field, coeffs, precision: int | None = None):
        coeffs = [field.of(c) for c in coeffs]
        if precision is None:
            precision = len(coeffs)
        if precision < 1:
            raise ValueError("precision must be at least 1")
        self._fill(field, coeffs, precision)

    def _fill(self, field, coeffs: list, precision: int) -> None:
        if len(coeffs) < precision:
            coeffs.extend([field.zero] * (precision - len(coeffs)))
        else:
            del coeffs[precision:]
        self.field = field
        self.coeffs = tuple(coeffs)
        self.precision = precision

    @classmethod
    def _make(cls, field, coeffs: list, precision: int) -> "Series":
        """Series from coefficients that are field elements already."""
        out = object.__new__(cls)
        out._fill(field, coeffs, precision)
        return out

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, field, precision: int) -> "Series":
        return cls(field, (), precision)

    @classmethod
    def one(cls, field, precision: int) -> "Series":
        return cls(field, (field.one,), precision)

    @classmethod
    def monomial(cls, field, k: int, precision: int) -> "Series":
        if k < 0:
            raise ValueError(f"monomial exponent must be nonnegative, got {k}")
        coeffs = [field.zero] * min(k, precision)
        if k < precision:
            coeffs.append(field.one)
        return cls(field, coeffs, precision)

    # -- accessors --------------------------------------------------------

    def coefficient(self, k: int):
        if k < 0:
            raise ValueError(f"coefficient index must be nonnegative, got {k}")
        if k >= self.precision:
            raise ValueError(f"coefficient {k} beyond precision {self.precision}")
        return self.coeffs[k]

    def umbral_coefficient(self, k: int):
        """a_k = k! * c_k."""
        return self.coefficient(k) * math.factorial(k)

    def order(self) -> int | None:
        """Index of the first nonzero coefficient; None if all known vanish.

        None means the order is at least the precision (the truncation of the
        zero series is indistinguishable from any series of higher order).
        """
        for k, c in enumerate(self.coeffs):
            if c != self.field.zero:
                return k
        return None

    def truncate(self, precision: int) -> "Series":
        if precision < 1:
            raise ValueError("precision must be at least 1")
        if precision > self.precision:
            raise ValueError(f"cannot extend precision {self.precision} to {precision}")
        if precision == self.precision:
            return self
        return Series._make(self.field, list(self.coeffs[:precision]), precision)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.precision == other.precision and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.precision, self.coeffs))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.precision, other.precision)
        return Series._make(self.field, [a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])], n)

    def __sub__(self, other) -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.precision, other.precision)
        return Series._make(self.field, [a - b for a, b in zip(self.coeffs[:n], other.coeffs[:n])], n)

    def __neg__(self) -> "Series":
        return Series._make(self.field, [-a for a in self.coeffs], self.precision)

    def scale(self, c) -> "Series":
        """c * self; an int or Fraction multiplies as it is, as in Polynomial.scale.

        A zero coefficient is kept as it is: it is the field's zero already.
        """
        if not isinstance(c, (int, Fraction)):
            c = self.field.of(c)
        return Series._make(self.field, [a * c if a else a for a in self.coeffs], self.precision)

    def add_constant(self, c) -> "Series":
        c = self.field.of(c)
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] + c
        return Series._make(self.field, coeffs, self.precision)

    def __mul__(self, other) -> "Series":
        if not isinstance(other, Series):
            return self.scale(other)
        n = min(self.precision, other.precision)
        return Series._make(self.field, convolve(self.field, self.coeffs, other.coeffs, n), n)

    def __rmul__(self, other) -> "Series":
        return self.scale(other)

    def mul_tk(self, k: int) -> "Series":
        """Multiply by t^k (exact shift; precision is preserved)."""
        if k < 0:
            raise ValueError(f"shift must be nonnegative, got {k}")
        if k == 0:
            return self
        coeffs = [self.field.zero] * k + list(self.coeffs[: self.precision - k])
        return Series._make(self.field, coeffs, self.precision)

    def __pow__(self, n: int) -> "Series":
        if n < 0:
            raise ValueError("negative series power; use inverse() first")
        return binary_power(self, n, Series.one(self.field, self.precision))

    # -- the umbral toolkit -------------------------------------------------

    def inverse(self) -> "Series":
        """Multiplicative inverse by the triangular recurrence."""
        c0 = self.coeffs[0]
        if c0 == self.field.zero:
            raise ValueError("not invertible (delta or higher order)")
        inv0 = self.field.one / c0
        out = [inv0]
        for n in range(1, self.precision):
            # c_n' = -c_0^{-1} sum_{k=1..n} c_k c_{n-k}'
            out.append(-inv0 * self.field.dot(self.coeffs[1:n + 1], reversed(out)))
        return Series._make(self.field, out, self.precision)

    def compose(self, inner: "Series") -> "Series":
        """self(inner(t)); inner must have zero constant term."""
        if inner.coeffs[0] != inner.field.zero:
            raise ValueError("composition requires a delta series")
        n = min(self.precision, inner.precision)
        inner = inner.truncate(n)
        acc = Series.zero(self.field, n)
        for k in range(n - 1, -1, -1):
            acc = (acc * inner).add_constant(self.coeffs[k])
        return acc

    def reverse(self) -> "Series":
        """Compositional inverse by Lagrange inversion.

        Needs order exactly 1 with an invertible linear coefficient; the
        result rev satisfies self(rev(t)) = rev(self(t)) = t through the
        precision.  With q = t/self(t), [t^k] rev = [t^(k-1)] q^k / k, read
        off a running power of q; ``compose`` stays an independent check.
        """
        zero, n = self.field.zero, self.precision
        if n < 2 or self.coeffs[0] != zero or self.coeffs[1] == zero:
            raise ValueError("reversion requires a delta series with invertible linear term")
        q = Series._make(self.field, list(self.coeffs[1:]), n - 1).inverse()
        power, b = q, [zero, q.coeffs[0]]
        for k in range(2, n):
            power = power * q
            b.append(power.coeffs[k - 1] * Fraction(1, k))
        return Series._make(self.field, b, n)

    def derivative(self) -> "Series":
        """Termwise derivative; the precision drops by one."""
        if self.precision < 2:
            raise ValueError("derivative needs precision at least 2")
        return Series._make(
            self.field,
            [(k + 1) * self.coeffs[k + 1] for k in range(self.precision - 1)],
            self.precision - 1,
        )

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        return f"{Polynomial(self.field, self.coeffs, 't')} + O(t^{self.precision})"

    def __repr__(self) -> str:
        return f"Series[{self.field.name}]({str(self)})"


def exp_series(field, y, precision: int) -> Series:
    """e^{y t}: coefficients y^k / k!."""
    y = field.of(y)
    coeffs = [field.one]
    acc = field.one
    for k in range(1, precision):
        acc = acc * y * Fraction(1, k)
        coeffs.append(acc)
    return Series(field, coeffs, precision)
