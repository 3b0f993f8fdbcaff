"""Exact arithmetic: rationals, dense polynomials, and the field Q(w).

Scalars are ``fractions.Fraction`` throughout.  ``Polynomial`` is the one
dense polynomial type: in w over Q (the numerators and denominators of
Q(w)) and in x over Q or Q(w) (the Euler polynomials).  ``WRational`` keeps
a unique canonical form (gcd-reduced, monic denominator), so ``==`` on two
values decides equality in the field Q(w).
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction


def binomial(n: int, k: int) -> int:
    """C(n, k), zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def binary_power(base, n: int, one):
    """base^n for n >= 0 by square-and-multiply, starting from `one`.

    Squares once per bit of n, the top bit included, so the number of
    products depends only on n.
    """
    out = one
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


# ---------------------------------------------------------------------------
# Dense polynomials over a coefficient field

# A polynomial product of at least this many coefficient products
# (len(a) * len(b)) sums each coefficient through field.dot; a smaller one
# adds term by term in a double loop.  Both take the same products in the
# same order.  Over Q, dot takes about the loop's time when one operand is
# a constant, about 0.6x of it at 2 x 8 coefficients and 0.2x at 32 x 32
# (BENCH_16.json).  The cutoff sits above every product of `check paper.uid
# --max-n 10` (at most 9 x 10), so that command keeps its work until the
# benchmark can time commands shorter than its speed monitor's first unit
# (ROADMAP item 1).
DOT_MIN_PRODUCTS = 100


def _strip(coeffs: list) -> tuple:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _make(field, coeffs: list, var: str) -> "Polynomial":
    out = object.__new__(Polynomial)
    out.field, out.coeffs, out.var = field, _strip(coeffs), var
    return out


class Polynomial:
    """Dense polynomial over a coefficient field adapter (``QQ`` or ``QW``).

    ``coeffs[j]`` is the coefficient of ``var^j``.  The zero polynomial has
    an empty coefficient tuple; otherwise the last coefficient is nonzero.
    Polynomials in w (over QQ: the numerators and denominators of Q(w))
    render descending, ``w^2 - 4*w + 1``; polynomials in x render ascending
    through ``field.render``, ``1/2 + x^2``.

    The constructor coerces every coefficient through ``field.of``.
    Arithmetic combines coefficients that are field elements already, so
    its results are built without coercing them again.
    """

    __slots__ = ("field", "coeffs", "var")

    def __init__(self, field, coeffs=(), var: str = "x"):
        self.field = field
        self.coeffs = _strip([field.of(c) for c in coeffs])
        self.var = var

    def _new(self, coeffs: list) -> "Polynomial":
        """Same field and variable; `coeffs` are field elements already."""
        return _make(self.field, coeffs, self.var)

    @classmethod
    def zero(cls, field) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def monomial(cls, field, n: int, coeff=1) -> "Polynomial":
        if n < 0:
            raise ValueError(f"monomial exponent must be nonnegative, got {n}")
        return cls(field, [field.zero] * n + [coeff])

    @classmethod
    def variable(cls, field) -> "Polynomial":
        return cls(field, (field.zero, field.one))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (self.field.one,)

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else self.field.zero

    def coefficient(self, j: int):
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return self.field.zero

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.var == other.var and self.coeffs == other.coeffs
        try:
            other = self._promote(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a polynomial of degree <= 0 equals its constant, so hashes as it
        return hash(self.coeffs if len(self.coeffs) > 1 else self.leading)

    def _promote(self, other) -> "Polynomial":
        """`other` over this field: a polynomial in the same variable, else a constant."""
        if isinstance(other, Polynomial) and other.var == self.var:
            if other.field is self.field:
                return other
            return Polynomial(self.field, other.coeffs, self.var)
        return self._new([self.field.of(other)])

    def __neg__(self) -> "Polynomial":
        return self._new([-c for c in self.coeffs])

    def __add__(self, other) -> "Polynomial":
        a, b = self.coeffs, self._promote(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return self._new(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._promote(other))

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scale(other)
        a, b = self.coeffs, self._promote(other).coeffs
        if not a or not b:
            return self._new([])
        if len(a) * len(b) < DOT_MIN_PRODUCTS:
            out = [self.field.zero] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b, i):
                        if cb:
                            out[j] += ca * cb
            return self._new(out)
        # coefficient k is one field.dot of a_lo, a_lo+1, ... with b_(k-lo),
        # b_(k-lo-1), ..., where lo = max(0, k - last)
        dot, rb, last = self.field.dot, b[::-1], len(b) - 1
        return self._new([dot(a[max(0, k - last):k + 1], rb[max(0, last - k):])
                          for k in range(len(a) + last)])

    def scale(self, c) -> "Polynomial":
        """c * self.  An int or Fraction multiplies the coefficients as it is:
        over Q(w) that takes WRational's scalar product, not a promotion."""
        if not isinstance(c, (int, Fraction)):
            c = self.field.of(c)
        if not c:
            return self._new([])
        return self._new([a * c for a in self.coeffs])

    __rmul__ = scale

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        return binary_power(self, n, self._new([self.field.one]))

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return self._new([]), self
        quot = [self.field.zero] * (dq + 1)
        inv_lead = self.field.one / other.leading
        for i in range(dq, -1, -1):
            c = rem[i + other.degree] * inv_lead
            if c:
                quot[i] = c
                for j, b in enumerate(other.coeffs, i):
                    rem[j] -= c * b
        return self._new(quot), self._new(rem)

    def divexact(self, other: "Polynomial") -> "Polynomial":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError(f"inexact polynomial division by {other}")
        return q

    def eval_at(self, value):
        value = self.field.of(value)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def derivative(self) -> "Polynomial":
        return self._new([j * c for j, c in enumerate(self.coeffs[1:], 1)])

    def substitute(self, inner: "Polynomial") -> "Polynomial":
        """p(inner) by Horner."""
        acc = self._new([])
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def shifted(self, y) -> "Polynomial":
        """p(var + y)."""
        return self.substitute(self._new([self.field.of(y), self.field.one]))

    def __str__(self) -> str:
        if self.var == "w":
            return poly_text(self.coeffs)
        if not self.coeffs:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            text = self.field.render(c)
            if j == 0:
                parts.append(text)
            else:
                if " + " in text or " - " in text:
                    text = f"({text})"
                xj = self.var if j == 1 else f"{self.var}^{j}"
                parts.append(xj if text == "1" else f"{text}*{xj}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial[{self.field.name}]({self})"

    def to_json(self) -> list[str]:
        return [self.field.render(c) for c in self.coeffs]

    def latex(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for j in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[j]
            if not c:
                continue
            ctex = self.field.latex(c)
            if j == 0:
                body = ctex
            else:
                xj = self.var if j == 1 else f"{self.var}^{{{j}}}"
                body = xj if ctex == "1" else f"{ctex} {xj}"
            parts.append(body)
        return " + ".join(parts)


# Old name of Polynomial.  Only bench/tracing.py reads it, for its spans on
# WPolynomial.__mul__ and .divexact; it goes (item 13) once item 1 renames those spans.
WPolynomial = Polynomial


def _wpoly(coeffs) -> Polynomial:
    """Polynomial in w over Q from coefficients that are Fractions already."""
    return _make(QQ, list(coeffs), "w")


def exact_text(value) -> str:
    """str(value) of an int or Fraction of any size.  Past int_max_str_digits
    str raises, and Decimal renders the integers exactly instead."""
    try:
        return str(value)
    except ValueError:
        value = Fraction(value)
        num = str(decimal.Decimal(value.numerator))
        return num if value.denominator == 1 else f"{num}/{decimal.Decimal(value.denominator)}"


def join_signed(terms) -> str:
    """Join (negative, body) pairs as ``a - b + c``; ``0`` when there are none."""
    parts: list[str] = []
    for negative, body in terms:
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts) if parts else "0"


def poly_text(coeffs, latex: bool = False) -> str:
    """Render a polynomial in w descending: ``w^2 - 4*w + 1/2``, or as LaTeX
    ``w^{2} - 4 w + \\frac{1}{2}``."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        mag_text = QQ.latex(mag) if latex else exact_text(mag)
        if k == 0:
            body = mag_text
        else:
            v = "w" if k == 1 else (f"w^{{{k}}}" if latex else f"w^{k}")
            body = v if mag == 1 else f"{mag_text}{' ' if latex else '*'}{v}"
        terms.append((c < 0, body))
    return join_signed(terms)


# gcd over Q[w] is done on primitive integer polynomials to keep the
# intermediate coefficients small (primitive pseudo-remainder sequence).


def _int_primitive(coeffs: list[int]) -> list[int]:
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
    if g == 0:
        return coeffs
    if coeffs[-1] < 0:
        g = -g
    return [c // g for c in coeffs]


def _integer_row(coeffs) -> tuple[list[int], int]:
    """(ints, d): Fraction coefficients as integers over the lcm d of their
    denominators, so coeffs[i] == Fraction(ints[i], d)."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _to_int_primitive(p: Polynomial) -> list[int]:
    if p.is_zero():
        return []
    return _int_primitive(_integer_row(p.coeffs)[0])


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    # pseudo-remainder of a by b (b nonzero, ints, little-endian)
    r = list(a)
    lb = b[-1]
    db = len(b) - 1
    while len(r) - 1 >= db and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            break
        lr = r[-1]
        shift = len(r) - 1 - db
        r = [c * lb for c in r]
        for j, bc in enumerate(b):
            r[shift + j] -= lr * bc
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd in Q[w]."""
    if a.is_zero() and b.is_zero():
        return _wpoly(())
    A, B = _to_int_primitive(a), _to_int_primitive(b)
    while B:
        A, B = B, _int_primitive(_int_prem(A, B))
    return _wpoly(Fraction(c, A[-1]) for c in A)


def _poly_content(p: Polynomial) -> Fraction:
    """Rational content carrying the sign of the leading coefficient."""
    if p.is_zero():
        return Fraction(0)
    num_gcd = 0
    den_lcm = 1
    for c in p.coeffs:
        num_gcd = math.gcd(num_gcd, c.numerator)
        den_lcm = math.lcm(den_lcm, c.denominator)
    content = Fraction(num_gcd, den_lcm)
    return -content if p.leading < 0 else content


# cached coefficient rows of (1 + w)^m, used both for fast reduction and for
# the factored denominator rendering
_ONE_PLUS_W_ROWS: dict[int, tuple[Fraction, ...]] = {}


def _one_plus_w_row(m: int) -> tuple[Fraction, ...]:
    row = _ONE_PLUS_W_ROWS.get(m)
    if row is None:
        row = tuple(Fraction(math.comb(m, i)) for i in range(m + 1))
        _ONE_PLUS_W_ROWS[m] = row
    return row


def one_plus_w_pow(m: int) -> Polynomial:
    return _wpoly(_one_plus_w_row(m))


def _as_one_plus_w_power(p: Polynomial) -> int | None:
    """m such that p == (1 + w)^m with m >= 1, else None."""
    m = p.degree
    if m < 1 or p.coeffs[0] != 1 or p.leading != 1:
        return None
    return m if p.coeffs == _one_plus_w_row(m) else None


# ---------------------------------------------------------------------------
# Coefficient-field adapters shared by the polynomial and series layers.
# `of` coerces a value into the field; it returns field elements unchanged.


class RationalField:
    """Plain rationals Q (elements are fractions.Fraction)."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def of(value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, WRational):
            if not value.is_polynomial() or value.num.degree > 0:
                raise ValueError(f"{value} is not a rational constant")
            return value.num.eval_at(0)
        return Fraction(value)

    @staticmethod
    def dot(xs, ys) -> Fraction:
        """sum x*y, normalised once.

        Each product is an integer pair; the numerators are summed over the
        lcm of the denominators and reduced by one gcd, where adding
        Fractions one by one would reduce every partial sum.
        """
        nums, dens = [], []
        for x, y in zip(xs, ys):
            num = x.numerator * y.numerator
            if num:
                nums.append(num)
                dens.append(x.denominator * y.denominator)
        if not nums:
            return Fraction(0)
        den = 1
        for d in dens:
            if den % d:     # most divide the running lcm: a remainder, not a gcd
                den = den // math.gcd(den, d) * d
        return Fraction(sum(num * (den // d) for num, d in zip(nums, dens)), den)

    @staticmethod
    def render(value) -> str:
        return exact_text(value)

    @staticmethod
    def latex(value: Fraction) -> str:
        if value.denominator == 1:
            return exact_text(value.numerator)
        sign = "-" if value < 0 else ""
        return (f"{sign}\\frac{{{exact_text(abs(value.numerator))}}}"
                f"{{{exact_text(value.denominator)}}}")


QQ = RationalField()


# ---------------------------------------------------------------------------
# The field Q(w)

_W_ZERO = _wpoly(())
_W_ONE = _wpoly((Fraction(1),))


def _div_w_plus_one(coeffs) -> list | None:
    """The quotient of a_0 + ... + a_d w^d by w + 1 when it divides, else None.

    One Ruffini pass at w = -1: q_{d-1} = a_d, q_{i-1} = a_i - q_i, and the
    remainder a_0 - q_0 is the value at -1.
    """
    quot = [coeffs[-1]]
    for a in coeffs[-2:0:-1]:
        quot.append(a - quot[-1])
    if coeffs[0] != quot[-1]:
        return None
    quot.reverse()
    return quot


def _as_wpoly(value) -> Polynomial:
    if isinstance(value, Polynomial) and value.var == "w":
        return value
    if isinstance(value, (int, Fraction)):
        return _wpoly((Fraction(value),))
    raise TypeError(f"cannot promote {type(value).__name__} to a polynomial in w")


class WRational:
    """Element of Q(w) in canonical form.

    num/den are coprime in Q[w] and den is monic, so structural equality of
    the coefficient tuples is equality in the field.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        num = _as_wpoly(num)
        den = _as_wpoly(den)
        if den.is_zero():
            raise ZeroDivisionError("division by zero")
        if num.is_zero():
            self.num, self.den = _W_ZERO, _W_ONE
            return
        if den.degree == 0:
            if den.leading != 1:
                num = num.scale(1 / den.leading)
            self.num, self.den = num, _W_ONE
            return
        m = _as_one_plus_w_power(den)
        if m is not None:
            # hot path: strip shared (1 + w) factors by synthetic division on
            # the numerator's integer row, so a pass subtracts ints, not Fractions
            ints, d = _integer_row(num.coeffs)
            while m > 0 and len(ints) > 1:
                quot = _div_w_plus_one(ints)
                if quot is None:
                    break
                ints = quot
                m -= 1
            if len(ints) < len(num.coeffs):
                num = _wpoly(Fraction(c, d) for c in ints)
            self.num = num
            self.den = one_plus_w_pow(m) if m else _W_ONE
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num.divexact(g)
            den = den.divexact(g)
        if den.leading != 1:
            num = num.scale(1 / den.leading)
            den = den.scale(1 / den.leading)
        self.num, self.den = num, den

    # -- constructors -------------------------------------------------

    @classmethod
    def promote(cls, value) -> "WRational":
        if isinstance(value, WRational):
            return value
        if isinstance(value, (int, Fraction)) or (isinstance(value, Polynomial) and value.var == "w"):
            return cls(value)
        raise TypeError(f"cannot promote {type(value).__name__} to WRational")

    # -- predicates and accessors -------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        try:
            other = WRational.promote(other)
        except TypeError:
            return NotImplemented
        return self.num.coeffs == other.num.coeffs and self.den.coeffs == other.den.coeffs

    def __hash__(self):
        # a polynomial in w equals its numerator (a constant, its Fraction)
        return hash(self.num) if self.den.is_one() else hash((self.num.coeffs, self.den.coeffs))

    # -- field operations ----------------------------------------------

    def __add__(self, other) -> "WRational":
        try:
            other = WRational.promote(other)
        except TypeError:
            return NotImplemented
        if self.den.coeffs == other.den.coeffs:
            # no cross products over a shared denominator; __init__ still reduces
            return WRational(self.num + other.num, self.den)
        return WRational(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "WRational":
        return _canonical(-self.num, self.den)

    def __sub__(self, other) -> "WRational":
        try:
            other = WRational.promote(other)
        except TypeError:
            return NotImplemented
        if self.den.coeffs == other.den.coeffs:
            return WRational(self.num - other.num, self.den)
        return WRational(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other) -> "WRational":
        return (-self) + other

    def __mul__(self, other) -> "WRational":
        if isinstance(other, (int, Fraction)):
            # a nonzero rational scalar keeps num/den coprime and den monic
            if not other:
                return _canonical(_W_ZERO, _W_ONE)
            return _canonical(self.num.scale(other), self.den)
        try:
            other = WRational.promote(other)
        except TypeError:
            return NotImplemented
        return WRational(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "WRational":
        try:
            other = WRational.promote(other)
        except TypeError:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        return WRational(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "WRational":
        return WRational.promote(other) / self

    def __pow__(self, n: int) -> "WRational":
        if n < 0:
            return (WRational(1) / self) ** (-n)
        return binary_power(self, n, WRational(1))

    def eval_at(self, w0) -> Fraction:
        """Exact value at w = w0; raises on a pole."""
        w0 = Fraction(w0)
        d = self.den.eval_at(w0)
        if d == 0:
            raise ValueError(f"pole at w = {w0}: denominator {self.den} vanishes")
        return self.num.eval_at(w0) / d

    # -- rendering ------------------------------------------------------

    def __str__(self) -> str:
        if self.num.is_zero():
            return "0"
        # fold the numerator content's denominator into the printed one,
        # so w/2 renders as w/2 rather than 1/2*w
        q = _poly_content(self.num).denominator
        num_text = _numerator_text(
            self.num.scale(q), parenthesize_sums=q > 1 or not self.den.is_one()
        )
        if self.den.is_one():
            return num_text if q == 1 else f"{num_text}/{exact_text(q)}"
        den_text = _denominator_text(self.den)
        if q > 1:
            den_text = f"({exact_text(q)}*{den_text})"
        return f"{num_text}/{den_text}"

    def __repr__(self) -> str:
        return f"WRational({str(self)!r})"

    def latex(self) -> str:
        num = poly_text(self.num.coeffs, latex=True)
        if self.den.is_one():
            return num
        m = _as_one_plus_w_power(self.den)
        den = (f"(1 + w)^{{{m}}}" if m and m > 1
               else "(1 + w)" if m else poly_text(self.den.coeffs, latex=True))
        return f"\\frac{{{num}}}{{{den}}}"


def _canonical(num: Polynomial, den: Polynomial) -> WRational:
    """WRational from a num/den pair that is in canonical form already."""
    out = object.__new__(WRational)
    out.num, out.den = num, den
    return out


def _numerator_text(num: Polynomial, parenthesize_sums: bool) -> str:
    # factored form: content * w^m * primitive, e.g. 2*w*(w - 1)
    content = _poly_content(num)
    reduced = num.scale(1 / content)
    m = 0
    while reduced.coeffs and reduced.coeffs[0] == 0:
        reduced = reduced._new(list(reduced.coeffs[1:]))
        m += 1
    factors: list[str] = []
    mag = abs(content)
    if m == 0 and reduced.is_one() or mag != 1:
        factors.append(exact_text(mag))
    if m >= 1:
        factors.append("w" if m == 1 else f"w^{m}")
    if not reduced.is_one():
        body = poly_text(reduced.coeffs)
        if len([c for c in reduced.coeffs if c]) > 1:
            if factors or parenthesize_sums or content < 0:
                body = f"({body})"
        factors.append(body)
    text = "*".join(factors)
    return f"-{text}" if content < 0 else text


def _denominator_text(den: Polynomial) -> str:
    m = _as_one_plus_w_power(den)
    if m is not None:
        return "(1 + w)" if m == 1 else f"(1 + w)^{m}"
    if len([c for c in den.coeffs if c]) == 1:
        return poly_text(den.coeffs)
    return f"({poly_text(den.coeffs)})"


W = WRational(_wpoly((Fraction(0), Fraction(1))))


class WRationalField:
    """The rational-function field Q(w)."""

    name = "Q(w)"
    zero = WRational(0)
    one = WRational(1)

    @staticmethod
    def of(value) -> WRational:
        return WRational.promote(value)

    @staticmethod
    def dot(xs, ys) -> WRational:
        """sum x*y, added left to right from zero.

        A term whose x or y is zero is skipped, so a polynomial product
        makes the same WRational products and adds on either side of
        DOT_MIN_PRODUCTS.
        """
        acc = WRationalField.zero
        for x, y in zip(xs, ys):
            if x and y:
                acc = acc + x * y
        return acc

    @staticmethod
    def render(value) -> str:
        return str(value)

    @staticmethod
    def latex(value: WRational) -> str:
        return value.latex()


QW = WRationalField()
