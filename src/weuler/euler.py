"""Weighted Euler numbers and polynomials, with the identity verification suite.

Everything is generated by the exponential generating function
(2/(w e^t + 1))^k e^{xt}: numbers are the x = 0 values, polynomials carry the
binomial structure, and order k means the k-th power of the base factor.  A
triangular recurrence provides a second, independent route to the numbers;
the two must agree exactly in Q(w).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from ._record import Record
from .ratfunc import QQ, QW, W, Polynomial, binomial
from .series import Series
from .umbral import apply_functional, pairing


def field_and_w(w):
    """(field, value of w): Q(w) and its indeterminate when w is None, else Q and w0.

    The one place a weight becomes a field.  w = -1 is refused: there
    g = (w e^t + 1)/2 has constant term 0, so no generating function exists.
    """
    if w is None:
        return QW, W
    w0 = Fraction(w)
    if w0 == -1:
        raise ValueError("w = -1 is a pole of the generating function")
    return QQ, w0


def gf_denominator(precision: int, w=None) -> Series:
    """g = (w e^t + 1)/2 as a truncated series."""
    field, wv = field_and_w(w)
    half = Fraction(1, 2)
    coeffs = [(wv + 1) * half]
    fact = 1
    for k in range(1, precision):
        fact *= k
        coeffs.append(wv * Fraction(1, 2 * fact))
    return Series(field, coeffs)


def weighted_euler_gf(precision: int, order: int = 1, w=None) -> Series:
    """(2/(w e^t + 1))^order; the numbers are n! times its coefficients."""
    return TableChain(precision, w).power(order)


def weighted_euler_numbers(count: int, w=None) -> list:
    """E_{n,w} by the triangular recurrence, independent of series inversion.

    From (w e^t + 1) * GF = 2: (1+w) E_n = 2 [n=0] - w sum_{j<n} C(n,j) E_j.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    field, wv = field_and_w(w)
    numbers = []
    for n in range(count):
        acc = field.of(2) if n == 0 else field.zero
        if n:
            s = field.zero
            for j in range(n):
                s = s + binomial(n, j) * numbers[j]
            acc = acc - wv * s
        numbers.append(acc / (wv + 1))
    return numbers


def _polys_from_numbers(field, numbers: Sequence) -> list[Polynomial]:
    polys = []
    for n in range(len(numbers)):
        coeffs = [binomial(n, l) * numbers[n - l] for l in range(n + 1)]
        polys.append(Polynomial(field, coeffs))
    return polys


def classical_euler_polys(count: int) -> list[Polynomial]:
    """Classical Euler polynomials over Q by the reflection recurrence.

    E_n(x) = x^n - (1/2) sum_{j<n} C(n,j) E_j(x); deliberately avoids the
    generating-function machinery so it can serve as an independent oracle.
    """
    polys: list[Polynomial] = []
    half = Fraction(1, 2)
    for n in range(count):
        p = Polynomial.monomial(QQ, n)
        for j in range(n):
            p = p - polys[j].scale(binomial(n, j) * half)
        polys.append(p)
    return polys


class EulerTable:
    """The numbers E^{(k)}_{n,w} of one order, symbolic or evaluated at w0.

    Order, numbers and weight are all a table holds: the field is Q(w) when
    w0 is None and Q otherwise, and the polynomials
    p_n = sum_l C(n,l) E_{n-l} x^l are built from the numbers on first read,
    so a table of numbers alone never builds them.  The constructor stores
    the numbers it is given (tests inject faults through it); build() reads
    them from a TableChain, which checks the structural invariant.
    """

    __slots__ = ("order", "numbers", "w0", "_polys")

    def __init__(self, order: int, numbers: Sequence, w0=None):
        self.order = order
        self.numbers = tuple(numbers)
        self.w0 = w0
        self._polys = None

    @classmethod
    def build(cls, count: int, order: int = 1, w=None) -> "EulerTable":
        """The order-k table from the generating function, for n < count.

        One inverse and order - 1 products; a caller that needs several
        orders at one count and weight reads them from one TableChain.
        """
        return TableChain(count, w).table(order)

    @property
    def field(self):
        return field_and_w(self.w0)[0]

    @property
    def polys(self) -> tuple[Polynomial, ...]:
        if self._polys is None:
            self._polys = tuple(_polys_from_numbers(self.field, self.numbers))
        return self._polys

    def evaluate(self, w0) -> "EulerTable":
        """Specialize a symbolic table's numbers at w = w0."""
        if self.w0 is not None:
            raise ValueError("table is already evaluated")
        w0 = Fraction(w0)
        return EulerTable(self.order, [r.eval_at(w0) for r in self.numbers], w0)

    def with_perturbed_number(self, n: int) -> "EulerTable":
        """Fault injection: add one to E_n; the polynomials follow from the numbers."""
        numbers = list(self.numbers)
        numbers[n] = numbers[n] + self.field.one
        return EulerTable(self.order, numbers, self.w0)


class TableChain:
    """GF^k = (2/(w e^t + 1))^k and its table, for every order k at one count and weight.

    The chain decides its field and the value of w once, and keeps
    g = (w e^t + 1)/2, which it inverts once.  The first time order k is asked
    for, GF^k is made from GF^(k-1) by one product with GF, so orders 1..k
    cost one inverse and k - 1 products, and only orders up to the highest
    one asked for are made.  The powers come from the series alone, never
    from a table's numbers, so no table handed around (a perturbed one, say)
    can leak into a higher order.
    """

    def __init__(self, count: int, w=None):
        if count < 1:
            raise ValueError("count must be at least 1")
        self.count = count
        self.field, self.w = field_and_w(w)
        self.w0 = None if w is None else self.w
        self.g = gf_denominator(count, w)
        self._powers: list[Series] = []          # GF^1, GF^2, ... as far as asked
        self._tables: dict[int, EulerTable] = {}

    def power(self, order: int) -> Series:
        if order < 1:
            raise ValueError("order must be at least 1")
        if not self._powers:
            self._powers.append(self.g.inverse())
        while len(self._powers) < order:
            self._powers.append(self._powers[-1] * self._powers[0])
        return self._powers[order - 1]

    def table(self, order: int) -> EulerTable:
        table = self._tables.get(order)
        if table is None:
            power = self.power(order)
            numbers = [power.umbral_coefficient(n) for n in range(self.count)]
            # p_n = sum_l C(n,l) E_{n-l} x^l has constant term E_n and leading
            # coefficient E_0, so its degree law is the one law E_0 = (2/(1+w))^k
            if numbers[0] != (self.field.of(2) / (self.w + 1)) ** order:
                raise AssertionError("degree law broken at n=0")
            table = self._tables[order] = EulerTable(order, numbers, self.w0)
        return table


# ---------------------------------------------------------------------------
# Convolution identity


def binomial_convolution(a: Sequence, b: Sequence, field) -> list:
    """c_n = sum_i C(n, i) a_i b_(n-i) for n < min(len(a), len(b)), one field.dot per n.

    The c_n are the numbers of the product of the exponential generating
    functions whose numbers are a and b.
    """
    return [field.dot([binomial(n, i) * a[i] for i in range(n + 1)], b[n::-1])
            for n in range(min(len(a), len(b)))]


def order_k_multinomial(order: int, n: int, w=None):
    """Both sides of E^{(k)}_{n,w} = sum multinomial(n; i's) prod_j E_{i_j,w}.

    The left side comes from the order-k generating function.  The right is
    the sum over compositions of n into `order` parts, grouped by its last
    part n - i: those terms add up to C(n, i) r_i E_{n-i,w}, where r_i is the
    sum for order - 1 parts at i.  So the right side is the order-1 numbers
    binomially convolved with themselves order - 1 times.
    """
    chain = TableChain(n + 1, w)
    lhs = chain.table(order).numbers[n]
    row = numbers = weighted_euler_numbers(n + 1, w)
    for _ in range(order - 1):
        row = binomial_convolution(row, numbers, chain.field)
    return lhs, row[n]


# ---------------------------------------------------------------------------
# Verification suite


class CheckResult(Record):
    check: str
    status: str                      # "pass" | "fail"
    counterexample: dict | None = None

    def to_json(self, max_n: int, max_k: int) -> dict:
        row = {"check": self.check, "status": self.status, "maxN": max_n, "maxK": max_k}
        if self.counterexample is not None:
            row["counterexample"] = self.counterexample
        return row


class Report(Record):
    max_n: int
    max_k: int
    results: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def to_json(self) -> list[dict]:
        return [r.to_json(self.max_n, self.max_k) for r in self.results]

    def render_text(self) -> str:
        width = max(len(r.check) for r in self.results) + 2
        lines = [f"verification suite: maxN={self.max_n} maxK={self.max_k}"]
        for r in self.results:
            lines.append(f"{r.check:<{width}}{r.status.upper()}")
            if r.counterexample:
                ce = r.counterexample
                where = ", ".join(f"{key}={ce[key]}" for key in ("n", "k") if key in ce)
                lines.append(f"{'':<{width}}at {where}: difference = {ce['difference']}")
        lines.append("result: " + ("ALL PASS" if self.passed else "FAILURES PRESENT"))
        return "\n".join(lines)


def _first_failure(cases) -> dict | None:
    """Counterexample at the first nonzero difference of (n, k, difference) cases."""
    for n, k, diff in cases:
        if diff:
            return {"n": n, "k": k, "difference": str(diff)}
    return None


def verify_paper_suite(max_n: int, max_k: int, tables=None) -> Report:
    """Run the full identity suite over Q(w) for n < max_n, 1 <= k <= max_k.

    `tables` may supply prebuilt (possibly perturbed) EulerTable values keyed
    by order; missing orders are read from one TableChain of their own,
    never extended from a supplied table.  A supplied table must hold the
    order it is keyed by and at least max_n numbers, and all of them one
    weight; otherwise ValueError names the key before any check runs.  An
    identity's failure is reported, never raised.  Each check is a generator
    of (n, k, difference) cases, consumed only up to its first failure.

    The tables invert g = (w e^t + 1)/2, then take powers of the inverse.
    Checks (g) and (h) take the other route to GF^k for k >= 2: the power
    g^k, then its inverse.  At k = 1 both routes are the one inverse of g,
    so GF^1, which checks (c), (e), (f) and (j) also read, is the chain's.
    """
    if max_n < 2 or max_k < 1:
        raise ValueError("need max_n >= 2 and max_k >= 1")
    supplied = tables or {}
    w0 = next((t.w0 for t in supplied.values()), None)
    for key, table in supplied.items():
        if table.w0 != w0:
            raise ValueError(f"table {key}: w0 = {table.w0}, but the first supplied table has w0 = {w0}")
        if table.order != key:
            raise ValueError(f"table {key}: holds order {table.order}")
        if len(table.numbers) < max_n:
            raise ValueError(f"table {key}: {len(table.numbers)} numbers, fewer than max_n = {max_n}")
    orders = range(1, max_k + 1)
    chain = TableChain(max_n, w0)
    tables = {k: supplied[k] if k in supplied else chain.table(k) for k in orders}

    t1 = tables[1]
    field, wv = chain.field, chain.w
    g = chain.g                          # no check reads a coefficient past t^(max_n - 1)
    gf = chain.power(1)
    # GF^k = (g^k)^{-1}, shared by checks (g) and (h)
    gf_powers = {1: gf}
    gk = g
    for k in orders[1:]:
        gk = gk * g
        gf_powers[k] = gk.inverse()

    def x_pow(n, coeff=1):
        return Polynomial.monomial(field, n, coeff)

    def lowering():
        # (a) derivative lowers the index, every order
        for k in orders:
            polys = tables[k].polys
            for n in range(1, max_n):
                yield n, k, polys[n].derivative() - polys[n - 1].scale(n)

    def operator_recurrence():
        # (c) E_{n+1} = x E_n - (g'/g) E_n; acting on E_n reads the ratio to t^n
        ratio = g.derivative() * gf
        x = Polynomial.variable(field)
        for n in range(max_n - 1):
            rhs = x * t1.polys[n] - apply_functional(ratio, t1.polys[n])
            yield n, 1, t1.polys[n + 1] - rhs

    def order_k_functional():
        # (g) <GF^k | x^n> = stored order-k numbers
        for k in orders:
            for n in range(max_n):
                yield n, k, pairing(gf_powers[k], x_pow(n)) - tables[k].numbers[n]

    def order_k_binomial_form():
        # (h) stored polynomials match the Appell basis of g^k, GF^k x^n
        for k in orders:
            for n in range(max_n):
                yield n, k, tables[k].polys[n] - apply_functional(gf_powers[k], x_pow(n))

    def multinomial():
        # (i) the stored order-k numbers against the order-1 numbers convolved
        # k - 1 times: the multinomial sum grouped by its last part
        row = base = t1.numbers[:max_n]
        for k in orders:
            if k > 1:
                row = binomial_convolution(row, base, field)
            for n in range(max_n):
                yield n, k, tables[k].numbers[n] - row[n]

    def basis_expansion():
        # (j) expansion of the GF itself in the basis {g t^k}: the coefficients
        # are <GF | E_k(x)>/k!, and the sum must rebuild the GF term by term
        total = Series.zero(field, max_n)
        for k in range(max_n):
            lam = pairing(gf, t1.polys[k]) * Fraction(1, math.factorial(k))
            total = total + g.mul_tk(k).scale(lam)
        for n in range(max_n):
            yield n, 1, total.coefficient(n) - gf.coefficient(n)

    def classical_reduction():
        # (k) w = 1 collapses to the classical Euler polynomials
        classical = classical_euler_polys(max_n)
        candidates = [EulerTable.build(max_n, 1, w=1)]
        if t1.w0 is None:
            candidates.insert(0, t1.evaluate(1))
        elif t1.w0 == 1:
            candidates.insert(0, t1)
        for n in range(max_n):
            for tab in candidates:
                yield n, 1, tab.polys[n] - classical[n]

    n_range = range(max_n)
    checks = [
        ("(a) lowering", lowering()),
        # the base factor inverts the Appell map: g(t) E_n(x) = x^n
        ("(b) appell inversion",
         ((n, 1, apply_functional(g, t1.polys[n]) - x_pow(n)) for n in n_range)),
        ("(c) operator recurrence", operator_recurrence()),
        # reflection: w E_n(x+1) + E_n(x) = 2 x^n
        ("(d) reflection",
         ((n, 1, t1.polys[n].shifted(1).scale(wv) + t1.polys[n] - x_pow(n, 2)) for n in n_range)),
        # <GF | x^n> recovers the stored numbers
        ("(e) functional representation",
         ((n, 1, pairing(gf, x_pow(n)) - t1.numbers[n]) for n in n_range)),
        # GF acting as an operator sends x^n to the stored polynomials
        ("(f) operator representation",
         ((n, 1, apply_functional(gf, x_pow(n)) - t1.polys[n]) for n in n_range)),
        ("(g) order-k functional", order_k_functional()),
        ("(h) order-k binomial form", order_k_binomial_form()),
        ("(i) multinomial", multinomial()),
        ("(j) basis expansion of the GF", basis_expansion()),
        ("(k) classical reduction at w=1", classical_reduction()),
    ]
    results = []
    for label, cases in checks:
        failure = _first_failure(cases)
        results.append(CheckResult(label, "pass") if failure is None else CheckResult(label, "fail", failure))
    results.sort(key=lambda r: r.check)
    return Report(max_n, max_k, results)
