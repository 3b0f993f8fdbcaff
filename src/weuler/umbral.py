"""The umbral algebra: series acting as linear functionals on polynomials.

The pairing realizes <t^k | x^n> = n! delta_{n,k}; a series f with ordinary
coefficients c_k pairs with p as sum_j p_j j! c_j, and acts as the operator
sum_k c_k d^k/dx^k.  Appell and Sheffer bases are produced from these two
primitives.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .ratfunc import Polynomial
from .series import Series


# Old name of Polynomial.  Only bench/tracing.py reads it, for its spans on
# XPolynomial.__str__ and .to_json; it goes (item 13) once item 1 renames those spans.
XPolynomial = Polynomial


# ---------------------------------------------------------------------------
# Functional action


def _require_precision(f: Series, p: Polynomial) -> None:
    if f.precision <= p.degree:
        raise ValueError(
            f"series precision {f.precision} is insufficient: need more than degree {p.degree}"
        )


def _rows(f: Series, p: Polynomial) -> tuple[Sequence, list]:
    """(c, q): the c_k(f) that meet p, in p's field, and q_m = m! p_m (a zero
    p_m is its own q_m, so a monomial x^n scales one coefficient, not n + 1)."""
    _require_precision(f, p)
    field = p.field
    c = f.coeffs[:len(p.coeffs)]
    if f.field is not field:
        c = [field.of(ck) for ck in c]
    return c, [pm * math.factorial(m) if pm else pm for m, pm in enumerate(p.coeffs)]


def pairing(f: Series, p: Polynomial):
    """<f | p> = sum_m c_m(f) q_m with q_m = m! p_m: one field.dot in p's field.

    It is the x^0 coefficient of apply_functional(f, p).
    """
    c, q = _rows(f, p)
    return p.field.dot(c, q)


def apply_functional(f: Series, p: Polynomial) -> Polynomial:
    """f(t) acting on p: sum_k c_k(f) p^(k)(x); t^k differentiates k times.

    With q_m = m! p_m, the x^j coefficient of the result is
    (1/j!) sum_k c_k q_(j+k): one field.dot per coefficient, in p's field
    and variable, scaled by 1/j! unless the dot is zero.
    """
    c, q = _rows(f, p)
    dot, d = p.field.dot, len(q)
    return p._new([s * Fraction(1, math.factorial(j)) if (s := dot(c[:d - j], q[j:])) else s
                   for j in range(d)])


class ShefferPair:
    """An invertible series g and a delta series f."""

    __slots__ = ("g", "f")

    def __init__(self, g: Series, f: Series):
        if g.order() != 0:
            raise ValueError("g must be invertible (order 0)")
        if f.order() != 1:
            raise ValueError("f must be a delta series (order 1)")
        self.g = g
        self.f = f


def appell_basis(g: Series, count: int) -> list[Polynomial]:
    """S_n = g(t)^{-1} x^n for n < count; satisfies S_n' = n S_{n-1}."""
    if g.order() != 0:
        raise ValueError("Appell basis needs an invertible series")
    if g.precision < count:
        raise ValueError(f"precision {g.precision} too small for {count} basis polynomials")
    inv = g.inverse()
    field = g.field
    return [apply_functional(inv, Polynomial.monomial(field, n)) for n in range(count)]


def sheffer_basis(pair: ShefferPair, count: int) -> list[Polynomial]:
    """Sheffer sequence of (g, f) via the generating identity.

    S_n is n! times the t^n coefficient of e^{y fbar(t)} / g(fbar(t)),
    collected as a polynomial in y; for f = t this reproduces the Appell
    basis of g exactly.
    """
    if count <= 0:
        return []
    if pair.g.precision < count or pair.f.precision < count:
        raise ValueError(f"precisions must be at least {count}")
    field = pair.g.field
    if count == 1:
        return [Polynomial(field, (pair.g.coeffs[0] ** -1,))]
    fbar = pair.f.truncate(count).reverse()
    h = pair.g.truncate(count).compose(fbar).inverse()
    # columns[m] = coefficients of h * fbar^m; fbar^m has order m, so the
    # t^n coefficient contributes y^m only for m <= n
    columns = [h.coeffs]
    power = h
    for _ in range(1, count):
        power = power * fbar
        columns.append(power.coeffs)
    basis = []
    for n in range(count):
        n_fact = math.factorial(n)
        coeffs = [columns[m][n] * Fraction(n_fact, math.factorial(m)) for m in range(n + 1)]
        basis.append(Polynomial(field, coeffs))
    return basis


def biorthogonality_check(pair: ShefferPair, basis: Sequence[Polynomial], n: int, k: int):
    """<g f^k | S_n>, which equals n! delta_{n,k} on the true Sheffer basis."""
    if n >= len(basis) or k >= len(basis):
        raise ValueError("indices beyond the provided basis")
    return pairing(pair.g * pair.f ** k, basis[n])


def expand_in_basis(p: Polynomial, pair: ShefferPair, basis: Sequence[Polynomial]):
    """Coefficients lambda_k = <g f^k | p> / k! of p in the Sheffer basis."""
    if len(basis) <= p.degree:
        raise ValueError(f"need at least {p.degree + 1} basis polynomials, have {len(basis)}")
    out = []
    gfk = pair.g
    for k in range(p.degree + 1):
        out.append(pairing(gfk, p) * Fraction(1, math.factorial(k)))
        gfk = gfk * pair.f
    return out
