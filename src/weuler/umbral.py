"""The umbral algebra: series acting as linear functionals on polynomials.

The pairing realizes <t^k | x^n> = n! delta_{n,k}; a series f with ordinary
coefficients c_k pairs with p as sum_j p_j j! c_j, and acts as the operator
sum_k c_k d^k/dx^k.  Appell and Sheffer bases are produced from these two
primitives.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

from .ratfunc import Polynomial, multinomial
from .series import Series


# the name polynomials in x are known by; ratfunc.WPolynomial is the same class
XPolynomial = Polynomial


# ---------------------------------------------------------------------------
# Functional action


def _require_precision(f: Series, p: Polynomial) -> None:
    if f.precision <= p.degree:
        raise ValueError(
            f"series precision {f.precision} is insufficient: need more than degree {p.degree}"
        )


def pairing(f: Series, p: Polynomial):
    """<f | p> = sum_j p_j j! c_j(f)."""
    _require_precision(f, p)
    acc = f.field.zero
    for j, pj in enumerate(p.coeffs):
        if pj != p.field.zero:
            acc = acc + pj * math.factorial(j) * f.coeffs[j]
    return acc


def apply_functional(f: Series, p: Polynomial) -> Polynomial:
    """f(t) acting on p: sum_k c_k(f) p^(k)(x); t^k differentiates k times."""
    _require_precision(f, p)
    acc = Polynomial.zero(p.field)
    deriv = p
    for k in range(p.degree + 1):
        ck = f.coeffs[k]
        if ck != f.field.zero:
            acc = acc + deriv.scale(ck)
        deriv = deriv.derivative()
    return acc


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


def compositions(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """All tuples of m nonnegative integers summing to n."""
    if m == 0:
        if n == 0:
            yield ()
        return
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, m - 1):
            yield (first,) + rest


def multinomial_pairing(fs: Sequence[Series], n: int):
    """Both sides of the product-pairing identity.

    Returns (<f_1 ... f_m | x^n>, the multinomial-weighted sum over all
    compositions i_1 + ... + i_m = n of prod_j <f_j | x^{i_j}>).
    """
    if not fs:
        raise ValueError("need at least one series")
    field = fs[0].field
    product = fs[0]
    for f in fs[1:]:
        product = product * f
    xn = Polynomial.monomial(field, n)
    lhs = pairing(product, xn)
    rhs = field.zero
    for parts in compositions(n, len(fs)):
        term = field.of(multinomial(n, parts))
        for f, i in zip(fs, parts):
            term = term * pairing(f, Polynomial.monomial(field, i))
        rhs = rhs + term
    return lhs, rhs
