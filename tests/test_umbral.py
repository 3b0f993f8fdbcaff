"""Unit tests for the umbral pairing, Appell and Sheffer machinery."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weuler.dsl import parse_value
from weuler.ratfunc import QQ, QW, W, Polynomial
from weuler.series import Series, exp_series
from weuler.umbral import (
    ShefferPair,
    appell_basis,
    apply_functional,
    biorthogonality_check,
    expand_in_basis,
    pairing,
    sheffer_basis,
)


def P(coeffs):
    return Polynomial(QQ, tuple(Fraction(c) for c in coeffs))


def xpow(n):
    return P([0] * n + [1])


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=5)
poly_strategy = st.lists(small_fracs, min_size=1, max_size=5).map(P)


class TestXPolynomial:
    def test_degree_and_zero(self):
        assert P([0]).degree == -1 and P([0]).is_zero()
        assert P([1, 0, 2, 0]).degree == 2

    def test_str(self):
        assert str(P([Fraction(1, 2), 0, 1])) == "1/2 + x^2"
        assert str(P([0])) == "0"

    def test_arithmetic(self):
        p, q = P([1, 1]), P([0, 1])
        assert (p * q) == P([0, 1, 1])
        assert (p - p).is_zero()
        assert p.scale(Fraction(3)) == P([3, 3])

    def test_shift_and_substitute(self):
        assert xpow(2).shifted(Fraction(3)) == P([9, 6, 1])
        assert xpow(2).substitute(P([1, 1])) == P([1, 2, 1])

    def test_eval_and_derivative(self):
        assert xpow(3).eval_at(Fraction(2)) == 8
        assert xpow(3).derivative() == P([0, 0, 3])

    def test_json_and_latex(self):
        assert xpow(2).to_json() == ["0", "0", "1"]
        assert xpow(2).scale(Fraction(-1, 2)).latex() == r"-\frac{1}{2} x^{2}"


class TestPairing:
    def test_duality_law(self):
        # <t^k | x^n> = n! delta_{n,k}
        for n in range(6):
            for k in range(6):
                got = pairing(Series.monomial(QQ, k, 8), xpow(n))
                assert got == (math.factorial(n) if n == k else 0)

    def test_evaluation_functional(self):
        # <e^{yt} | p> = p(y)
        p = P([2, -1, 0, 3])
        y = Fraction(5, 2)
        assert pairing(exp_series(QQ, y, 8), p) == p.eval_at(y)

    def test_insufficient_precision_raises(self):
        with pytest.raises(ValueError, match="series precision 2 is insufficient"):
            pairing(Series.one(QQ, 2), xpow(2))

    @given(poly_strategy, poly_strategy)
    @settings(max_examples=30, deadline=None)
    def test_linearity_in_the_polynomial(self, p, q):
        f = Series(QQ, [Fraction(1), Fraction(2), Fraction(-1), Fraction(3), Fraction(1)], 5)
        assert pairing(f, p + q) == pairing(f, p) + pairing(f, q)


class TestApplyFunctional:
    def test_tk_acts_as_kth_derivative(self):
        p = P([1, 4, -2, 5])
        assert apply_functional(Series.monomial(QQ, 1, 8), p) == p.derivative()
        dd = p.derivative().derivative()
        assert apply_functional(Series.monomial(QQ, 2, 8), p) == dd

    def test_exp_acts_as_shift(self):
        p = P([0, -3, 1, 1])
        y = Fraction(2)
        assert apply_functional(exp_series(QQ, y, 8), p) == p.shifted(y)

    def test_identity_series_is_identity_operator(self):
        p = P([7, 0, 2])
        assert apply_functional(Series.one(QQ, 8), p) == p

    def test_polynomial_in_another_variable(self):
        # the result is built in p's variable
        p = Polynomial(QQ, [1, 2], var="w")
        got = apply_functional(Series.monomial(QQ, 1, 4), p)
        assert got.var == "w" and got == Polynomial(QQ, [2], var="w")
        shifted = apply_functional(exp_series(QQ, Fraction(3), 4), p)
        assert shifted.var == "w" and shifted == p.shifted(3)
        assert pairing(exp_series(QQ, Fraction(3), 4), p) == p.eval_at(3)


# The definitions the one-dot forms replaced, kept as their oracle.


def pairing_by_terms(f, p):
    """<f | p> = sum_j p_j j! c_j(f), added one term at a time."""
    acc = f.field.zero
    for j, pj in enumerate(p.coeffs):
        if pj != p.field.zero:
            acc = acc + pj * math.factorial(j) * f.coeffs[j]
    return acc


def functional_by_derivatives(f, p):
    """sum_k c_k(f) p^(k): the derivative chain, scaled and added."""
    acc = Polynomial(p.field, (), p.var)
    deriv = p
    for k in range(p.degree + 1):
        ck = f.coeffs[k]
        if ck != f.field.zero:
            acc = acc + deriv.scale(ck)
        deriv = deriv.derivative()
    return acc


def field_scalars(field):
    small = st.one_of(st.just(0), st.integers(-3, 3), st.fractions(-4, 4, max_denominator=5))
    if field is QQ:
        return small
    return st.one_of(
        small,
        st.builds(lambda a, b: QW.of(a) * W + b, small, small),
        st.builds(lambda a, b: (W - a) / (W + QW.one) ** b, small, st.integers(1, 3)),
    )


@st.composite
def functional_operands(draw):
    """(f, p) over one field: p dense, x^n or zero; f of precision degree + 1 or more."""
    field = draw(st.sampled_from([QQ, QW]))
    scalars = field_scalars(field)
    top = 8 if field is QQ else 5
    kind = draw(st.sampled_from(["dense", "monomial", "zero"]))
    if kind == "dense":
        p = Polynomial(field, draw(st.lists(scalars, min_size=1, max_size=top + 1)))
    elif kind == "monomial":
        p = Polynomial.monomial(field, draw(st.integers(0, top)))
    else:
        p = Polynomial(field, ())
    precision = max(p.degree, 0) + 1 + draw(st.integers(0, 2))
    f = Series(field, draw(st.lists(scalars, min_size=precision, max_size=precision)))
    return f, p


class TestOneDotForms:
    """apply_functional and pairing agree with the definitions they replaced."""

    @given(functional_operands())
    @settings(max_examples=80, deadline=None)
    def test_match_the_term_sums(self, operands):
        f, p = operands
        got = apply_functional(f, p)
        want = functional_by_derivatives(f, p)
        assert got.field is p.field and got.var == p.var
        assert got.coeffs == want.coeffs        # canonical forms, so structural
        assert all(type(c) is type(p.field.zero) for c in got.coeffs)
        value = pairing(f, p)
        assert type(value) is type(p.field.zero) and value == pairing_by_terms(f, p)
        assert value == got.coefficient(0)

    @pytest.mark.parametrize("field", [QQ, QW], ids=["QQ", "QW"])
    def test_zero_polynomial(self, field):
        f = Series(field, [field.of(2), field.of(3)])
        assert apply_functional(f, Polynomial(field, ())).is_zero()
        assert pairing(f, Polynomial(field, ())) == field.zero


class TestAppell:
    def test_trivial_g_gives_monomials(self):
        assert appell_basis(Series.one(QQ, 6), 4) == [xpow(n) for n in range(4)]

    def test_bernoulli_like_example(self):
        # g = (e^t - 1)/t gives the Bernoulli polynomials; pin B_2 = x^2 - x + 1/6
        e = exp_series(QQ, Fraction(1), 8)
        g = Series(QQ, [e.coefficient(n + 1) for n in range(7)], 7)
        basis = appell_basis(g, 4)
        assert basis[2] == P([Fraction(1, 6), -1, 1])

    def test_derivative_lowering(self):
        g = Series(QQ, [Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5), Fraction(0), Fraction(1)], 6)
        basis = appell_basis(g, 6)
        for n in range(1, 6):
            assert basis[n].derivative() == basis[n - 1].scale(Fraction(n))

    def test_defining_property(self):
        # S_n = g^{-1} x^n, hence g acting on S_n returns x^n
        g = Series(QQ, [Fraction(2), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3)], 5)
        basis = appell_basis(g, 5)
        for n in range(5):
            assert apply_functional(g, basis[n]) == xpow(n)


class TestSheffer:
    def pair(self, precision=10):
        g = Series(QQ, [Fraction(1), Fraction(1)] + [Fraction(0)] * (precision - 2), precision)
        f = Series(QQ, [Fraction(0), Fraction(1), Fraction(1)] + [Fraction(0)] * (precision - 3), precision)
        return ShefferPair(g, f)

    def test_validates_orders(self):
        good_g = Series.one(QQ, 6)
        good_f = Series.monomial(QQ, 1, 6)
        with pytest.raises(ValueError):
            ShefferPair(Series.monomial(QQ, 1, 6), good_f)  # g must be invertible
        with pytest.raises(ValueError):
            ShefferPair(good_g, Series.one(QQ, 6))  # f must be a delta series

    def test_biorthogonality(self):
        pair = self.pair()
        basis = sheffer_basis(pair, 7)
        for n in range(7):
            for k in range(7):
                got = biorthogonality_check(pair, basis, n, k)
                assert got == (math.factorial(n) if n == k else 0)

    def test_appell_special_case(self):
        g = Series(QQ, [Fraction(1), Fraction(1), Fraction(1, 2)] + [Fraction(0)] * 5, 8)
        pair = ShefferPair(g, Series.monomial(QQ, 1, 8))
        assert sheffer_basis(pair, 5) == appell_basis(g, 5)

    def test_count_edge_cases(self):
        pair = self.pair()
        assert sheffer_basis(pair, 0) == []
        only = sheffer_basis(pair, 1)
        assert only == [P([1])]  # constant 1/g(0) with g(0) = 1

    def test_expand_round_trip(self):
        pair = self.pair()
        basis = sheffer_basis(pair, 6)
        p = P([2, 0, 5, -1, Fraction(1, 3)])
        lams = expand_in_basis(p, pair)
        rebuilt = Polynomial(QQ, (Fraction(0),))
        for lam, s in zip(lams, basis):
            rebuilt = rebuilt + s.scale(lam)
        assert rebuilt == p

    @given(poly_strategy)
    @settings(max_examples=25, deadline=None)
    def test_expand_round_trip_random(self, p):
        pair = self.pair()
        basis = sheffer_basis(pair, 6)
        lams = expand_in_basis(p, pair)
        rebuilt = Polynomial(QQ, (Fraction(0),))
        for lam, s in zip(lams, basis):
            rebuilt = rebuilt + s.scale(lam)
        assert rebuilt == p

    def test_symbolic_field_basis(self):
        # Appell for g = (w e^t + 1)/2 over Q(w): constant of S_0 is 2/(1+w)
        half = parse_value("1/2").coefficient(0)
        g = exp_series(QW, QW.one, 6).scale(W).add_constant(QW.one).scale(half)
        basis = appell_basis(g, 3)
        assert str(basis[0]) == "2/(1 + w)"
