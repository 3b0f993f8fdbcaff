"""Unit tests for the umbral pairing, Appell and Sheffer machinery."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weuler.dsl import parse_value
from weuler.ratfunc import QQ, QW, W
from weuler.series import Series, exp_series
from weuler.umbral import (
    ShefferPair,
    XPolynomial,
    appell_basis,
    apply_functional,
    biorthogonality_check,
    expand_in_basis,
    pairing,
    sheffer_basis,
)


def P(coeffs):
    return XPolynomial(QQ, tuple(Fraction(c) for c in coeffs))


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
        lams = expand_in_basis(p, pair, basis)
        rebuilt = XPolynomial(QQ, (Fraction(0),))
        for lam, s in zip(lams, basis):
            rebuilt = rebuilt + s.scale(lam)
        assert rebuilt == p

    @given(poly_strategy)
    @settings(max_examples=25, deadline=None)
    def test_expand_round_trip_random(self, p):
        pair = self.pair()
        basis = sheffer_basis(pair, 6)
        lams = expand_in_basis(p, pair, basis)
        rebuilt = XPolynomial(QQ, (Fraction(0),))
        for lam, s in zip(lams, basis):
            rebuilt = rebuilt + s.scale(lam)
        assert rebuilt == p

    def test_symbolic_field_basis(self):
        # Appell for g = (w e^t + 1)/2 over Q(w): constant of S_0 is 2/(1+w)
        half = parse_value("1/2").coefficient(0)
        g = exp_series(QW, QW.one, 6).scale(W).add_constant(QW.one).scale(half)
        basis = appell_basis(g, 3)
        assert str(basis[0]) == "2/(1 + w)"
