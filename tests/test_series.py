"""Unit tests for truncated formal power series."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weuler.dsl import parse_value
from weuler.ratfunc import QQ, QW, W
from weuler.series import Series, exp_series


def S(coeffs, precision=None, field=QQ):
    coeffs = [Fraction(c) for c in coeffs]
    return Series(field, coeffs, precision if precision is not None else len(coeffs))


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def series_strategy(precision=8):
    return st.lists(small_fracs, min_size=precision, max_size=precision).map(
        lambda cs: Series(QQ, [Fraction(c) for c in cs], precision)
    )


class TestBasics:
    def test_coefficient_and_order(self):
        f = S([0, 0, 3, 1])
        assert f.coefficient(2) == 3
        with pytest.raises(ValueError, match="beyond precision"):
            f.coefficient(17)
        with pytest.raises(ValueError, match="must be nonnegative, got -1"):
            f.coefficient(-1)
        assert f.order() == 2
        assert Series.zero(QQ, 5).order() is None
        assert Series.one(QQ, 5).order() == 0
        assert Series.monomial(QQ, 1, 5).order() == 1

    def test_umbral_coefficient_is_factorial_scaled(self):
        f = exp_series(QQ, Fraction(1), 8)
        assert all(f.umbral_coefficient(n) == 1 for n in range(8))

    def test_truncate(self):
        f = S([1, 2, 3, 4])
        g = f.truncate(2)
        assert g.precision == 2 and list(g.coeffs) == [1, 2]
        for precision in (0, -1):
            with pytest.raises(ValueError, match="precision must be at least 1"):
                f.truncate(precision)

    def test_monomial_rejects_a_negative_exponent(self):
        assert list(Series.monomial(QQ, 2, 4).coeffs) == [0, 0, 1, 0]
        assert list(Series.monomial(QQ, 5, 4).coeffs) == [0, 0, 0, 0]
        with pytest.raises(ValueError, match="must be nonnegative, got -2"):
            Series.monomial(QQ, -2, 4)

    def test_mul_tk_rejects_a_negative_shift(self):
        f = S([1, 2, 3])
        assert list(f.mul_tk(1).coeffs) == [0, 1, 2]
        assert f.mul_tk(0) is f
        with pytest.raises(ValueError, match="must be nonnegative, got -1"):
            f.mul_tk(-1)

    def test_add_sub_scale(self):
        f, g = S([1, 2, 3]), S([0, 1, 1])
        assert list((f + g).coeffs) == [1, 3, 4]
        assert list((f - g).coeffs) == [1, 1, 2]
        assert list(f.scale(Fraction(2)).coeffs) == [2, 4, 6]
        assert list(f.add_constant(Fraction(5)).coeffs) == [6, 2, 3]

    def test_mul_is_cauchy_with_min_precision(self):
        f = S([1, 1], precision=5)  # 1 + t at precision 5
        g = S([1, -1, 1, -1, 1, -1, 1], precision=7)
        h = f * g
        assert h.precision == 5
        assert list(h.coeffs) == [1, 0, 0, 0, 0]

    def test_mul_tk_shifts_without_precision_loss(self):
        f = exp_series(QQ, Fraction(1), 6)
        g = f.mul_tk(2)
        assert g.precision == 6
        assert g.coefficient(0) == 0 and g.coefficient(2) == 1 and g.coefficient(3) == 1

    def test_derivative_drops_one_coefficient(self):
        f = S([5, 1, 1], precision=8)
        d = f.derivative()
        assert d.precision == 7
        assert d.coefficient(0) == 1 and d.coefficient(1) == 2


class TestRendering:
    def test_prints_as_a_polynomial_in_t(self):
        assert str(S([1, 1, -1, Fraction(1, 2), 0])) == "1 + t + -1*t^2 + 1/2*t^3 + O(t^5)"
        assert str(Series(QW, [W, W + QW.one, QW.one])) == "w + (w + 1)*t + t^2 + O(t^3)"
        assert str(Series.zero(QQ, 3)) == "0 + O(t^3)"
        assert repr(S([0, 2])) == "Series[Q](2*t + O(t^2))"

    def test_large_constant_term_prints(self):
        # past int_max_str_digits the constant goes through field.render, as
        # every other coefficient does
        text = str(Series(QQ, [Fraction(10 ** 5000), Fraction(1)]))
        assert text == "1" + "0" * 5000 + " + t + O(t^2)"


class TestInverse:
    def test_geometric(self):
        f = Series.one(QQ, 6) - Series.monomial(QQ, 1, 6)
        assert list(f.inverse().coeffs) == [1] * 6

    def test_exp_inverse_is_exp_negated(self):
        e = exp_series(QQ, Fraction(1), 8)
        assert e.inverse() == exp_series(QQ, Fraction(-1), 8)

    def test_error_message(self):
        with pytest.raises(ValueError, match=r"not invertible \(delta or higher order\)"):
            Series.monomial(QQ, 1, 5).inverse()

    @given(series_strategy().filter(lambda f: f.coefficient(0) != 0))
    @settings(max_examples=40, deadline=None)
    def test_inverse_round_trip(self, f):
        assert f * f.inverse() == Series.one(QQ, f.precision)

    def test_symbolic_field(self):
        # 1/( (w e^t + 1)/2 ) has constant term 2/(1+w)
        half = parse_value("1/2").coefficient(0)
        g = exp_series(QW, QW.one, 5).scale(W).add_constant(QW.one).scale(half)
        inv = g.inverse()
        assert str(inv.coefficient(0)) == "2/(1 + w)"


class TestCompose:
    def test_requires_delta(self):
        f = S([1, 1])
        with pytest.raises(ValueError, match="composition requires a delta series"):
            f.compose(f)

    def test_exp_of_double(self):
        e = exp_series(QQ, Fraction(1), 7)
        doubled = Series.monomial(QQ, 1, 7).scale(Fraction(2))
        composed = e.compose(doubled)
        assert composed == exp_series(QQ, Fraction(2), 7)

    @given(series_strategy(6), series_strategy(6))
    @settings(max_examples=30, deadline=None)
    def test_composition_is_a_ring_map(self, f, g):
        d = S([0, 1, 1, 0, 2, 1], precision=6)
        assert (f + g).compose(d) == f.compose(d) + g.compose(d)
        assert (f * g).compose(d) == f.compose(d) * g.compose(d)


class TestReverse:
    def test_signed_catalan_prefix(self):
        # reverse(t + t^2) coefficients are signed Catalan numbers
        f = S([0, 1, 1], precision=8)
        got = [f.reverse().coefficient(n) for n in range(1, 8)]
        assert got == [1, -1, 2, -5, 14, -42, 132]

    def test_requires_invertible_linear_term(self):
        with pytest.raises(ValueError, match="reversion requires a delta series"):
            S([0, 0, 1], precision=6).reverse()
        with pytest.raises(ValueError, match="reversion requires a delta series"):
            S([1, 1], precision=6).reverse()

    def test_round_trip_both_ways(self):
        f = S([0, 1, 0, 3, -2, 1, 0, 7], precision=8)
        fbar = f.reverse()
        ident = Series.monomial(QQ, 1, 8)
        assert f.compose(fbar) == ident
        assert fbar.compose(f) == ident

    def test_seeded_random_round_trips(self):
        rng = random.Random(20260814)
        for _ in range(20):
            coeffs = [Fraction(0), Fraction(rng.choice([1, -1, 2, -2, 3]))]
            coeffs += [
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(10)
            ]
            f = Series(QQ, coeffs, 12)
            assert f.compose(f.reverse()) == Series.monomial(QQ, 1, 12)

    def test_reverse_does_not_compose(self, monkeypatch):
        # compose checks reverse, so reverse must not be built on compose
        def refuse(*args):
            raise AssertionError("reverse called compose or truncate")

        monkeypatch.setattr(Series, "compose", refuse)
        monkeypatch.setattr(Series, "truncate", refuse)
        got = S([0, 1, 1], precision=8).reverse().coeffs[1:]
        assert list(got) == [1, -1, 2, -5, 14, -42, 132]

    def test_round_trip_both_ways_over_qw(self):
        f = Series(QW, [QW.zero, W, 1 + W, 1 / (1 + W), W * W - 3], 8)
        fbar = f.reverse()
        assert fbar.coefficient(1) == 1 / W
        ident = Series.monomial(QW, 1, 8)
        assert f.compose(fbar) == ident
        assert fbar.compose(f) == ident


class TestExpSeries:
    def test_coefficients(self):
        e = exp_series(QQ, Fraction(3), 5)
        assert [e.coefficient(n) for n in range(5)] == [
            Fraction(3) ** n / _fact(n) for n in range(5)
        ]

    def test_functional_equation(self):
        a = exp_series(QQ, Fraction(2), 9)
        b = exp_series(QQ, Fraction(5), 9)
        assert a * b == exp_series(QQ, Fraction(7), 9)


def _fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out
