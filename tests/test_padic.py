"""Unit tests for fermionic p-adic partial sums and valuation reports."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weuler.euler import weighted_euler_numbers, weighted_euler_polys
from weuler.padic import (
    ZERO_VALUATION_GUARD,
    PadicNumber,
    convergence_report,
    exact_integral,
    fermionic_partial_sum,
    is_admissible_weight,
    is_odd_prime,
    padic_from_rational,
    partial_sums,
    shift_identity_check,
    vp_fraction,
    vp_int,
)


class TestValuations:
    def test_vp_int(self):
        assert vp_int(18, 3) == 2
        assert vp_int(-18, 3) == 2
        assert vp_int(7, 3) == 0

    def test_vp_fraction(self):
        assert vp_fraction(Fraction(5, 27), 3) == -3
        assert vp_fraction(Fraction(9, 5), 3) == 2

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="valuation of zero"):
            vp_int(0, 3)
        with pytest.raises(ValueError, match="valuation of zero"):
            vp_fraction(Fraction(0), 5)

    @pytest.mark.parametrize("p", [1, -1, 0, -3])
    def test_base_below_two_rejected(self, p):
        # 1 and -1 divide every integer, and 0 divides none: each must stop
        # at once rather than loop or divide by zero
        for call in (lambda: vp_int(5, p), lambda: vp_fraction(Fraction(5, 3), p),
                     lambda: is_admissible_weight(Fraction(4), p),
                     lambda: is_admissible_weight(Fraction(1), p)):
            with pytest.raises(ValueError, match=f"p must be at least 2, got {p}"):
                call()

    @given(
        st.fractions(max_denominator=50).filter(lambda r: r != 0),
        st.fractions(max_denominator=50).filter(lambda r: r != 0),
        st.sampled_from([3, 5, 7]),
    )
    @settings(max_examples=50, deadline=None)
    def test_ultrametric(self, a, b, p):
        # v(ab) = v(a) + v(b); v(a+b) >= min(v(a), v(b))
        assert vp_fraction(a * b, p) == vp_fraction(a, p) + vp_fraction(b, p)
        if a + b != 0:
            assert vp_fraction(a + b, p) >= min(vp_fraction(a, p), vp_fraction(b, p))


class TestPrimality:
    def test_is_odd_prime(self):
        assert [p for p in range(2, 30) if is_odd_prime(p)] == [3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert not is_odd_prime(2)
        assert not is_odd_prime(1)


class TestAdmissibility:
    def test_cases(self):
        assert is_admissible_weight(Fraction(1), 3)  # |1-1|_3 = 0
        assert is_admissible_weight(Fraction(4), 3)  # v_3(-3) = 1
        assert is_admissible_weight(Fraction(10), 3)  # v_3(-9) = 2
        assert not is_admissible_weight(Fraction(3), 3)
        assert not is_admissible_weight(Fraction(1, 3), 3)


class TestPadicNumber:
    def test_repr_and_fields(self):
        a = padic_from_rational(Fraction(5, 27), 3, 6)
        assert str(a) == "3^-3 * 5 + O(3^3)"
        assert a.valuation == -3 and a.precision == 6

    def test_negative_rational(self):
        b = padic_from_rational(Fraction(-7), 3, 6)
        assert b.valuation == 0 and b.unit == 722  # 3^6 - 7

    def test_p_in_denominator_gives_negative_valuation(self):
        a = padic_from_rational(Fraction(1, 3), 3, 5)
        assert a.valuation == -1 and a.unit == 1

    def test_arithmetic_with_negative_valuations(self):
        # 5/27 + 22/27 = 1, staying in exact integers throughout
        a = padic_from_rational(Fraction(5, 27), 3, 8)
        b = padic_from_rational(Fraction(22, 27), 3, 8)
        assert a + b == padic_from_rational(Fraction(1), 3, 5)
        assert a * b == padic_from_rational(Fraction(110, 729), 3, 5)
        assert b - a == padic_from_rational(Fraction(17, 27), 3, 5)

    def test_ring_operations_match_rationals(self):
        x = padic_from_rational(Fraction(2), 3, 4)
        y = padic_from_rational(Fraction(7), 3, 4)
        assert x * y == padic_from_rational(Fraction(14), 3, 4)
        assert x + y == padic_from_rational(Fraction(9), 3, 4)
        assert x - y == padic_from_rational(Fraction(-5), 3, 4)

    def test_equality_is_precision_relative(self):
        # 1 and 1 + 3^4 agree to absolute precision 4
        a = padic_from_rational(Fraction(1), 3, 4)
        b = padic_from_rational(Fraction(1 + 81), 3, 4)
        assert a == b
        c = padic_from_rational(Fraction(1 + 27), 3, 4)
        assert a != c

    def test_zero(self):
        z = padic_from_rational(Fraction(0), 3, 4)
        assert z.is_zero()
        x = padic_from_rational(Fraction(5), 3, 4)
        assert (x - x).is_zero()
        assert x + z == x

    def test_hash_unsupported(self):
        with pytest.raises(TypeError):
            hash(padic_from_rational(Fraction(1), 3, 4))

    @given(
        st.fractions(max_denominator=20),
        st.fractions(max_denominator=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_homomorphism(self, a, b):
        if a.denominator % 3 == 0 or b.denominator % 3 == 0:
            return
        pa = padic_from_rational(a, 3, 8)
        pb = padic_from_rational(b, 3, 8)
        assert pa + pb == padic_from_rational(a + b, 3, 8)
        assert pa * pb == padic_from_rational(a * b, 3, 8)


class TestPartialSums:
    def test_level_one_by_hand(self):
        # sum_{a<3} 4^a (-1)^a = 1 - 4 + 16
        assert partial_sums([Fraction(1)], Fraction(4), 3, 1) == [Fraction(13)]

    def test_exact_integral_is_weighted_euler_number(self):
        nums = weighted_euler_numbers(4, w=Fraction(4))
        for n in range(4):
            f = [Fraction(0)] * n + [Fraction(1)]
            assert exact_integral(f, w=Fraction(4)) == nums[n]

    def test_telescoped_closed_form(self):
        # Independent oracle: S_m = (E_{n,w} + w^N E_{n,w}(N)) / 2 with N = p^m.
        # (3, 4, 5) is the case whose valuations dip to [2, 4, 8, 7].
        cases = [
            (3, Fraction(4), 0, 3),
            (3, Fraction(4), 3, 3),
            (3, Fraction(4), 5, 4),
            (5, Fraction(6), 2, 3),
            (7, Fraction(8), 1, 3),
        ]
        for p, w, n, levels in cases:
            f = [Fraction(0)] * n + [Fraction(1)]
            sums = partial_sums(f, w, p, levels)
            poly = weighted_euler_polys(n + 1, w=w)[n]
            number = weighted_euler_numbers(n + 1, w=w)[n]
            for m, s in enumerate(sums, start=1):
                N = p**m
                assert s == (number + w**N * poly.eval_at(Fraction(N))) / 2

    def test_padic_wrapper(self):
        s = fermionic_partial_sum([Fraction(1)], Fraction(4), 3, 1, 8)
        assert s == padic_from_rational(Fraction(13), 3, 8)


class TestConvergence:
    def test_pinned_valuations(self):
        rep = convergence_report([Fraction(1)], Fraction(4), 3, 4, 12)
        assert rep.valuations == [2, 3, 4, 5]
        assert rep.target == Fraction(2, 5)

    def test_exact_zero_sentinel(self):
        # w = 1, f = 1: every partial sum is exactly the integral (= 1)
        rep = convergence_report([Fraction(1)], Fraction(1), 3, 3, 5)
        assert all(r.exact_zero for r in rep.rows)
        assert rep.valuations == [5 * ZERO_VALUATION_GUARD] * 3

    def test_inadmissible_weight_rejected(self):
        with pytest.raises(ValueError, match="requires"):
            convergence_report([Fraction(1)], Fraction(3), 3, 2, 8)

    def test_render_and_json(self):
        rep = convergence_report([Fraction(1)], Fraction(4), 3, 2, 10)
        text = rep.render_text()
        assert "v_p(S_m - exact)" in text
        data = rep.to_json()
        assert data["p"] == 3 and len(data["levels"]) == 2
        assert data["levels"][0]["valuation"] == 2


class TestShiftIdentity:
    def test_symbolic_monomials(self):
        for n in range(6):
            f = [Fraction(0)] * n + [Fraction(1)]
            rep = shift_identity_check(f, Fraction(4), 3, 2, 10)
            assert rep.symbolic_ok
            assert rep.expected == (Fraction(2) if n == 0 else Fraction(0))

    def test_monomial_deviation_law(self):
        # D_m = w^{p^m} p^{nm} for f = a^n, n >= 1, so v(D_m) = n*m exactly
        for n in (1, 2, 3):
            f = [Fraction(0)] * n + [Fraction(1)]
            rep = shift_identity_check(f, Fraction(4), 3, 3, 14)
            assert rep.valuations == [n * m for m in (1, 2, 3)]

    def test_constant_deviation_law(self):
        # for f = 1 the deviation is w^{p^m} - 1, so v(D_m) = m + 1 at w = 1 + p
        rep = shift_identity_check([Fraction(1)], Fraction(4), 3, 3, 14)
        assert rep.valuations == [2, 3, 4]

    def test_render_and_json(self):
        rep = shift_identity_check([Fraction(1)], Fraction(4), 3, 2, 10)
        assert "symbolic identity" in rep.render_text()
        data = rep.to_json()
        assert data["symbolic"] == "pass" and len(data["levels"]) == 2
