"""Unit tests for fermionic p-adic partial sums and valuation reports."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weuler.euler import EulerTable, weighted_euler_numbers
from weuler.padic import (
    ZERO_VALUATION_GUARD,
    convergence_report,
    exact_integral,
    is_admissible_weight,
    is_odd_prime,
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
            poly = EulerTable.build(n + 1, w=w).polys[n]
            number = weighted_euler_numbers(n + 1, w=w)[n]
            for m, s in enumerate(sums, start=1):
                N = p**m
                assert s == (number + w**N * poly.eval_at(Fraction(N))) / 2


class TestConvergence:
    def test_pinned_valuations(self):
        rep = convergence_report([Fraction(1)], Fraction(4), 3, 4, 12)
        assert rep.valuations == [2, 3, 4, 5]
        assert rep.target == Fraction(2, 5)

    def test_exact_zero_sentinel(self):
        # w = 1, f = 1: every partial sum is exactly the integral (= 1); a zero
        # deviation has no valuation, and only the rendering shows its bound 4*M
        rep = convergence_report([Fraction(1)], Fraction(1), 3, 3, 5)
        assert all(r.exact_zero for r in rep.rows)
        assert rep.valuations == [None] * 3
        assert [row["valuation"] for row in rep.to_json()["levels"]] == [5 * ZERO_VALUATION_GUARD] * 3

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
