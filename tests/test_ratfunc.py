"""Unit tests for exact rational-function arithmetic over Q(w)."""

import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weuler.ratfunc import (
    QQ,
    QW,
    W,
    WPolynomial,
    WRational,
    binary_power,
    binomial,
    multinomial,
    one_plus_w_pow,
    poly_gcd,
)

ONE = QW.one
ZERO = QW.zero


def frac(n, d=1):
    return Fraction(n, d)


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def polys(max_degree=3):
    return st.lists(small_fracs, min_size=1, max_size=max_degree + 1).map(
        lambda cs: WPolynomial(QQ, tuple(cs), "w")
    )


def rationals():
    return st.builds(
        lambda num, den: WRational(num, den),
        polys(),
        polys().filter(lambda p: not p.is_zero()),
    )


class TestCanonicalForm:
    def test_gcd_reduction(self):
        r = (W * W - ONE) / (W + ONE)
        assert str(r) == "w - 1"
        assert r.is_polynomial()

    def test_monic_denominator(self):
        # 1 / (2w + 2) must normalize to a monic denominator w + 1
        r = ONE / (QW.of(frac(2)) * W + QW.of(frac(2)))
        assert str(r.den) == "w + 1"
        assert str(r) == "1/(2*(1 + w))"

    def test_equality_is_structural(self):
        a = QW.parse("2*w*(w - 1)/(1 + w)^3")
        b = (QW.of(frac(2)) * W * (W - ONE)) / one_plus_w_pow(3)
        assert a == b
        assert hash(a) == hash(b)

    def test_zero_normalizes(self):
        assert (W - W).is_zero()
        assert str(W - W) == "0"


def wpoly(*coeffs):
    return WPolynomial(QQ, coeffs, "w")


class TestOnePlusWPowerPath:
    """WRational(P*(1+w)^j, (1+w)^m) strips the shared (1 + w) factors by synthetic division."""

    @staticmethod
    def reference(num, den) -> WRational:
        # the general canonical form: divide by the gcd, then make den monic
        g = poly_gcd(num, den)
        num, den = num.divexact(g), den.divexact(g)
        out = object.__new__(WRational)
        out.num, out.den = num.scale(1 / den.leading), den.scale(1 / den.leading)
        return out

    @given(polys(max_degree=4), st.integers(0, 6), st.integers(0, 6))
    @example(wpoly(), 3, 4)
    @example(wpoly(frac(-3, 2)), 0, 5)
    @example(wpoly(frac(7)), 6, 2)
    @settings(max_examples=150, deadline=None)
    def test_matches_gcd_reduction(self, p, j, m):
        num, den = p * one_plus_w_pow(j), one_plus_w_pow(m)
        got, want = WRational(num, den), self.reference(num, den)
        assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs)
        assert hash(got) == hash(want)

    @pytest.mark.parametrize("p, j, m, left", [
        (wpoly(frac(3), frac(1, 2)), 4, 6, 2),     # stops where 3 + w/2 does not divide
        (wpoly(frac(1)), 5, 2, 0),                 # the whole denominator goes
        (wpoly(frac(-2)), 0, 3, 3),                # a constant never divides
    ])
    def test_calls_neither_eval_at_nor_divexact(self, monkeypatch, p, j, m, left):
        num, den = p * one_plus_w_pow(j), one_plus_w_pow(m)
        want = self.reference(num, den)

        def forbidden(*args, **kwargs):
            raise AssertionError("the (1 + w)^m path evaluated or long-divided")

        monkeypatch.setattr(WPolynomial, "eval_at", forbidden)
        monkeypatch.setattr(WPolynomial, "divexact", forbidden)
        got = WRational(num, den)
        assert got.den.degree == left
        assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs)


class TestSharedDenominatorSum:
    """Over a shared denominator, + and - add numerators; the result is the cross-multiplied one."""

    DENS = [one_plus_w_pow(m) for m in range(7)] + [
        wpoly(frac(4), frac(-4), frac(1)),          # (w - 2)^2
        wpoly(frac(1), frac(1), frac(1)),           # w^2 + w + 1
        wpoly(frac(-3), frac(-2), frac(1)),         # (w + 1)(w - 3)
    ]

    @staticmethod
    def reference(p, q, d, op) -> WRational:
        return WRational(op(p * d, q * d), d * d)

    @given(polys(max_degree=5), polys(max_degree=5), st.sampled_from(DENS),
           st.sampled_from([operator.add, operator.sub]))
    @example(wpoly(frac(2), frac(1)), wpoly(frac(2), frac(1)), one_plus_w_pow(3), operator.sub)
    @example(wpoly(frac(1, 2)), wpoly(frac(-1, 2)), wpoly(frac(4), frac(-4), frac(1)), operator.add)
    @example(wpoly(frac(1)), wpoly(frac(0), frac(1)), one_plus_w_pow(3), operator.add)
    @example(wpoly(frac(3), frac(1)), wpoly(frac(1), frac(0), frac(1)), one_plus_w_pow(5), operator.sub)
    @example(wpoly(frac(-2)), wpoly(frac(-1), frac(1)), wpoly(frac(-3), frac(-2), frac(1)), operator.add)
    @settings(max_examples=150, deadline=None)
    def test_matches_cross_multiplied_form(self, p, q, d, op):
        got, want = op(WRational(p, d), WRational(q, d)), self.reference(p, q, d, op)
        assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs)
        assert hash(got) == hash(want)

    @pytest.mark.parametrize("p, q, d, op, want", [
        # 1/(1+w)^3 + w/(1+w)^3 gains a (1 + w) factor
        (wpoly(frac(1)), wpoly(frac(0), frac(1)), one_plus_w_pow(3), operator.add, "1/(1 + w)^2"),
        # (3 + w) - (w^2 + 1) = -(w + 1)(w - 2) over (1 + w)^5
        (wpoly(frac(3), frac(1)), wpoly(frac(1), frac(0), frac(1)), one_plus_w_pow(5), operator.sub,
         "-(w - 2)/(1 + w)^4"),
        # cancellation to 0, on both reduction paths
        (wpoly(frac(2), frac(1)), wpoly(frac(2), frac(1)), one_plus_w_pow(3), operator.sub, "0"),
        (wpoly(frac(1, 2)), wpoly(frac(-1, 2)), wpoly(frac(4), frac(-4), frac(1)), operator.add, "0"),
        # polynomials: denominator 1
        (wpoly(frac(1), frac(1)), wpoly(frac(0), frac(2)), wpoly(frac(1)), operator.add, "3*w + 1"),
        # the gcd path: -2 + (w - 1) = w - 3 cancels against (w + 1)(w - 3)
        (wpoly(frac(-2)), wpoly(frac(-1), frac(1)), wpoly(frac(-3), frac(-2), frac(1)), operator.add,
         "1/(1 + w)"),
    ])
    def test_multiplies_no_polynomials(self, monkeypatch, p, q, d, op, want):
        a, b = WRational(p, d), WRational(q, d)
        assert a.den.coeffs == b.den.coeffs

        def forbidden(*args, **kwargs):
            raise AssertionError("a shared-denominator sum multiplied polynomials")

        monkeypatch.setattr(WPolynomial, "__mul__", forbidden)
        assert str(op(a, b)) == want


class TestRendering:
    # The three table rows every front end pins, plus fractional-content folding.
    PINNED = [
        "2/(1 + w)",
        "-2*w/(1 + w)^2",
        "2*w*(w - 1)/(1 + w)^3",
        "-2*w*(w^2 - 4*w + 1)/(1 + w)^4",
        "w/2",
        "(w + 1)/2",
        "-(w + 1)/2",
        "3*w/2",
        "-1/2",
        "w/(2*(1 + w))",
        "w^2*(w + 1)/2",
        "w - 1",
        "0",
        "1",
    ]

    @pytest.mark.parametrize("text", PINNED)
    def test_round_trip(self, text):
        assert str(QW.parse(text)) == text

    def test_half_w_folds_content_into_denominator(self):
        r = W * QW.of(frac(1, 2))
        assert str(r) == "w/2"

    def test_latex(self):
        assert (QW.of(frac(2)) / (W + ONE)).latex() == r"\frac{2}{(1 + w)}"
        assert (QW.of(frac(-2)) * W / (W + ONE) ** 2).latex() == r"\frac{-2 w}{(1 + w)^{2}}"
        assert W.latex() == "w"

    def test_parse_ignores_whitespace(self):
        assert str(QW.parse(" 2*w*(w - 1) / (1 + w)^3 ")) == "2*w*(w - 1)/(1 + w)^3"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="unexpected character 'v'"):
            QW.parse("2*v")

    def test_parse_rejects_deep_nesting(self):
        assert QW.parse("(" * 50 + "w" + ")" * 50) == W
        with pytest.raises(ValueError, match="nested too deeply"):
            QW.parse("(" * 300 + "w" + ")" * 300)

    @given(rationals())
    @settings(max_examples=50, deadline=None)
    def test_render_parse_round_trip(self, r):
        assert QW.parse(str(r)) == r


class TestFieldAxioms:
    @given(rationals(), rationals(), rationals())
    @settings(max_examples=40, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(rationals())
    @settings(max_examples=40, deadline=None)
    def test_additive_inverse(self, a):
        assert (a - a).is_zero()
        assert a + ZERO == a

    @given(rationals().filter(lambda r: not r.is_zero()))
    @settings(max_examples=40, deadline=None)
    def test_multiplicative_inverse(self, a):
        assert a * (ONE / a) == ONE

    @given(rationals(), st.integers(min_value=0, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_pow_matches_repeated_mul(self, a, k):
        acc = ONE
        for _ in range(k):
            acc = acc * a
        assert a**k == acc


class TestEvaluation:
    def test_eval_at(self):
        r = QW.parse("2*w*(w - 1)/(1 + w)^3")
        assert r.eval_at(frac(4)) == frac(2 * 4 * 3, 5**3)

    def test_pole_raises(self):
        with pytest.raises(ValueError, match="pole at w = -1"):
            (ONE / (W + ONE)).eval_at(frac(-1))

    @given(rationals(), st.sampled_from([frac(2), frac(3), frac(5, 2)]))
    @settings(max_examples=40, deadline=None)
    def test_evaluation_is_a_homomorphism(self, a, w0):
        b = QW.parse("(w + 1)/2")
        try:
            va, vb = a.eval_at(w0), b.eval_at(w0)
        except ValueError:
            return  # w0 hit a pole of a random denominator
        assert (a + b).eval_at(w0) == va + vb
        assert (a * b).eval_at(w0) == va * vb


class TestPolynomialHelpers:
    def test_poly_gcd_primitive(self):
        a = WPolynomial(QQ, (frac(-1), frac(0), frac(1)), "w")  # w^2 - 1
        b = WPolynomial(QQ, (frac(2), frac(2)), "w")  # 2w + 2
        g = poly_gcd(a, b)
        assert str(g) == "w + 1"

    def test_one_plus_w_pow(self):
        assert str(one_plus_w_pow(3)) == "w^3 + 3*w^2 + 3*w + 1"
        assert one_plus_w_pow(0).is_one()

    def test_divmod(self):
        a = WPolynomial(QQ, (frac(-1), frac(0), frac(1)), "w")
        q, r = a.divmod(WPolynomial(QQ, (frac(1), frac(1)), "w"))
        assert str(q) == "w - 1" and r.is_zero()

    def test_binary_power_product_order(self):
        # words concatenate, so each product is logged by its two factors;
        # the last squaring is made even though its result is not used
        log = []

        class Word(str):
            def __mul__(self, other):
                log.append((str(self), str(other)))
                return Word(self + other)

        assert binary_power(Word("a"), 5, Word("")) == "aaaaa"
        assert log == [("", "a"), ("a", "a"), ("aa", "aa"), ("a", "aaaa"), ("aaaa", "aaaa")]
        assert binary_power(Word("a"), 0, Word("")) == ""


class TestCombinatorics:
    def test_binomial_values(self):
        assert [binomial(4, k) for k in range(5)] == [1, 4, 6, 4, 1]

    def test_binomial_outside_range_is_zero(self):
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0

    def test_multinomial(self):
        assert multinomial(4, (2, 1, 1)) == 12
        assert multinomial(0, ()) == 1

    @given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_pascal(self, n, k):
        assert binomial(n + 1, k + 1) == binomial(n, k) + binomial(n, k + 1)


class TestQQAdapter:
    def test_round_trip(self):
        assert QQ.parse("-7/3") == frac(-7, 3)
        assert QQ.render(frac(-7, 3)) == "-7/3"
        assert QQ.latex(frac(-7, 3)) == r"-\frac{7}{3}"
        assert QQ.of(frac(5)) == frac(5)
        assert QQ.zero == 0 and QQ.one == 1


class TestOnePolynomialType:
    """Polynomials in w and in x are one class; results stay in the field."""

    def test_one_class(self):
        import weuler.ratfunc
        import weuler.umbral

        assert weuler.ratfunc.WPolynomial is weuler.umbral.XPolynomial
        assert weuler.ratfunc.WPolynomial is weuler.ratfunc.Polynomial

    @staticmethod
    def scalars(field):
        if field is QQ:
            return st.one_of(st.integers(-3, 3), small_fracs)
        return st.one_of(
            st.integers(-3, 3),
            small_fracs,
            st.builds(lambda a, b: QW.of(a) * W + b, small_fracs, small_fracs),
            st.builds(lambda a, b: (W - a) / (W + ONE) ** b, small_fracs, st.integers(1, 2)),
        )

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_results_are_field_elements(self, data):
        field = data.draw(st.sampled_from([QQ, QW]))
        element_type = Fraction if field is QQ else WRational
        scalars = self.scalars(field)
        poly = st.lists(scalars, max_size=4).map(lambda cs: WPolynomial(field, cs))
        p, q = data.draw(poly), data.draw(poly)
        c = data.draw(scalars)
        results = [
            p, p + q, p - q, p * q, p + c, c + p, p - c, c - p, p * c, c * p,
            p.scale(c), p.derivative(), p.shifted(c), -p,
        ]
        for r in results:
            assert r.field is field
            assert all(type(coeff) is element_type for coeff in r.coeffs), r
            assert not r.coeffs or r.coeffs[-1] != field.zero


class TestDot:
    """field.dot(xs, ys) is the left-to-right sum of the products, in canonical form."""

    @staticmethod
    def plain(field, xs, ys):
        acc = field.zero
        for x, y in zip(xs, ys):
            acc = acc + x * y
        return acc

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_plain_sum(self, data):
        field = data.draw(st.sampled_from([QQ, QW]))
        scalars = st.one_of(st.just(0), TestOnePolynomialType.scalars(field)).map(field.of)
        size = data.draw(st.integers(0, 6))
        xs = data.draw(st.lists(scalars, min_size=size, max_size=size))
        ys = data.draw(st.lists(scalars, min_size=size, max_size=size))
        got, want = field.dot(xs, ys), self.plain(field, xs, ys)
        assert type(got) is type(want)
        assert got == want and hash(got) == hash(want)
        if field is QQ:
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        else:
            assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs)

    @pytest.mark.parametrize("field", [QQ, QW], ids=["QQ", "QW"])
    def test_empty_and_cancelling_inputs(self, field):
        assert field.dot([], []) == field.zero
        half = field.of(frac(1, 2))
        assert field.dot([half, half], [field.of(3), field.of(-3)]) == field.zero
        assert field.dot([field.zero, half], [field.of(5), field.of(4)]) == field.of(2)
