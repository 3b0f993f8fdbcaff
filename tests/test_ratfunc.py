"""Unit tests for exact rational-function arithmetic over Q(w)."""

import importlib.resources
import operator
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weuler import ratfunc
from weuler.dsl import check_corpus, parse_value
from weuler.euler import EulerTable
from weuler.ratfunc import (
    QQ,
    QW,
    W,
    Polynomial,
    WRational,
    binary_power,
    binomial,
    one_plus_w_pow,
    poly_gcd,
)
from weuler.series import Series

ONE = QW.one
ZERO = QW.zero


def frac(n, d=1):
    return Fraction(n, d)


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def polys(max_degree=3):
    return st.lists(small_fracs, min_size=1, max_size=max_degree + 1).map(
        lambda cs: Polynomial(QQ, tuple(cs), "w")
    )


def mixed_polys(max_degree):
    """Polynomials in w whose coefficients have assorted denominators."""
    coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=36)
    return st.lists(coeffs, min_size=1, max_size=max_degree + 1).map(
        lambda cs: Polynomial(QQ, tuple(cs), "w")
    )


def rationals():
    return st.builds(
        lambda num, den: WRational(num, den),
        polys(),
        polys().filter(lambda p: not p.is_zero()),
    )


def qw(text):
    """The element of Q(w) that `text` writes, read by the .uid parser."""
    return parse_value(text).coefficient(0)


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
        a = qw("2*w*(w - 1)/(1 + w)^3")
        b = (QW.of(frac(2)) * W * (W - ONE)) / one_plus_w_pow(3)
        assert a == b
        assert hash(a) == hash(b)

    def test_zero_normalizes(self):
        assert (W - W).is_zero()
        assert str(W - W) == "0"

    def test_constants_hash_as_their_value(self):
        assert len({WRational(3), 3}) == 1
        assert {3: "three"}.get(WRational(3)) == "three"
        assert hash(Polynomial(QQ, [1, 2])) == hash(Polynomial(QW, [1, 2]))
        assert hash(Polynomial(QW, [])) == hash(Polynomial(QQ, [])) == hash(0)

    @staticmethod
    def equal_forms(value) -> list:
        """value as each type that can equal it."""
        r = WRational.promote(value)
        forms = [value, r, Polynomial(QW, [r])]
        if r.is_polynomial():
            forms.append(r.num)                        # a polynomial in w over Q
            if r.num.degree <= 0:
                c = QQ.of(r)
                forms += [c, Polynomial(QQ, [c]), Polynomial(QQ, [c, 1]), Polynomial(QW, [c, 1])]
                if c.denominator == 1:
                    forms.append(int(c))
        return forms

    @given(st.lists(st.one_of(rationals(), small_fracs, st.integers(-3, 3)), min_size=2, max_size=2))
    @settings(max_examples=80, deadline=None)
    def test_equal_values_hash_alike(self, values):
        forms = [f for v in values for f in self.equal_forms(v)]
        for a in forms:
            for b in forms:
                if a == b:
                    assert hash(a) == hash(b), (a, b)


def wpoly(*coeffs):
    return Polynomial(QQ, coeffs, "w")


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

    @given(mixed_polys(max_degree=10), st.integers(0, 12), st.integers(0, 12))
    @example(wpoly(), 3, 4)
    @example(wpoly(frac(-3, 2)), 0, 5)
    @example(wpoly(frac(7)), 6, 2)
    @example(wpoly(frac(1, 2), frac(-2, 3), frac(5, 4), frac(-7, 30)), 12, 12)
    @settings(max_examples=150, deadline=None)
    def test_matches_gcd_reduction(self, p, j, m):
        num, den = p * one_plus_w_pow(j), one_plus_w_pow(m)
        got, want = WRational(num, den), self.reference(num, den)
        assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs)
        assert hash(got) == hash(want)

    @pytest.mark.parametrize("p, j, m, left", [
        # the row over 6 is (3 + 2w)(1+w)^3; stripped, 3/6 and 2/6 reduce
        (wpoly(frac(1, 2), frac(1, 3)), 3, 5, 2),
        # 1/2 + w/3 + w^2/5 does not vanish at -1: nothing strips
        (wpoly(frac(1, 2), frac(1, 3), frac(1, 5)), 0, 4, 4),
        # denominators 3, 5, 7 and 105 in the row; the whole denominator goes
        (wpoly(frac(2, 3), frac(-1, 5), frac(1, 7)), 5, 3, 0),
    ])
    def test_subtracts_no_fractions(self, monkeypatch, p, j, m, left):
        num, den = p * one_plus_w_pow(j), one_plus_w_pow(m)
        want = self.reference(num, den)

        def forbidden(*args, **kwargs):
            raise AssertionError("the (1 + w)^m path subtracted Fractions")

        monkeypatch.setattr(Fraction, "__sub__", forbidden)
        monkeypatch.setattr(Fraction, "__rsub__", forbidden)
        got = WRational(num, den)
        monkeypatch.undo()
        assert got.den.degree == left
        assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs)
        if left == m:
            assert got.num is num       # nothing came off: the numerator is kept as it is

    def test_div_w_plus_one_on_int_rows(self):
        # 2 - w - 2w^2 + w^3 = (1 + w)(2 - 3w + w^2)
        quot = ratfunc._div_w_plus_one([2, -1, -2, 1])
        assert quot == [2, -3, 1]
        assert all(type(c) is int for c in quot)
        # 1 + 2w + 3w^2 is 2 at w = -1
        assert ratfunc._div_w_plus_one([1, 2, 3]) is None

    def test_integer_row(self):
        assert ratfunc._integer_row((frac(1, 2), frac(-1, 3), frac(0), frac(5))) == ([3, -2, 0, 30], 6)

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

        monkeypatch.setattr(Polynomial, "eval_at", forbidden)
        monkeypatch.setattr(Polynomial, "divexact", forbidden)
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

        monkeypatch.setattr(Polynomial, "__mul__", forbidden)
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
        assert str(parse_value(text)) == text

    def test_half_w_folds_content_into_denominator(self):
        r = W * QW.of(frac(1, 2))
        assert str(r) == "w/2"

    def test_latex(self):
        assert (QW.of(frac(2)) / (W + ONE)).latex() == r"\frac{2}{(1 + w)}"
        assert (QW.of(frac(-2)) * W / (W + ONE) ** 2).latex() == r"\frac{-2 w}{(1 + w)^{2}}"
        assert W.latex() == "w"
        # fractional coefficients and a denominator that is no power of (1 + w)
        r = (W * W * QW.of(frac(-3, 7)) + W) / (W * W + ONE)
        assert r.latex() == r"\frac{-\frac{3}{7} w^{2} + w}{w^{2} + 1}"

    @given(rationals())
    @example(-W * W)
    @example(-W / (W + ONE))
    @settings(max_examples=50, deadline=None)
    def test_rendered_rational_parses_back(self, r):
        assert parse_value(str(r)) == r

    @given(st.lists(rationals(), max_size=4))
    @example([QW.of(frac(-1, 2)), -W * W, W / QW.of(frac(2))])
    @settings(max_examples=50, deadline=None)
    def test_rendered_polynomial_in_x_parses_back(self, coeffs):
        p = Polynomial(QW, coeffs)
        assert parse_value(str(p)) == p


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
        r = qw("2*w*(w - 1)/(1 + w)^3")
        assert r.eval_at(frac(4)) == frac(2 * 4 * 3, 5**3)

    def test_pole_raises(self):
        with pytest.raises(ValueError, match="pole at w = -1"):
            (ONE / (W + ONE)).eval_at(frac(-1))

    @given(rationals(), st.sampled_from([frac(2), frac(3), frac(5, 2)]))
    @settings(max_examples=40, deadline=None)
    def test_evaluation_is_a_homomorphism(self, a, w0):
        b = qw("(w + 1)/2")
        try:
            va, vb = a.eval_at(w0), b.eval_at(w0)
        except ValueError:
            return  # w0 hit a pole of a random denominator
        assert (a + b).eval_at(w0) == va + vb
        assert (a * b).eval_at(w0) == va * vb


class TestPolynomialHelpers:
    def test_poly_gcd_primitive(self):
        a = Polynomial(QQ, (frac(-1), frac(0), frac(1)), "w")  # w^2 - 1
        b = Polynomial(QQ, (frac(2), frac(2)), "w")  # 2w + 2
        g = poly_gcd(a, b)
        assert str(g) == "w + 1"

    def test_one_plus_w_pow(self):
        assert str(one_plus_w_pow(3)) == "w^3 + 3*w^2 + 3*w + 1"
        assert one_plus_w_pow(0).is_one()

    def test_divmod(self):
        a = Polynomial(QQ, (frac(-1), frac(0), frac(1)), "w")
        q, r = a.divmod(Polynomial(QQ, (frac(1), frac(1)), "w"))
        assert str(q) == "w - 1" and r.is_zero()

    def test_monomial_rejects_a_negative_exponent(self):
        assert Polynomial.monomial(QQ, 2, frac(3)).coeffs == (0, 0, 3)
        with pytest.raises(ValueError, match="must be nonnegative, got -1"):
            Polynomial.monomial(QQ, -1)

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

    @given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_pascal(self, n, k):
        assert binomial(n + 1, k + 1) == binomial(n, k) + binomial(n, k + 1)


class TestQQAdapter:
    def test_round_trip(self):
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
        poly = st.lists(scalars, max_size=4).map(lambda cs: Polynomial(field, cs))
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


def schoolbook(p, q):
    """p * q by the double loop: zero coefficients skipped, terms added by ascending i."""
    a, b = p.coeffs, q.coeffs
    out = [p.field.zero] * max(len(a) + len(b) - 1, 0)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                if cb:
                    out[j] += ca * cb
    return Polynomial(p.field, out, p.var)


def product_operands():
    """(field, xs, ys): coefficient lists with zeros, empty lists and constants among them."""
    def lists(field):
        scalars = st.one_of(st.just(0), TestOnePolynomialType.scalars(field)).map(field.of)
        return st.lists(scalars, max_size=6)

    return st.sampled_from([QQ, QW]).flatmap(
        lambda field: st.tuples(st.just(field), lists(field), lists(field)))


def sparse(field, n, step=3):
    """n coefficients, every `step`-th zero, the rest small distinct nonzero values."""
    if field is QQ:
        return [frac(0) if i % step == 1 else frac(i - 4, i % 4 + 1) for i in range(n)]
    return [ZERO if i % step == 1 else (W - frac(i)) / (W + ONE) ** (i % 2) for i in range(n)]


# Each product is taken at the module's cutoff and with every product on
# field.dot (cutoff 0), so both paths are compared with the double loop.
CUTOFFS = (ratfunc.DOT_MIN_PRODUCTS, 0)


class TestPolynomialProduct:
    """Polynomial.__mul__ agrees with the double loop on either side of DOT_MIN_PRODUCTS."""

    @given(product_operands())
    @example((QQ, [], [frac(1)]))
    @example((QQ, [frac(2)], [frac(1), frac(0), frac(-3)]))
    @example((QQ, [frac(1), frac(0), frac(0), frac(1, 2)], [frac(0), frac(3)]))
    @example((QQ, sparse(QQ, 10), sparse(QQ, 10)))
    @example((QQ, sparse(QQ, 1), sparse(QQ, 120)))
    @example((QQ, sparse(QQ, 9), sparse(QQ, 11)))
    @example((QW, [ONE], []))
    @example((QW, [W, ZERO, ONE / (W + ONE)], [ZERO, W - ONE]))
    @example((QW, sparse(QW, 12), sparse(QW, 9)))
    @settings(max_examples=150, deadline=None)
    def test_matches_schoolbook(self, operands):
        field, xs, ys = operands
        element_type = Fraction if field is QQ else WRational
        for var in ("x", "w") if field is QQ else ("x",):
            p, q = Polynomial(field, xs, var), Polynomial(field, ys, var)
            for left, right in ((p, q), (q, p)):
                want = schoolbook(left, right)
                for cutoff in CUTOFFS:
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(ratfunc, "DOT_MIN_PRODUCTS", cutoff)
                        got = left * right
                    assert got.var == var and got.field is field
                    assert got.coeffs == want.coeffs     # canonical forms, so structural
                    assert all(type(c) is element_type for c in got.coeffs)
                    assert hash(got) == hash(want)

    @pytest.mark.parametrize("cutoff", CUTOFFS)
    @pytest.mark.parametrize("xs, ys", [
        ([W, ZERO, ONE / (W + ONE), ZERO, QW.of(3)], [ZERO, W - ONE, ZERO, QW.of(frac(1, 2))]),
        ([ZERO, ZERO, W], [W + ONE, ZERO, ZERO, ONE]),
        ([QW.of(2)], [ZERO, W, ZERO]),
        (sparse(QW, 10), sparse(QW, 10, step=2)),
    ])
    def test_makes_the_schoolbook_wrational_operations(self, monkeypatch, cutoff, xs, ys):
        # x-polynomials over Q(w), as the check command multiplies them, make
        # the same adds and products on the same operands.  The double loop
        # interleaves the coefficients, so the calls are compared as a
        # multiset; an add's left operand is its coefficient's running sum,
        # so each coefficient's chain of adds matches too.
        log = []

        def logged(name, fn):
            def op(self, other):
                log.append((name, self.num.coeffs, self.den.coeffs, other.num.coeffs, other.den.coeffs))
                return fn(self, other)
            return op

        monkeypatch.setattr(ratfunc, "DOT_MIN_PRODUCTS", cutoff)
        monkeypatch.setattr(WRational, "__add__", logged("add", WRational.__add__))
        monkeypatch.setattr(WRational, "__mul__", logged("mul", WRational.__mul__))
        p, q = Polynomial(QW, xs), Polynomial(QW, ys)
        for left, right in ((p, q), (q, p)):
            del log[:]
            want = schoolbook(left, right)
            want_log = list(log)
            del log[:]
            got = left * right
            assert got.coeffs == want.coeffs
            assert want_log and Counter(log) == Counter(want_log)

    def test_check_products_stay_below_the_cutoff(self, monkeypatch):
        # the cutoff keeps every product of `check paper.uid --max-n 10` on
        # the double loop (ROADMAP item 1); the symbolic tables reach above it
        sizes = []
        mul = Polynomial.__mul__

        def sized(self, other):
            if isinstance(other, Polynomial):
                sizes.append(len(self.coeffs) * len(other.coeffs))
            return mul(self, other)

        monkeypatch.setattr(Polynomial, "__mul__", sized)
        text = importlib.resources.files("weuler").joinpath("corpus/paper.uid").read_text(
            encoding="utf-8")
        assert all(v.status == "pass" for v in check_corpus(text, max_n=10))
        assert sizes and max(sizes) < ratfunc.DOT_MIN_PRODUCTS
        del sizes[:]
        EulerTable.build(16)
        assert max(sizes) >= ratfunc.DOT_MIN_PRODUCTS


# denominators of the scalar-product operands: (1 + w)^m, and w - 2 times it
SCALAR_DENS = [one_plus_w_pow(m) for m in range(4)] + [one_plus_w_pow(m) * wpoly(-2, 1) for m in range(3)]
rational_scalars = st.one_of(st.integers(-6, 6), st.fractions(-5, 5, max_denominator=7))


class TestScalarProduct:
    """WRational times an int or Fraction scales the numerator over the same denominator."""

    @given(mixed_polys(max_degree=5), st.sampled_from(SCALAR_DENS), rational_scalars)
    @example(wpoly(1, 1), one_plus_w_pow(2), 0)
    @example(wpoly(frac(1, 2), -3), wpoly(-2, 1), frac(-4, 9))
    @settings(max_examples=120, deadline=None)
    def test_matches_the_constructor(self, num, den, c):
        x = WRational(num, den)
        want = WRational(x.num * c, x.den)
        for got in (x * c, c * x):
            assert type(got) is WRational
            assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs)
            assert all(type(coeff) is Fraction for coeff in got.num.coeffs)
            assert hash(got) == hash(want)

    def test_builds_no_polynomial_product(self, monkeypatch):
        x = (W - 2) / (W + ONE) ** 3
        want = {c: WRational(x.num * c, x.den) for c in (3, frac(-2, 3), 0)}

        def refuse(self, other):
            raise AssertionError("a scalar product built a polynomial product")

        monkeypatch.setattr(Polynomial, "__mul__", refuse)
        for c, expect in want.items():
            assert x * c == expect and c * x == expect

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_scale_by_a_python_scalar_matches_the_field_element(self, data):
        field = data.draw(st.sampled_from([QQ, QW]))
        coeffs = data.draw(st.lists(TestOnePolynomialType.scalars(field), max_size=5))
        c = data.draw(rational_scalars)
        p = Polynomial(field, coeffs)
        got, want = p.scale(c), p.scale(field.of(c))
        assert got.var == want.var and got.coeffs == want.coeffs
        assert all(type(coeff) is type(field.zero) for coeff in got.coeffs)
        s = Series(field, coeffs or [0])
        assert s.scale(c) == s.scale(field.of(c))
