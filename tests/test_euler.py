"""Unit tests for weighted Euler numbers, polynomials and the identity suite."""

import itertools
import json
import math
from fractions import Fraction

import pytest

from weuler import cli, euler
from weuler.euler import (
    EulerTable,
    TableChain,
    classical_euler_polys,
    gf_denominator,
    order_k_multinomial,
    order_k_numbers,
    verify_paper_suite,
    weighted_euler_gf,
    weighted_euler_numbers,
    weighted_euler_polys,
)
from weuler.ratfunc import QQ, QW, W, WRational, binomial
from weuler.series import Series, exp_series
from weuler.umbral import XPolynomial, apply_functional, pairing

# Frozen oracle: first symbolic weighted Euler numbers, derived by hand from
# (1+w) E_n = 2*[n=0] - w * sum_{j<n} C(n,j) E_j and cross-checked against the
# generating-function inversion below.
PINNED_NUMBERS = [
    "2/(1 + w)",
    "-2*w/(1 + w)^2",
    "2*w*(w - 1)/(1 + w)^3",
    "-2*w*(w^2 - 4*w + 1)/(1 + w)^4",
    "2*w*(w^3 - 11*w^2 + 11*w - 1)/(1 + w)^5",
]

# Frozen oracle: classical Euler-polynomial values E_n(0) for w = 1
# (2(1 - 2^{n+1}) B_{n+1} / (n+1)).
CLASSICAL_AT_ZERO = ["1", "-1/2", "0", "1/4", "0", "-1/2", "0", "17/8"]


class TestNumbers:
    def test_pinned_symbolic_values(self):
        got = [QW.render(v) for v in weighted_euler_numbers(5)]
        assert got == PINNED_NUMBERS

    def test_recurrence_matches_series_inversion(self):
        gf = weighted_euler_gf(10)
        rec = weighted_euler_numbers(10)
        assert all(gf.umbral_coefficient(n) == rec[n] for n in range(10))

    def test_recurrence_law(self):
        # (1+w) E_n + w * sum_{j<n} C(n,j) E_j = 2 [n=0]
        e = weighted_euler_numbers(8)
        one_plus = W + QW.one
        for n in range(8):
            rhs = QW.of(Fraction(2)) if n == 0 else QW.zero
            partial = QW.zero
            for j in range(n):
                partial = partial + e[j] * QW.of(Fraction(binomial(n, j)))
            assert one_plus * e[n] + W * partial == rhs

    def test_numeric_weight(self):
        got = weighted_euler_numbers(4, w=Fraction(4))
        assert got == [Fraction(2, 5), Fraction(-8, 25), Fraction(24, 125), Fraction(-8, 625)]

    def test_pole_weight_rejected(self):
        with pytest.raises((ValueError, ZeroDivisionError)):
            weighted_euler_numbers(3, w=Fraction(-1))


class TestSympyOracle:
    def test_numbers_against_independent_cas(self):
        # Third route: n-th t-derivatives of 2/(w e^t + 1) at t = 0 in sympy,
        # compared against our renderer through sympy's own simplifier.
        sympy = pytest.importorskip("sympy")
        from sympy.parsing.sympy_parser import (
            convert_xor,
            parse_expr,
            standard_transformations,
        )

        t, w = sympy.symbols("t w")
        transforms = standard_transformations + (convert_xor,)
        expr = 2 / (w * sympy.exp(t) + 1)
        for value in weighted_euler_numbers(8):
            oracle = expr.subs(t, 0)
            mine = parse_expr(QW.render(value), transformations=transforms, local_dict={"w": w})
            assert sympy.simplify(mine - oracle) == 0
            expr = sympy.diff(expr, t)


class TestPolynomials:
    def test_binomial_form(self):
        polys = weighted_euler_polys(7)
        nums = weighted_euler_numbers(7)
        for n in range(7):
            for i in range(n + 1):
                expect = nums[n - i] * QW.of(Fraction(binomial(n, i)))
                assert polys[n].coefficient(i) == expect

    def test_value_at_zero_is_the_number(self):
        polys = weighted_euler_polys(7)
        nums = weighted_euler_numbers(7)
        assert [p.coefficient(0) for p in polys] == nums

    def test_reflection_identity(self):
        polys = weighted_euler_polys(7)
        for n in range(7):
            lhs = polys[n].shifted(QW.one).scale(W) + polys[n]
            rhs = XPolynomial(QW, tuple([QW.zero] * n + [QW.of(Fraction(2))]))
            assert lhs == rhs

    def test_functional_and_operator_representations(self):
        gf = weighted_euler_gf(8)
        nums = weighted_euler_numbers(7)
        polys = weighted_euler_polys(7)
        for n in range(7):
            xn = XPolynomial(QW, tuple([QW.zero] * n + [QW.one]))
            assert pairing(gf, xn) == nums[n]
            assert apply_functional(gf, xn) == polys[n]


class TestOrderK:
    def test_gf_power_matches_convolution(self):
        e1 = weighted_euler_numbers(7)
        e2 = order_k_numbers(7, order=2)
        for n in range(7):
            acc = QW.zero
            for i in range(n + 1):
                acc = acc + e1[i] * e1[n - i] * QW.of(Fraction(binomial(n, i)))
            assert e2[n] == acc

    def test_degree_and_leading_coefficient(self):
        for k in (1, 2, 3):
            polys = weighted_euler_polys(6, order=k)
            lead = (QW.of(Fraction(2)) / (W + QW.one)) ** k
            for n in range(6):
                assert polys[n].degree == n
                assert polys[n].coefficient(n) == lead

    def test_multinomial_identity_both_ways(self):
        for k in (2, 3):
            for n in range(6):
                lhs, rhs = order_k_multinomial(k, n)
                assert lhs == rhs

    def test_multinomial_numeric_weight(self):
        lhs, rhs = order_k_multinomial(3, 5, w=Fraction(4))
        assert lhs == rhs

    def test_shared_numbers_build_each_product_from_its_prefix(self, monkeypatch):
        # in verify_paper_suite's order, k then n, every partition's product
        # is one multiplication of its prefix's, made in an earlier call
        numbers = weighted_euler_numbers(9)
        order_k = {k: order_k_numbers(9, k) for k in (1, 2, 3, 4)}
        fresh = {(k, n): order_k_multinomial(k, n, numbers=numbers, order_k=order_k[k])
                 for k in order_k for n in range(9)}
        products = {}
        real_mul = WRational.__mul__
        muls = 0

        def counting_mul(self, other):
            nonlocal muls
            muls += 1
            return real_mul(self, other)

        monkeypatch.setattr(WRational, "__mul__", counting_mul)
        for k in order_k:
            for n in range(9):
                muls = 0
                lhs, rhs = order_k_multinomial(k, n, numbers=numbers, order_k=order_k[k],
                                               products=products)
                partitions = sum(1 for parts in itertools.combinations_with_replacement(range(n + 1), k)
                                 if sum(parts) == n)
                assert muls == (partitions if k > 1 else 0), (k, n)
                want = fresh[k, n]
                assert (lhs, rhs) == want and hash(rhs) == hash(want[1]), (k, n)

    @pytest.mark.parametrize("w", [None, Fraction(4), Fraction(-3, 2)], ids=["Qw", "w=4", "w=-3/2"])
    def test_partition_sum_equals_composition_sum(self, w):
        # brute-force oracle: every ordered tuple (i_1..i_k) with sum n, each
        # weighted by n!/(i_1!...i_k!), as the identity is written
        numbers = weighted_euler_numbers(9, w)
        zero = QW.zero if w is None else Fraction(0)
        for k in (1, 2, 3, 4):
            for n in range(9):
                oracle = zero
                for parts in itertools.product(range(n + 1), repeat=k):
                    if sum(parts) != n:
                        continue
                    weight = math.factorial(n)
                    term = numbers[parts[0]]
                    for i in parts:
                        weight //= math.factorial(i)
                    for i in parts[1:]:
                        term = term * numbers[i]
                    oracle = oracle + weight * term
                lhs, rhs = order_k_multinomial(k, n, w=w, numbers=numbers)
                assert rhs == oracle, (k, n)
                assert lhs == rhs, (k, n)


class TestClassicalReduction:
    def test_independent_recurrence_values(self):
        polys = classical_euler_polys(8)
        got = [str(p.eval_at(Fraction(0))) for p in polys]
        assert got == CLASSICAL_AT_ZERO

    def test_weighted_at_one_reduces(self):
        weighted = weighted_euler_polys(9, w=Fraction(1))
        classical = classical_euler_polys(9)
        for wp, cp in zip(weighted, classical):
            assert wp.coeffs == cp.coeffs

    def test_symbolic_evaluation_at_one_reduces(self):
        weighted = weighted_euler_polys(6)
        classical = classical_euler_polys(6)
        for wp, cp in zip(weighted, classical):
            evaluated = [QW_eval(c) for c in wp.coeffs]
            assert evaluated == list(cp.coeffs)


def QW_eval(c, w0=Fraction(1)):
    return c.eval_at(w0)


def fraction_free_numbers(count, w):
    """E_{n,w} = N_n / D^{n+1} with w = a/b and D = a + b, in integers only.

    N_0 = 2b and N_n = -a sum_{j<n} C(n,j) N_j D^{n-1-j}: the recurrence
    (1+w) E_n = -w sum_{j<n} C(n,j) E_j cleared of denominators, as in
    Bareiss's fraction-free elimination (Math. Comp. 1968).
    """
    a, b = w.numerator, w.denominator
    d = a + b
    nums = [2 * b]
    for n in range(1, count):
        nums.append(-a * sum(binomial(n, j) * nums[j] * d ** (n - 1 - j) for j in range(n)))
    return [Fraction(num, d ** (n + 1)) for n, num in enumerate(nums)]


@pytest.mark.parametrize("w", [Fraction(4), Fraction(-3, 2), Fraction(7, 5), Fraction(-1, 4)],
                         ids=str)
def test_fixed_weight_numbers_match_fraction_free_oracle(w):
    # a third route to the numbers, with no gcd anywhere: the series inversion
    # and the triangular recurrence must both land on it exactly
    oracle = fraction_free_numbers(60, w)
    assert order_k_numbers(60, 1, w) == oracle
    assert weighted_euler_numbers(60, w) == oracle


class TestEulerTable:
    def test_build_validates(self):
        t = EulerTable.build(5, 2)
        assert len(t.numbers) == 5 and len(t.polys) == 5
        assert t.order == 2 and t.w0 is None

    def test_evaluation_commutes(self):
        sym = EulerTable.build(6, 1).evaluate(Fraction(4))
        direct = EulerTable.build(6, 1, w=Fraction(4))
        assert sym.numbers == direct.numbers
        assert [p.coeffs for p in sym.polys] == [p.coeffs for p in direct.polys]

    def test_perturbation_changes_polys_consistently(self):
        t = EulerTable.build(5, 1)
        mut = t.with_perturbed_number(2)
        assert mut.numbers[2] == t.numbers[2] + QW.one
        assert mut.numbers[0] == t.numbers[0]
        assert mut.polys[2].coefficient(0) == mut.numbers[2]

    def test_w_value(self):
        assert EulerTable.build(3, 1).w_value() == W
        assert EulerTable.build(3, 1, w=Fraction(4)).w_value() == Fraction(4)

    def test_polys_built_on_first_read(self):
        for w in (None, Fraction(-3, 2)):
            t = EulerTable.build(7, 2, w=w)
            assert t.polys == tuple(weighted_euler_polys(7, 2, w=w))
            assert t.polys is t.polys

    def test_numbers_command_builds_no_polys(self, capsys, monkeypatch):
        def refuse(field, numbers):
            raise AssertionError("numbers built the polynomials")

        monkeypatch.setattr(euler, "_polys_from_numbers", refuse)
        assert cli.main(["numbers", "--max-n", "6", "--w", "4"]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("0: 2/5\n")

    @pytest.mark.parametrize("w0", [Fraction(4), Fraction(-3, 2), Fraction(1)], ids=str)
    def test_evaluate_after_reading_polys(self, w0):
        # evaluate specializes the numbers only; the polynomials it reads are
        # rebuilt over Q from them, whatever the symbolic table had built
        sym = EulerTable.build(7, 2)
        assert sym.polys[6].degree == 6
        evaluated = sym.evaluate(w0)
        direct = EulerTable.build(7, 2, w=w0)
        assert evaluated.numbers == direct.numbers
        assert evaluated.polys == direct.polys
        assert evaluated.order == 2 and evaluated.w0 == w0

    def test_field_follows_the_weight(self):
        sym = EulerTable.build(4, 1)
        num = EulerTable.build(4, 1, w=4)
        tables = [sym, num, sym.evaluate(4), sym.with_perturbed_number(1),
                  num.with_perturbed_number(1), EulerTable(1, sym.numbers),
                  EulerTable(1, num.numbers, Fraction(4))]
        for t in tables:
            assert t.field is (QW if t.w0 is None else QQ)
        assert [t.field for t in tables[:4]] == [QW, QQ, QQ, QW]

    @pytest.mark.parametrize("w", [None, Fraction(4)], ids=["symbolic", "w=4"])
    def test_build_rejects_a_wrong_leading_number(self, monkeypatch, w):
        # a generating function with a wrong constant term gives a wrong E_0
        real = euler.gf_denominator

        def wrong_e0(precision, w=None):
            return real(precision, w).add_constant(1)

        monkeypatch.setattr(euler, "gf_denominator", wrong_e0)
        with pytest.raises(AssertionError, match="degree law broken at n=0"):
            EulerTable.build(5, 2, w=w)


class TestTableChain:
    @pytest.mark.parametrize("w", [None, Fraction(4), Fraction(-3, 2)],
                             ids=["symbolic", "w=4", "w=-3/2"])
    def test_chain_equals_independent_builds(self, w):
        # one chain read out of order equals a fresh build per order, and the
        # numbers equal the other route to GF^k: the power g^k, then its inverse
        chain = TableChain(8, w)
        for k in (3, 1, 4, 2):
            table, fresh = chain.table(k), EulerTable.build(8, k, w=w)
            assert table.order == k and table.w0 == fresh.w0
            assert table.numbers == fresh.numbers
            assert table.polys == fresh.polys
            inverted = (gf_denominator(8, w) ** k).inverse()
            assert list(table.numbers) == [inverted.umbral_coefficient(n) for n in range(8)]
            assert chain.table(k) is table

    @pytest.mark.parametrize("w", [None, Fraction(4), Fraction(-3, 2)],
                             ids=["symbolic", "w=4", "w=-3/2"])
    def test_gf_powers_equal_inverted_powers_of_g(self, w):
        chain = TableChain(7, w)
        for k in (1, 2, 3):
            power = weighted_euler_gf(7, k, w)
            assert power.coeffs == chain.power(k).coeffs
            assert power.coeffs == (gf_denominator(7, w) ** k).inverse().coeffs

    def test_count_and_order_below_one_are_rejected(self):
        for make in (lambda: TableChain(4).table(0), lambda: weighted_euler_gf(4, 0)):
            with pytest.raises(ValueError, match="order must be at least 1"):
                make()
        for make in (lambda: EulerTable.build(0), lambda: weighted_euler_gf(0)):
            with pytest.raises(ValueError, match="count must be at least 1"):
                make()

    def test_one_product_per_order(self, series_ops):
        chain = TableChain(8)
        for k in (3, 1, 2, 3):
            chain.table(k)
        assert series_ops == {"inverse": 1, "mul": 2}

    def test_suite_never_extends_a_supplied_table(self, monkeypatch):
        # the orders the caller left out come from the suite's own chain of
        # series powers, which no supplied table's numbers enter
        perturbed = EulerTable.build(8, 1).with_perturbed_number(3)
        fresh = {k: EulerTable.build(8, k) for k in (2, 3)}
        read = {}
        real_table = TableChain.table

        def recording_table(chain, order):
            table = real_table(chain, order)
            if chain.w0 is None:         # check (k) builds its own table at w = 1
                read[order] = table
            return table

        monkeypatch.setattr(TableChain, "table", recording_table)
        report = verify_paper_suite(8, 3, tables={1: perturbed})
        assert not report.passed
        assert sorted(read) == [2, 3]
        for k in (2, 3):
            assert read[k].numbers == fresh[k].numbers
            assert read[k].polys == fresh[k].polys

    def test_faulty_chain_is_caught_by_the_power_then_invert_route(self):
        # an order-3 table made from a perturbed GF^2 is what a faulty product
        # chain would build; (g) and (h) recompute GF^3 as (g^3)^{-1}, not
        # along the chain, so both must fail at k = 3
        t2 = EulerTable.build(8, 2).with_perturbed_number(4)
        lower = Series(QW, [e * Fraction(1, math.factorial(n)) for n, e in enumerate(t2.numbers)])
        power = lower * weighted_euler_gf(8)
        faulty = EulerTable(3, [power.umbral_coefficient(n) for n in range(8)])
        report = verify_paper_suite(8, 3, tables={3: faulty})
        by_label = {r.check[:3]: r for r in report.results}
        for label in ("(g)", "(h)"):
            assert by_label[label].status == "fail"
            assert by_label[label].counterexample["k"] == 3
            assert by_label[label].counterexample["n"] == 4
        for label in ("(a)", "(b)", "(c)", "(d)", "(e)", "(f)", "(j)", "(k)"):
            assert by_label[label].status == "pass"

    def test_suite_series_operation_budget(self, series_ops):
        # the order 1..4 chain: 1 inverse, 3 products; GF: 1 inverse;
        # (c): 1 product; (g)/(h): 3 powers of g, 3 inverses; (k) at w=1: 1 inverse
        assert verify_paper_suite(12, 4).passed
        assert series_ops["inverse"] <= 7 and series_ops["mul"] <= 7, series_ops

    def test_suite_series_operations_at_order_3(self, series_ops):
        # the order 1..3 chain: 1 inverse, 2 products; GF: 1 inverse;
        # (c): 1 product; (g)/(h): 2 powers of g, 2 inverses; (k) at w=1: 1 inverse
        assert verify_paper_suite(8, 3).passed
        assert series_ops == {"inverse": 5, "mul": 5}


class TestVerifySuite:
    def test_small_suite_all_pass(self):
        report = verify_paper_suite(6, 2)
        assert report.passed
        labels = [r.check for r in report.results]
        assert len(labels) == 11
        assert labels == sorted(labels)
        assert all(label.startswith("(") for label in labels)

    def test_boundary_suite(self):
        assert verify_paper_suite(2, 1).passed

    def test_numeric_weight_suite(self):
        tables = {k: EulerTable.build(6, k, w=Fraction(4)) for k in (1, 2)}
        assert verify_paper_suite(6, 2, tables=tables).passed

    def test_mutated_table_caught_with_spec_counterexample(self):
        t = EulerTable.build(6, 1)
        report = verify_paper_suite(6, 1, tables={1: t.with_perturbed_number(2)})
        assert not report.passed
        d = next(r for r in report.results if r.check.startswith("(d)"))
        assert d.status == "fail"
        assert d.counterexample == {"n": 2, "k": 1, "difference": "w + 1"}

    def test_report_serialization(self):
        report = verify_paper_suite(4, 1)
        rows = report.to_json()
        assert all(set(row) >= {"check", "status", "maxN", "maxK"} for row in rows)
        json.dumps(rows)  # must be plain JSON data
        text = report.render_text()
        assert text.endswith("result: ALL PASS")

    def test_failed_report_text(self):
        t = EulerTable.build(4, 1)
        report = verify_paper_suite(4, 1, tables={1: t.with_perturbed_number(1)})
        text = report.render_text()
        assert "FAIL" in text and text.endswith("result: FAILURES PRESENT")
        assert "difference" in text

    # Full reports of two faults pin the shared first-failure loop of every check.
    # An order-2 fault is found at k = 2 by (g), (h) and (i); an order-1 fault
    # reaches every check except (a), and (i) first fails at k = 2.
    ORDER_2_FAULT = (
        "verification suite: maxN=6 maxK=2\n"
        "(a) lowering                    PASS\n"
        "(b) appell inversion            PASS\n"
        "(c) operator recurrence         PASS\n"
        "(d) reflection                  PASS\n"
        "(e) functional representation   PASS\n"
        "(f) operator representation     PASS\n"
        "(g) order-k functional          FAIL\n"
        "                                at n=3, k=2: difference = -1\n"
        "(h) order-k binomial form       FAIL\n"
        "                                at n=3, k=2: difference = 1\n"
        "(i) multinomial                 FAIL\n"
        "                                at n=3, k=2: difference = 1\n"
        "(j) basis expansion of the GF   PASS\n"
        "(k) classical reduction at w=1  PASS\n"
        "result: FAILURES PRESENT"
    )
    ORDER_1_FAULT = (
        "verification suite: maxN=6 maxK=2\n"
        "(a) lowering                    PASS\n"
        "(b) appell inversion            FAIL\n"
        "                                at n=3, k=1: difference = (w + 1)/2\n"
        "(c) operator recurrence         FAIL\n"
        "                                at n=2, k=1: difference = 1\n"
        "(d) reflection                  FAIL\n"
        "                                at n=3, k=1: difference = w + 1\n"
        "(e) functional representation   FAIL\n"
        "                                at n=3, k=1: difference = -1\n"
        "(f) operator representation     FAIL\n"
        "                                at n=3, k=1: difference = -1\n"
        "(g) order-k functional          FAIL\n"
        "                                at n=3, k=1: difference = -1\n"
        "(h) order-k binomial form       FAIL\n"
        "                                at n=3, k=1: difference = 1\n"
        "(i) multinomial                 FAIL\n"
        "                                at n=3, k=2: difference = -4/(1 + w)\n"
        "(j) basis expansion of the GF   FAIL\n"
        "                                at n=3, k=1: difference = 1/6\n"
        "(k) classical reduction at w=1  FAIL\n"
        "                                at n=3, k=1: difference = 1\n"
        "result: FAILURES PRESENT"
    )

    @pytest.mark.parametrize("order, expected", [(2, ORDER_2_FAULT), (1, ORDER_1_FAULT)],
                             ids=["order2", "order1"])
    def test_first_failure_report_pinned(self, order, expected):
        tables = {order: EulerTable.build(6, order).with_perturbed_number(3)}
        assert verify_paper_suite(6, 2, tables=tables).render_text() == expected


class TestLatex:
    def test_numbers_rows(self, capsys):
        assert cli.main(["numbers", "--max-n", "2", "--format", "latex"]) == cli.EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == r"0 & $\frac{2}{(1 + w)}$ \\"
        assert all(row.endswith(r"\\") for row in rows)

    def test_polys_rows(self, capsys):
        assert cli.main(["polys", "--max-n", "2", "--format", "latex"]) == cli.EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 2
        assert all("&" in row and row.endswith(r"\\") for row in rows)
