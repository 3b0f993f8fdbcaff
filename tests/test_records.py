"""What weuler's plain data classes promise: the .uid syntax nodes, the check
verdicts, the suite report and the p-adic reports.

Equality is by exact class and fields (an Identity's source text left out);
the syntax nodes hash and refuse assignment; constructors keep their
positional order and keyword defaults; repr names every field; `replace`
keeps the fields it is not given.
"""

from fractions import Fraction

import pytest

from weuler.dsl import (
    Binom, Chain, ECall, Identity, IndexExpr, Lit, PowExpr, SumExpr, Sym, Token, Verdict,
    parse_identity, replace,
)
from weuler.euler import CheckResult, Report
from weuler.padic import (
    ConvergenceReport, LevelRow, ShiftReport, convergence_report, shift_identity_check,
)

N = IndexExpr(((1, "n"),))
ONE = IndexExpr(((1, None),))

FROZEN = [
    Token("int", "3", 1, 5),
    N,
    Lit(Fraction(1, 2)),
    Sym("w"),
    ECall(None, N, 1),
    Binom(N, ONE),
    SumExpr("i", ONE, N, Sym("x")),
    Chain(Sym("x"), (("+", Sym("w")),)),
    PowExpr(Sym("x"), N),
    Identity("n", 0, 2, Sym("x"), Sym("x"), "forall n in 0..2 : x = x"),
]
MUTABLE = [
    Verdict("pass", "x = x"),
    CheckResult("(a) lowering", "pass"),
    Report(2, 1, [CheckResult("(a) lowering", "pass")]),
    LevelRow(1, Fraction(3), 2),
    convergence_report([1], 4, 3, 2, 12),
    shift_identity_check([1], 4, 3, 2, 12),
]


class TestEquality:
    @pytest.mark.parametrize("a, b", [
        (Lit("w"), Sym("w")),
        (Binom(N, ONE), PowExpr(N, ONE)),
        (CheckResult("x", "pass"), Verdict("x", "pass")),
    ], ids=["Lit-Sym", "Binom-PowExpr", "CheckResult-Verdict"])
    def test_two_classes_with_equal_fields_are_unequal(self, a, b):
        assert a != b and b != a
        assert (a == b) is False

    def test_equal_fields_of_one_class_are_equal(self):
        assert Binom(N, ONE) == Binom(IndexExpr(((1, "n"),)), IndexExpr(((1, None),)))
        assert Binom(N, ONE) != Binom(ONE, N)
        assert Verdict("fail", "s", at=2) == Verdict("fail", "s", 2)
        assert Verdict("fail", "s", at=2) != Verdict("fail", "s", at=3)

    def test_identity_equality_ignores_its_source(self):
        a = Identity("n", 0, 2, Sym("x"), Sym("x"), "one text")
        b = Identity("n", 0, 2, Sym("x"), Sym("x"), "another")
        assert a == b and hash(a) == hash(b)
        assert a != Identity("n", 0, 3, Sym("x"), Sym("x"), "one text")
        assert a != Identity("n", 0, 2, Sym("x"), Sym("w"), "one text")

    def test_identity_source_defaults_to_empty(self):
        assert Identity("n", 0, 2, Sym("x"), Sym("x")).source == ""


class TestFrozen:
    @pytest.mark.parametrize("node", FROZEN, ids=lambda node: type(node).__name__)
    def test_syntax_nodes_hash_and_refuse_assignment(self, node):
        assert hash(node) == hash(replace(node))
        field = sorted(vars(node))[0]
        with pytest.raises(AttributeError):
            setattr(node, field, None)
        with pytest.raises(AttributeError):
            delattr(node, field)
        with pytest.raises(AttributeError):
            node.extra = 1
        assert not hasattr(node, "extra")

    @pytest.mark.parametrize("record", MUTABLE, ids=lambda record: type(record).__name__)
    def test_the_other_records_are_unhashable_and_assignable(self, record):
        with pytest.raises(TypeError):
            hash(record)
        copy = replace(record)
        assert copy == record and copy is not record
        field = sorted(vars(copy))[0]
        setattr(copy, field, "changed")
        assert getattr(copy, field) == "changed" and copy != record


class TestConstructors:
    def test_verdict_keyword_defaults(self):
        v = Verdict("pass")
        assert (v.status, v.source, v.at, v.difference, v.message, v.location) == (
            "pass", "", None, None, None, None)
        v = Verdict("error", "s", message="m", location=(1, 2))
        assert (v.status, v.source, v.at, v.difference, v.message, v.location) == (
            "error", "s", None, None, "m", (1, 2))
        assert Verdict("fail", "s", 3, "1") == Verdict("fail", "s", at=3, difference="1")
        assert Verdict(status="pass", source="s").render_text() == "PASS  s"

    def test_check_result_default(self):
        assert CheckResult("(b)", "pass").counterexample is None

    def test_convergence_report_positional_order(self):
        r = convergence_report([1], 4, 3, 3, 12)
        again = ConvergenceReport(r.p, r.w, r.target, r.rows, r.zero_bound)
        assert again == r and again.to_json() == r.to_json()
        assert (r.p, r.w, r.zero_bound) == (3, Fraction(4), 48)
        assert [row.level for row in r.rows] == [1, 2, 3]

    def test_shift_report_positional_order(self):
        r = shift_identity_check([1, 1], 4, 3, 3, 12)
        again = ShiftReport(r.p, r.w, r.symbolic_ok, r.symbolic_difference, r.expected,
                            r.rows, r.zero_bound)
        assert again == r and again.render_text() == r.render_text()
        assert (r.p, r.w, r.symbolic_ok, r.expected, r.zero_bound) == (3, Fraction(4), True, 2, 48)

    def test_level_row_positional_order(self):
        row = LevelRow(2, Fraction(5), None)
        assert (row.level, row.partial_sum, row.deviation_valuation, row.exact_zero) == (
            2, Fraction(5), None, True)

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}),                                          # a field without a default missing
        (("pass", "s", 1, "d", "m", (1, 1), "extra"), {}),  # one positional too many
        (("pass",), {"status": "fail"}),                   # a field given twice
        (("pass",), {"where": 1}),                         # no such field
    ])
    def test_a_wrong_argument_list_is_a_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            Verdict(*args, **kwargs)


class TestReprAndReplace:
    def test_repr_names_every_field(self):
        assert repr(Sym("w")) == "Sym(name='w')"
        assert repr(Identity("n", 0, 2, Sym("x"), Sym("w"), "s")) == (
            "Identity(var='n', lo=0, hi=2, lhs=Sym(name='x'), rhs=Sym(name='w'), source='s')")
        assert repr(Verdict("pass")) == (
            "Verdict(status='pass', source='', at=None, difference=None, message=None,"
            " location=None)")

    def test_replace_keeps_the_other_fields(self):
        ast = parse_identity("forall n in 0..3 : E(n, x) = x^n  # a comment")
        new = replace(ast, source="E(n, x) = x^n")
        assert type(new) is Identity and new.source == "E(n, x) = x^n"
        assert (new.var, new.lo, new.hi, new.lhs, new.rhs) == (ast.var, ast.lo, ast.hi, ast.lhs, ast.rhs)
        verdict = replace(Verdict("fail", "a", at=3, difference="1"), source="b")
        assert verdict == Verdict("fail", "b", at=3, difference="1")

    def test_replace_rejects_an_unknown_field(self):
        with pytest.raises(TypeError):
            replace(Sym("w"), value="x")
