"""Unit tests for the identity language: lexer, parser, evaluator, checker."""

import importlib.resources

import pytest

from weuler.dsl import (
    TOO_DEEP,
    DslParseError,
    TableContext,
    check_corpus,
    check_identity,
    parse_identity,
    render_identity,
    tokenize,
)
from weuler.euler import EulerTable

REFLECTION = "forall n in 0..8 : w*E(n, x + 1) + E(n, x) = 2*x^n"

# 400 nested parentheses are past Python's default recursion limit; a sum of
# 3000 terms, a left-deep tree 3000 nodes tall, is walked without recursing
DEEP_PARENS = "forall n in 0..2 : " + "(" * 400 + "E(n)" + ")" * 400 + " = E(n)"
LONG_SUM = "forall n in 0..2 : " + " + ".join(["E(n)"] * 3000) + " = 3000*E(n)"
WRONG_LONG_SUM = LONG_SUM.replace("3000*", "2999*")


@pytest.fixture(scope="module")
def ctx():
    return TableContext()


class TestTokenizer:
    def test_positions(self):
        toks = tokenize("w*E(2, x)\n  + 1")
        assert (toks[0].kind, toks[0].line, toks[0].column) == ("w", 1, 1)
        plus = next(t for t in toks if t.text == "+")
        assert (plus.line, plus.column) == (2, 3)
        assert toks[-1].kind == "end"

    def test_comments_end_the_line(self):
        toks = tokenize("1 # trailing words ( ^..")
        assert [t.kind for t in toks] == ["int", "end"]

    def test_bad_character(self):
        with pytest.raises(DslParseError) as err:
            tokenize("1 + $")
        assert err.value.line == 1 and err.value.column == 5


class TestParser:
    def test_render_round_trip(self):
        for src in [
            REFLECTION,
            "forall n in 0..8 : E(n, x) = sum(i = 0..n, binom(n, i)*E(n - i)*x^i)",
            "forall n in 0..8 : Ek(2, n) = sum(i = 0..n, binom(n, i)*E(i)*E(n - i))",
            "forall n in 0..7 : w*E(n + 1, x + 1) + E(n + 1, x) = 2*x^(n + 1)",
            "forall n in 0..3 : 2*x^n = 2*x^n",
        ]:
            assert render_identity(parse_identity(src)) == src

    def test_structural_round_trip(self):
        ast = parse_identity(REFLECTION)
        assert parse_identity(render_identity(ast)) == ast

    @pytest.mark.parametrize("src", [
        LONG_SUM,
        "forall n in 0..2 : (" + " - ".join(["x"] * 3000) + ")*w = x",
        "forall n in 0..2 : " + "*".join(["E(n)"] * 3000) + " = w",
    ], ids=["sum", "parenthesized-difference", "product"])
    def test_long_chain_round_trip(self, src):
        # rendering, == and hash walk a 3000-term chain without recursing
        ast = parse_identity(src)
        assert render_identity(ast) == src
        again = parse_identity(render_identity(ast))
        assert again is not ast
        assert again == ast and hash(again) == hash(ast)

    def test_long_sums_that_differ_are_unequal(self):
        shorter = LONG_SUM.replace("E(n) + ", "", 1)
        assert parse_identity(LONG_SUM) != parse_identity(WRONG_LONG_SUM)
        assert parse_identity(LONG_SUM).lhs != parse_identity(shorter).lhs
        assert parse_identity(LONG_SUM).lhs != parse_identity(LONG_SUM.replace("+", "-", 1)).lhs

    def test_precedence(self):
        # ^ binds tighter than *, which binds tighter than +
        a = parse_identity("forall n in 0..2 : 2*x^n + x = 2*(x^n) + x")
        assert a.lhs == a.rhs
        b = parse_identity("forall n in 0..2 : 2*x^(n + 1) = 2*x^(n + 1)")
        assert render_identity(b).count("(n + 1)") == 2

    def test_literal_fraction_folding(self):
        # INT/INT folds into a single rational literal, so both sides agree
        ast = parse_identity("forall n in 0..2 : 1/2*x + 1/2*x = x")
        ctx = TableContext()
        assert check_identity(ast, ctx).status == "pass"

    def test_source_not_compared(self):
        a = parse_identity("forall n in 0..2 : x = x")
        b = parse_identity("forall n in 0..2 :   x=x")
        assert a == b

    ERROR_CASES = [
        ("forall n in 0..8 : E(n, x) = sum(i = 0..n, binom(n, i)", 1, 55, "expected"),
        ("forall n in 0..3 : E(m) = x", 1, 22, "unbound variable `m`"),
        ("forall n in 0..3 : sum(n = 0..2, x) = x", 1, 24, "already bound"),
        ("forall n in 0..3 : x^(-2) = x", 1, 25, "negative literal exponent"),
        ("forall n in 3..1 : x = x", 1, 16, "empty range"),
        ("foo bar", 1, 1, "expected `forall`"),
        ("forall n in 0..3 : x", 1, 21, "expected"),
    ]

    @pytest.mark.parametrize("src,line,column,fragment", ERROR_CASES)
    def test_errors_carry_positions(self, src, line, column, fragment):
        with pytest.raises(DslParseError) as err:
            parse_identity(src)
        assert err.value.line == line
        assert err.value.column == column
        assert fragment in str(err.value)
        assert f"syntax error at {line}:{column}" in str(err.value)

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(DslParseError) as err:
            parse_identity(DEEP_PARENS, line=7)
        assert (err.value.line, err.value.column) == (7, 1)
        assert TOO_DEEP in str(err.value)

    def test_multiline_corpus_positions(self, ctx):
        corpus = "# header\n\nforall n in 0..2 : x = x\nforall n in 0..2 : x +\n"
        verdicts = check_corpus(corpus, ctx)
        errs = [v for v in verdicts if v.status == "error"]
        assert len(errs) == 1
        assert errs[0].location == (4, 23)


class TestEvaluation:
    def test_reflection_passes(self, ctx):
        v = check_identity(parse_identity(REFLECTION), ctx)
        assert v.status == "pass"
        assert v.render_text() == f"PASS  {REFLECTION}"

    def test_corrupted_rhs_fails_at_zero(self, ctx):
        v = check_identity(
            parse_identity("forall n in 0..4 : w*E(n, x + 1) + E(n, x) = 2*x^n + 1"), ctx
        )
        assert v.status == "fail"
        assert v.at == 0 and v.difference == "-1"
        assert v.to_json() == {
            "source": "forall n in 0..4 : w*E(n, x + 1) + E(n, x) = 2*x^n + 1",
            "status": "fail",
            "at": 0,
            "difference": "-1",
        }

    def test_first_failing_index_reported(self, ctx):
        # binom(n, 2) vanishes for n < 2, so the first break is at n = 2
        v = check_identity(
            parse_identity("forall n in 0..5 : x^n = x^n + binom(n, 2)*x"), ctx
        )
        assert v.status == "fail" and v.at == 2

    def test_index_variables_only_live_in_index_positions(self):
        # a bare index variable is not a scalar factor in this grammar
        with pytest.raises(DslParseError, match="only valid inside"):
            parse_identity("forall n in 0..5 : n*x = n*x")

    def test_order_k_and_sum(self, ctx):
        v = check_identity(
            parse_identity("forall n in 0..6 : Ek(2, n) = sum(i = 0..n, binom(n, i)*E(i)*E(n - i))"),
            ctx,
        )
        assert v.status == "pass"

    def test_negative_index_is_an_eval_error(self, ctx):
        v = check_identity(parse_identity("forall n in 0..6 : E(n - 9) = x"), ctx)
        assert v.status == "error"
        assert "negative index n - 9 = -9 at n=0" in v.message
        assert v.location is None

    def test_max_n_clamp(self, ctx):
        # range reaches 10^6 but the clamp keeps the check finite
        ast = parse_identity("forall n in 0..1000000 : w*E(n, x + 1) + E(n, x) = 2*x^n")
        v = check_identity(ast, ctx, max_n=5)
        assert v.status == "pass"

    @pytest.mark.parametrize("max_n, status", [(3, "error"), (4, "error"), (5, "fail")])
    def test_range_the_cap_leaves_empty_is_an_error(self, max_n, status):
        # E(n) = 0 is false at every n; a cap below the range checks nothing,
        # which must not read as a proof
        ast = parse_identity("forall n in 5..8 : E(n) = 0")
        empty = TableContext()
        v = check_identity(ast, empty, max_n=max_n)
        assert v.status == status
        if status == "error":
            assert v.message == f"range 5..8 capped at max_n={max_n} checks no index"
            assert v.at is None and v.location is None
            assert empty.tables == {}
        else:
            assert v.at == 5

    def test_tables_grow_on_demand(self):
        growing = TableContext()
        for hi, count in ((3, 4), (6, 7)):
            v = check_identity(parse_identity(f"forall n in 0..{hi} : Ek(2, n) = Ek(2, n)"), growing)
            assert v.status == "pass"
            assert growing.tables[2].count == count


class TestCorpus:
    def test_shipped_corpus_passes(self, ctx):
        text = (
            importlib.resources.files("weuler")
            .joinpath("corpus/paper.uid")
            .read_text(encoding="utf-8")
        )
        verdicts = check_corpus(text, ctx)
        assert len(verdicts) == 7
        assert all(v.status == "pass" for v in verdicts)

    def test_blank_lines_and_comments_skipped(self, ctx):
        verdicts = check_corpus("\n# only a comment\n\n", ctx)
        assert verdicts == []

    def test_mixed_verdicts_keep_order(self, ctx):
        corpus = (
            "forall n in 0..2 : x = x\n"
            "forall n in 0..2 : x = x + 1\n"
            "forall n in 0..2 : E(n -\n"
        )
        verdicts = check_corpus(corpus, ctx)
        assert [v.status for v in verdicts] == ["pass", "fail", "error"]
        assert verdicts[2].location == (3, 25)

    def test_over_deep_lines_are_errors(self, ctx):
        corpus = "\n".join(["forall n in 0..2 : E(n) = E(n)", DEEP_PARENS, LONG_SUM,
                            WRONG_LONG_SUM])
        verdicts = check_corpus(corpus, ctx)
        assert [v.status for v in verdicts] == ["pass", "error", "pass", "fail"]
        assert verdicts[1].location == (2, 1) and TOO_DEEP in verdicts[1].message
        assert verdicts[3].at == 0

    def test_check_identity_decides_a_long_sum(self, ctx):
        verdict = check_identity(parse_identity(LONG_SUM), ctx)
        assert verdict.status == "pass"
        verdict = check_identity(parse_identity(WRONG_LONG_SUM), ctx)
        assert (verdict.status, verdict.at, verdict.difference) == ("fail", 0, "2/(1 + w)")

    def test_ascending_ranges_build_each_order_once(self, monkeypatch):
        builds = []
        real_build = EulerTable.build

        def counting_build(count, order, **kwargs):
            builds.append((count, order))
            return real_build(count, order, **kwargs)

        monkeypatch.setattr(EulerTable, "build", counting_build)
        corpus = "".join(f"forall n in 0..{hi} : Ek(2, n) = Ek(2, n)\n" for hi in (3, 6, 8))
        verdicts = check_corpus(corpus, TableContext(), max_n=7)
        assert [v.status for v in verdicts] == ["pass"] * 3
        assert builds == [(8, 2)]
