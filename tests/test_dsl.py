"""Unit tests for the identity language: lexer, parser, evaluator, checker."""

import functools
import importlib.resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weuler.dsl import (
    TOO_DEEP,
    Chain,
    DslEvalError,
    DslParseError,
    Identity,
    check_corpus,
    check_identity,
    parse_identity,
    parse_value,
    render_identity,
    tokenize,
)
from weuler.ratfunc import W

REFLECTION = "forall n in 0..8 : w*E(n, x + 1) + E(n, x) = 2*x^n"

# 400 nested parentheses are past Python's default recursion limit; a sum of
# 3000 terms is one Chain node with 2999 steps, walked without recursing
DEEP_PARENS = "forall n in 0..2 : " + "(" * 400 + "E(n)" + ")" * 400 + " = E(n)"
LONG_SUM = "forall n in 0..2 : " + " + ".join(["E(n)"] * 3000) + " = 3000*E(n)"
WRONG_LONG_SUM = LONG_SUM.replace("3000*", "2999*")


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

    def test_comment_ends_its_own_line_only(self):
        toks = tokenize("1 # c ( ^..\n2")
        assert [(t.kind, t.text, t.line, t.column) for t in toks] == [
            ("int", "1", 1, 1), ("int", "2", 2, 1), ("end", "", 2, 2)]

    def test_identity_continues_after_a_comment(self):
        assert parse_identity("forall n in 0..2 : x # c\n = w").rhs == parse_identity(
            "forall n in 0..2 : x = w").rhs
        ast = parse_identity("forall n in 0..2 : w*E(n, x + 1) # the shifted term\n"
                             "  + E(n, x) = 2*x^n # reflection")
        assert ast == parse_identity(REFLECTION.replace("0..8", "0..2"))
        assert check_identity(ast).status == "pass"

    def test_bad_character(self):
        with pytest.raises(DslParseError) as err:
            tokenize("1 + $")
        assert err.value.line == 1 and err.value.column == 5

    @pytest.mark.parametrize("char", ["²", "①"])
    def test_digit_that_is_not_decimal_is_a_bad_character(self, char):
        # str.isdigit() takes these, int() refuses them
        with pytest.raises(DslParseError) as err:
            tokenize(f"1 +\n 2{char}")
        assert (err.value.line, err.value.column) == (2, 3)
        assert f"unexpected character {char!r}" in str(err.value)

    def test_decimal_digits_of_any_script_are_integers(self):
        assert [(t.kind, int(t.text)) for t in tokenize("٢٣")[:-1]] == [("int", 23)]

    @staticmethod
    def spans(text):
        return [(t.kind, t.text, t.line, t.column) for t in tokenize(text)]

    def test_other_whitespace_takes_one_column_and_only_newline_ends_a_line(self):
        # tab, form feed and U+2028 are whitespace; the \r of \r\n is one more column
        assert self.spans("1\t+\r\n2\x0c*\u2028x") == [
            ("int", "1", 1, 1), ("+", "+", 1, 3), ("int", "2", 2, 1), ("*", "*", 2, 3),
            ("x", "x", 2, 5), ("end", "", 2, 6)]

    def test_identifiers_start_with_a_letter_and_go_on_with_any_alphanumeric(self):
        assert self.spans("α + x²") == [
            ("ident", "α", 1, 1), ("+", "+", 1, 3), ("ident", "x²", 1, 5), ("end", "", 1, 7)]

    @pytest.mark.parametrize("text, column, char", [
        ("x + ½", 5, "½"), ("1 . 2", 3, "."), ("0...3", 4, ".")])
    def test_characters_that_start_no_token(self, text, column, char):
        with pytest.raises(DslParseError) as err:
            tokenize(text)
        assert str(err.value) == f"syntax error at 1:{column}, unexpected character {char!r}"

    def test_the_end_of_input_sits_where_a_trailing_comment_begins(self):
        assert self.spans("x # c") == [("x", "x", 1, 1), ("end", "", 1, 3)]
        assert self.spans("x\r\n# c\n  w # d") == [("x", "x", 1, 1), ("w", "w", 3, 3),
                                                   ("end", "", 3, 5)]
        with pytest.raises(DslParseError) as err:
            parse_identity("forall n in 0..2 : x = # no right side")
        assert (err.value.line, err.value.column) == (1, 24)

    def test_a_range_in_arabic_indic_digits(self):
        text = "forall n in ٠..٣ : x = x"
        assert self.spans(text)[3:6] == [("int", "٠", 1, 13), ("..", "..", 1, 14),
                                         ("int", "٣", 1, 16)]
        ast = parse_identity(text)
        assert (ast.lo, ast.hi) == (0, 3)


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

    def test_a_chain_is_one_node(self):
        lhs = parse_identity(LONG_SUM).lhs
        assert isinstance(lhs, Chain) and len(lhs.steps) == 2999
        assert {op for op, _ in lhs.steps} == {"+"} and lhs.first == lhs.steps[0][1]

    @pytest.mark.parametrize("joined, flat", [
        ("(x + w) - x + 1", "x + w - x + 1"),
        ("((x - w) + x) + 1", "x - w + x + 1"),
        ("(x*w)*x*2", "x*w*x*2"),
        ("(x*w)*x + 1", "x*w*x + 1"),
    ])
    def test_a_parenthesized_chain_that_opens_a_chain_joins_it(self, joined, flat):
        a = parse_identity(f"forall n in 0..2 : {joined} = x")
        b = parse_identity(f"forall n in 0..2 : {flat} = x")
        assert a == b and hash(a) == hash(b)
        assert render_identity(a) == f"forall n in 0..2 : {flat} = x"

    @pytest.mark.parametrize("grouped, flat", [
        ("x + (w - x)", "x + w - x"),
        ("x*(w*x)", "x*w*x"),
        ("(x + w)*x", "x + w*x"),
    ])
    def test_other_groupings_stay_distinct(self, grouped, flat):
        a = parse_identity(f"forall n in 0..2 : {grouped} = x")
        assert a != parse_identity(f"forall n in 0..2 : {flat} = x")
        assert render_identity(a) == f"forall n in 0..2 : {grouped} = x"

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
        assert check_identity(ast).status == "pass"

    @pytest.mark.parametrize("written, meant", [
        ("1/2^n", "(1/2)^n"),           # an int/int pair that opens an operand is one literal
        ("-1/2^n", "(-1/2)^n"),
        ("w/1/2", "(w/1)/2"),           # a literal right after / is not folded
        ("w/2^n", "w/(2^n)"),
        ("x*3/4", "x*(3/4)"),
        ("-w^2", "-1*(w^2)"),           # - before a non-literal multiplies by -1
        ("-w/(1 + w)", "(-1*w)/(1 + w)"),
        ("1 + -w*x", "1 + (-1*w)*x"),
    ])
    def test_division_folding_and_unary_minus(self, written, meant):
        a = parse_identity(f"forall n in 0..2 : {written} = x")
        b = parse_identity(f"forall n in 0..2 : {meant} = x")
        assert a == b

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

    def test_multiline_corpus_positions(self):
        corpus = "# header\n\nforall n in 0..2 : x = x\nforall n in 0..2 : x +\n"
        verdicts = check_corpus(corpus)
        errs = [v for v in verdicts if v.status == "error"]
        assert len(errs) == 1
        assert errs[0].location == (4, 23)


class TestEvaluation:
    def test_reflection_passes(self):
        v = check_identity(parse_identity(REFLECTION))
        assert v.status == "pass"
        assert v.render_text() == f"PASS  {REFLECTION}"

    def test_corrupted_rhs_fails_at_zero(self):
        v = check_identity(
            parse_identity("forall n in 0..4 : w*E(n, x + 1) + E(n, x) = 2*x^n + 1")
        )
        assert v.status == "fail"
        assert v.at == 0 and v.difference == "-1"
        assert v.to_json() == {
            "source": "forall n in 0..4 : w*E(n, x + 1) + E(n, x) = 2*x^n + 1",
            "status": "fail",
            "at": 0,
            "difference": "-1",
        }

    def test_first_failing_index_reported(self):
        # binom(n, 2) vanishes for n < 2, so the first break is at n = 2
        v = check_identity(
            parse_identity("forall n in 0..5 : x^n = x^n + binom(n, 2)*x")
        )
        assert v.status == "fail" and v.at == 2

    def test_index_variables_only_live_in_index_positions(self):
        # a bare index variable is not a scalar factor in this grammar
        with pytest.raises(DslParseError, match="only valid inside"):
            parse_identity("forall n in 0..5 : n*x = n*x")

    def test_order_k_and_sum(self):
        v = check_identity(
            parse_identity("forall n in 0..6 : Ek(2, n) = sum(i = 0..n, binom(n, i)*E(i)*E(n - i))"),
        )
        assert v.status == "pass"

    def test_negative_index_is_an_eval_error(self):
        v = check_identity(parse_identity("forall n in 0..6 : E(n - 9) = x"))
        assert v.status == "error"
        assert "negative index n - 9 = -9 at n=0" in v.message
        assert v.location is None

    @pytest.mark.parametrize("src", [
        "forall n in 0..0 : E(0) = 2/(w + 1)",
        "forall n in 0..2 : Ek(2, 2) = 8*w*(2*w - 1)/(1 + w)^4",
    ])
    def test_values_written_as_the_cli_prints_them_pass(self, src):
        assert check_identity(parse_identity(src)).status == "pass"

    @pytest.mark.parametrize("src, divisor", [
        ("forall n in 0..2 : x/x = 1", "`x` is x"),
        ("forall n in 0..2 : w/(w - w) = 0", "`w - w` is 0"),
        ("forall n in 0..2 : x/binom(n, 2) = 0", "`binom(n, 2)` is 0"),
    ])
    def test_a_divisor_with_x_or_zero_is_an_eval_error(self, src, divisor):
        v = check_identity(parse_identity(src))
        message = f"divisor {divisor} at n=0, not a nonzero element of Q(w)"
        assert (v.status, v.at, v.message, v.location) == ("error", 0, message, None)

    def test_max_n_clamp(self):
        # range reaches 10^6 but the clamp keeps the check finite
        ast = parse_identity("forall n in 0..1000000 : w*E(n, x + 1) + E(n, x) = 2*x^n")
        v = check_identity(ast, max_n=5)
        assert v.status == "pass"

    @pytest.mark.parametrize("max_n, status", [(3, "error"), (4, "error"), (5, "fail")])
    def test_range_the_cap_leaves_empty_is_an_error(self, max_n, status, dsl_chains):
        # E(n) = 0 is false at every n; a cap below the range checks nothing,
        # which must not read as a proof
        ast = parse_identity("forall n in 5..8 : E(n) = 0")
        v = check_identity(ast, max_n=max_n)
        assert v.status == status
        if status == "error":
            assert v.message == f"range 5..8 capped at max_n={max_n} checks no index"
            assert v.at is None and v.location is None
            assert dsl_chains == []
        else:
            assert v.at == 5

    def test_each_check_builds_the_chain_it_needs(self, dsl_chains):
        for hi in (3, 6):
            v = check_identity(parse_identity(f"forall n in 0..{hi} : Ek(2, n) = Ek(2, n)"))
            assert v.status == "pass"
        assert [(c.count, sorted(c.orders)) for c in dsl_chains] == [(4, [2]), (7, [2])]

    def test_a_check_builds_only_the_orders_it_reads(self, dsl_chains):
        for text in ("forall n in 0..3 : Ek(3, n) = Ek(3, n)",
                     "forall n in 0..5 : E(n) + Ek(2, n) = Ek(2, n) + E(n)"):
            assert check_identity(parse_identity(text)).status == "pass"
        assert [(c.count, sorted(c.orders)) for c in dsl_chains] == [(4, [3]), (6, [1, 2])]

    def test_a_line_without_tables_makes_no_series_operation(self, series_ops, dsl_chains):
        text = "forall n in 0..6 : (1 + x)^n = sum(i = 0..n, binom(n, i)*x^i)"
        assert check_identity(parse_identity(text)).status == "pass"
        assert [v.status for v in check_corpus(text + "\n")] == ["pass"]
        assert series_ops == {"inverse": 0, "mul": 0}
        assert dsl_chains == []


class TestCorpus:
    def test_shipped_corpus_passes(self):
        text = (
            importlib.resources.files("weuler")
            .joinpath("corpus/paper.uid")
            .read_text(encoding="utf-8")
        )
        verdicts = check_corpus(text)
        assert len(verdicts) == 7
        assert all(v.status == "pass" for v in verdicts)

    def test_found_corpus_passes_and_its_division_is_exact(self):
        text = (
            importlib.resources.files("weuler")
            .joinpath("corpus/found.uid")
            .read_text(encoding="utf-8")
        )
        verdicts = check_corpus(text)
        assert [v.status for v in verdicts] == ["pass"]
        assert "Ek(2, n, x)/2" in verdicts[0].source
        wrong = check_identity(parse_identity(verdicts[0].source.replace("/2", "/3")))
        assert (wrong.status, wrong.at, wrong.difference) == ("fail", 0, "2/(3*(1 + w)^2)")

    def test_blank_lines_and_comments_skipped(self):
        verdicts = check_corpus("\n# only a comment\n\n")
        assert verdicts == []

    def test_mixed_verdicts_keep_order(self):
        corpus = (
            "forall n in 0..2 : x = x\n"
            "forall n in 0..2 : x = x + 1\n"
            "forall n in 0..2 : E(n -\n"
        )
        verdicts = check_corpus(corpus)
        assert [v.status for v in verdicts] == ["pass", "fail", "error"]
        assert verdicts[2].location == (3, 25)

    # every line break str.splitlines() knows but "\n"
    @pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029", "\r"])
    def test_only_a_newline_ends_a_line(self, brk):
        # tokenize reads the others as whitespace, so the corpus does too, and
        # an error on the next line is at that line's "\n" count
        corpus = f"forall n in 0..2 : x{brk}= x\nforall n in 0..2 : x {brk}+\n"
        verdicts = check_corpus(corpus)
        assert [v.status for v in verdicts] == ["pass", "error"]
        assert verdicts[1].location == (2, 24)
        assert [v.status for v in check_corpus(f"forall n in 0..2 : x{brk}= x")] == ["pass"]

    def test_bad_literals_are_error_verdicts(self):
        corpus = ("forall n in 0..2 : E(n) = E(n)\n"
                  "forall n in 0..2 : ² = x\n"
                  "forall n in 0..2 : x = " + "9" * 5000 + "\n"
                  "forall n in 0..2 : x = x + 1\n")
        verdicts = check_corpus(corpus)
        assert [v.status for v in verdicts] == ["pass", "error", "error", "fail"]
        assert verdicts[1].location == (2, 20)
        assert verdicts[1].message == "syntax error at 2:20, unexpected character '²'"
        assert verdicts[2].location == (3, 24)
        assert verdicts[2].message.endswith("integer literal of 5000 digits is too long")

    def test_over_deep_lines_are_errors(self):
        corpus = "\n".join(["forall n in 0..2 : E(n) = E(n)", DEEP_PARENS, LONG_SUM,
                            WRONG_LONG_SUM])
        verdicts = check_corpus(corpus)
        assert [v.status for v in verdicts] == ["pass", "error", "pass", "fail"]
        assert verdicts[1].location == (2, 1) and TOO_DEEP in verdicts[1].message
        assert verdicts[3].at == 0

    def test_check_identity_decides_a_long_sum(self):
        verdict = check_identity(parse_identity(LONG_SUM))
        assert verdict.status == "pass"
        verdict = check_identity(parse_identity(WRONG_LONG_SUM))
        assert (verdict.status, verdict.at, verdict.difference) == ("fail", 0, "2/(1 + w)")

    def test_ascending_ranges_build_each_order_once(self, dsl_chains):
        corpus = "".join(f"forall n in 0..{hi} : Ek(2, n) = Ek(2, n)\n" for hi in (3, 6, 8))
        verdicts = check_corpus(corpus, max_n=7)
        assert [v.status for v in verdicts] == ["pass"] * 3
        assert [(c.count, sorted(c.orders)) for c in dsl_chains] == [(8, [2])]

    def test_ranges_up_then_down_build_one_chain(self, dsl_chains):
        corpus = "".join(f"forall n in 0..{hi} : E(n) + Ek(2, n) = Ek(2, n) + E(n)\n"
                         for hi in (3, 8, 2))
        verdicts = check_corpus(corpus)
        assert [v.status for v in verdicts] == ["pass"] * 3
        assert [(c.count, sorted(c.orders)) for c in dsl_chains] == [(9, [1, 2])]


class TestParseValue:
    def test_reads_a_value_in_w_and_x(self):
        assert parse_value("8*w*(2*w - 1)/(1 + w)^4") == (8 * W * (2 * W - 1)) / (W + 1) ** 4
        assert parse_value("-w^2") == -W * W
        assert parse_value("w/1/2") == W / 2
        assert parse_value("w/(3/4)") == 4 * W / 3
        assert str(parse_value("1 + -w*x")) == "1 + -w*x"
        assert parse_value("sum(i = 0..3, x^i)") == parse_value("1 + x + x^2 + x^3")

    def test_ignores_whitespace(self):
        assert str(parse_value(" 2*w*(w - 1) / (1 + w)^3 ")) == "2*w*(w - 1)/(1 + w)^3"

    def test_rejects_garbage(self):
        with pytest.raises(DslParseError, match="unbound variable `v`"):
            parse_value("2*v")
        with pytest.raises(DslParseError, match="1:3, zero denominator"):
            parse_value("1/0")      # a literal, not a division
        with pytest.raises(DslParseError, match="expected end of expression but found `=`"):
            parse_value("w = w")

    @pytest.mark.parametrize("text", ["²", "1 + w^²", "①*w"])
    def test_rejects_digits_that_are_not_decimal(self, text):
        # str.isdigit() takes ² and ①, which int() refuses
        with pytest.raises(DslParseError, match="unexpected character '[²①]'"):
            parse_value(text)

    def test_rejects_deep_nesting(self):
        assert parse_value("(" * 50 + "w" + ")" * 50) == W
        with pytest.raises(DslParseError, match=TOO_DEEP):
            parse_value("(" * 300 + "w" + ")" * 300)

    @pytest.mark.parametrize("text", ["E(0)", "2*Ek(2, 1, x)", "sum(i = 0..2, E(i))"])
    def test_rejects_euler_tables(self, text):
        with pytest.raises(DslEvalError, match=r"reads an Euler table \(E or Ek\)"):
            parse_value(text)

    @pytest.mark.parametrize("text, divisor", [("x/x", "x"), ("w/(w - w)", "w - w"), ("w/0", "0")])
    def test_a_divisor_with_x_or_zero_is_an_error(self, text, divisor):
        with pytest.raises(DslEvalError, match=f"divisor `{divisor}`"):
            parse_value(text)


# ---------------------------------------------------------------------------
# Properties of the parser


# the characters of the language, three non-ASCII digits, newlines, tab and
# \r, a numeric character that is no digit, and a non-ASCII letter
DSL_CHARS = "forallinsumbinomEkwxnij0123456789 ..+-*/^(),:=#\n²①٢\t\r½α"
DSL_WORDS = ["forall ", "n", " in ", "0..3", " : ", "=", "E(n)", "Ek(2, n)", "x", "w", "^",
             "binom(n, i)", "sum(i = 0..n, ", "(", ")", "+", "-", "*", "/", "1/2", ", x + 1", "\n",
             "²"]
ANY_TEXT = st.one_of(st.text(alphabet=DSL_CHARS, max_size=60),
                     st.lists(st.sampled_from(DSL_WORDS), max_size=20).map("".join))


@given(ANY_TEXT)
@example("forall n in 0..2 : ² = x")
@example("forall n in 0..2 : x = " + "9" * 5000)
@settings(max_examples=400, deadline=None)
def test_any_text_parses_or_fails_at_a_position_inside_it(text):
    try:
        ast = parse_identity(text)
    except DslParseError as exc:
        lines = text.split("\n")
        assert 1 <= exc.line <= len(lines), (exc.line, lines)
        assert 1 <= exc.column <= len(lines[exc.line - 1]) + 1, (exc.column, lines)
    else:
        assert isinstance(ast, Identity)


@functools.lru_cache(maxsize=None)
def index_text(bound, signs=("", "-")):
    term = st.one_of(st.integers(0, 12).map(str), st.sampled_from(bound),
                     st.builds("{}*{}".format, st.integers(0, 4), st.sampled_from(bound)))
    rest = st.lists(st.tuples(st.sampled_from([" + ", " - "]), term), max_size=2)
    return st.builds(lambda sign, first, rest: sign + first + "".join(op + t for op, t in rest),
                     st.sampled_from(signs), term, rest)


@functools.lru_cache(maxsize=None)
def atom_text(bound):
    xarg = st.sampled_from(["", ", x", ", x + 2", ", x - 1"])
    return st.one_of(
        st.integers(-9, 9).map(str),
        st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)),
        st.sampled_from(["w", "x"]),
        st.builds("E({}{})".format, index_text(bound), xarg),
        st.builds("Ek({}, {}{})".format, index_text(bound), index_text(bound), xarg),
        st.builds("binom({}, {})".format, index_text(bound), index_text(bound)),
    )


@st.composite
def expr_text(draw, bound, depth):
    kind = draw(st.sampled_from(["atom", "atom", "paren", "chain", "chain", "power", "sum"]
                                if depth else ["atom"]))
    if kind == "atom":
        return draw(atom_text(bound))
    if kind == "paren":
        return f"({draw(expr_text(bound, depth - 1))})"
    if kind == "chain":
        # any operand may take a leading -
        operand = st.tuples(st.sampled_from(["", "-"]), expr_text(bound, depth - 1)).map("".join)
        # 2/0 would fold into a literal with a zero denominator, a parse error
        divisor = operand.filter(lambda text: not text.startswith("0"))
        ops = draw(st.lists(st.sampled_from([" + ", " - ", "*", "/"]), min_size=1, max_size=3))
        text = draw(operand)
        for op in ops:
            text += op + draw(divisor if op == "/" else operand)
        return text
    if kind == "power":
        base = draw(st.one_of(atom_text(bound), expr_text(bound, depth - 1).map("({})".format)))
        # a negative literal exponent is a parse error, so none is drawn
        exponent = draw(st.one_of(st.integers(0, 4).map(str), st.sampled_from(bound),
                                  index_text(bound, signs=("",)).map("({})".format)))
        return f"{base}^{exponent}"
    var = next(v for v in "ijkm" if v not in bound)
    lo, hi = draw(index_text(bound)), draw(index_text(bound))
    return f"sum({var} = {lo}..{hi}, {draw(expr_text(bound + (var,), depth - 1))})"


IDENTITY_TEXT = st.builds("forall n in {0}..{1} : {2} = {3}".format,
                          st.integers(0, 3), st.integers(3, 6),
                          expr_text(("n",), 3), expr_text(("n",), 3))


@given(IDENTITY_TEXT)
@example("forall n in 0..3 : w/(3/4) = w/1/2")
@example("forall n in 0..3 : -w^2 = 1/2^n")
@example("forall n in 0..3 : -(w + 1) = x")
@example("forall n in 0..3 : (3)/4 + x*(2)/3^n = -(1/2)/5")
@settings(max_examples=300, deadline=None)
def test_render_then_parse_is_the_identity(text):
    ast = parse_identity(text)
    rendered = render_identity(ast)
    again = parse_identity(rendered)
    assert again == ast and hash(again) == hash(ast)
    assert render_identity(again) == rendered
