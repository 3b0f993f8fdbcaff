"""A small identity language for the weighted Euler family.

One identity per line: `forall n in 0..8 : expr = expr`, with nodes for
literals, w, x, Ek(order, index[, x+shift]) and its order-1 form E(...),
binom(i, j), sum(i = lo..hi, body), +, -, *, / and ^.  A sum or a product is
one node, a `Chain` of its first operand and its (operator, operand) steps,
so a sum of thousands of terms is parsed, evaluated, rendered, compared and
hashed in a loop.  Index expressions are integer-linear in the bound
variables.  An int/int pair that opens an operand is one rational literal,
so 1/2^n is (1/2)^n; a literal right after `/` is not folded, so w/1/2 is
w/2.  A divisor must evaluate to a nonzero element of Q(w), free of x.  A
leading `-` before a literal makes a negative literal, before anything else
a product with -1.  Both sides evaluate to polynomials in x over Q(w) and
are compared in canonical form; a check reads the Euler tables of every
order from one euler.TableChain of its own.  `parse_value` reads one
expression without E or Ek, such as a number or polynomial the CLI prints.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .euler import TableChain
from .ratfunc import QW, W, Polynomial, binomial, join_signed

KEYWORDS = {"forall", "in", "sum", "binom", "E", "Ek", "w", "x"}

# the message of a line whose parse, reach walk or evaluation exceeds
# Python's recursion limit
TOO_DEEP = "expression nested too deeply"


class DslParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"syntax error at {line}:{column}, {message}")
        self.line = line
        self.column = column


class DslEvalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True)
class Token:
    kind: str          # keyword, "ident", "int", a symbol, or "end"
    text: str
    line: int
    column: int


# For str patterns \s is str.isspace(), \d str.isdecimal() (isdigit() also
# takes ² and ①, which int() refuses) and \w isalnum() or "_".  A comment
# runs to the end of its line.
_TOKEN = re.compile(r"(?P<newline>\n)|(?P<space>\s)|(?P<comment>#[^\n]*)|(?P<int>\d+)"
                    r"|(?P<word>\w+)|(?P<symbol>\.\.|[-+*/^(),:=])")


def tokenize(text: str, line: int = 1) -> list[Token]:
    tokens = []
    pos = line_start = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        kind = match and match.lastgroup
        column = pos - line_start + 1
        # \w also takes ², ① and ½; a word starts with a letter or "_"
        if kind is None or kind == "word" and not (text[pos].isalpha() or text[pos] == "_"):
            raise DslParseError(f"unexpected character {text[pos]!r}", line, column)
        word, pos = match.group(), match.end()
        if kind == "newline":
            line, line_start = line + 1, pos
        elif kind == "int":
            try:
                int(word)           # past sys.get_int_max_str_digits(), int() refuses it
            except ValueError:
                raise DslParseError(f"integer literal of {len(word)} digits is too long",
                                    line, column) from None
            tokens.append(Token("int", word, line, column))
        elif kind == "word":
            tokens.append(Token(word if word in KEYWORDS else "ident", word, line, column))
        elif kind == "symbol":
            tokens.append(Token(word, word, line, column))
    # the end of input sits where its line's comment, if any, begins
    tokens.append(Token("end", "", line, len(text[line_start:].partition("#")[0]) + 1))
    return tokens


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class IndexExpr:
    """Integer-linear form: a tuple of (coefficient, variable-or-None) terms."""

    terms: tuple

    def evaluate(self, env: dict) -> int:
        total = 0
        for coef, var in self.terms:
            total += coef if var is None else coef * env[var]
        return total

    def render(self) -> str:
        terms = []
        for coef, var in self.terms:
            mag = abs(coef)
            if var is None:
                body = str(mag)
            else:
                body = var if mag == 1 else f"{mag}*{var}"
            terms.append((coef < 0, body))
        return join_signed(terms)

    def literal_value(self) -> Optional[int]:
        if len(self.terms) == 1 and self.terms[0][1] is None:
            return self.terms[0][0]
        return None


@dataclass(frozen=True)
class Lit:
    value: Fraction

    def render(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Sym:
    name: str                      # "w" or "x"

    def render(self) -> str:
        return self.name


def _render_xarg(xarg: Optional[int]) -> str:
    if xarg is None:
        return ""
    if xarg == 0:
        return ", x"
    sign = "+" if xarg > 0 else "-"
    return f", x {sign} {abs(xarg)}"


@dataclass(frozen=True)
class ECall:
    order: Optional[IndexExpr]     # None: written E(...), which is order 1
    index: IndexExpr
    xarg: Optional[int]            # None: the number; k: the polynomial at x+k

    def render(self) -> str:
        head = "E(" if self.order is None else f"Ek({self.order.render()}, "
        return f"{head}{self.index.render()}{_render_xarg(self.xarg)})"


@dataclass(frozen=True)
class Binom:
    top: IndexExpr
    bottom: IndexExpr

    def render(self) -> str:
        return f"binom({self.top.render()}, {self.bottom.render()})"


@dataclass(frozen=True)
class SumExpr:
    var: str
    lo: IndexExpr
    hi: IndexExpr
    body: object

    def render(self) -> str:
        return f"sum({self.var} = {self.lo.render()}..{self.hi.render()}, {render_expr(self.body)})"


@dataclass(frozen=True)
class Chain:
    """first op1 a1 op2 a2 ...: a sum or a product, applied left to right."""

    first: object
    steps: tuple                   # ((op, operand), ...), all "+"/"-" or all "*"/"/"


@dataclass(frozen=True)
class PowExpr:
    base: object
    exponent: IndexExpr


@dataclass(frozen=True)
class Identity:
    var: str
    lo: int
    hi: int
    lhs: object
    rhs: object
    source: str = field(compare=False, default="")


def _divide(num: Polynomial, den: Polynomial) -> Polynomial:
    """num / den for a den that evaluate_expr has checked is a nonzero constant."""
    return num.scale(QW.one / den.leading)


# operator -> (precedence, function); ^ binds tighter than all four
_OPS = {"+": (1, operator.add), "-": (1, operator.sub),
        "*": (2, operator.mul), "/": (2, _divide)}


def _precedence(node) -> int:
    if isinstance(node, Chain):
        return _OPS[node.steps[0][0]][0]
    if isinstance(node, PowExpr):
        return 3
    return 4


def _chain(first, steps: list):
    """first and its steps as one node; a parenthesized chain of the same
    precedence that opens them is joined, so (a + b) + c is a + b + c."""
    if not steps:
        return first
    if _precedence(first) == _OPS[steps[0][0]][0]:
        return Chain(first.first, first.steps + tuple(steps))
    return Chain(first, tuple(steps))


def render_expr(node) -> str:
    if isinstance(node, Chain):
        prec = _precedence(node)
        first = render_expr(node.first)
        parts = [f"({first})" if _precedence(node.first) < prec else first]
        previous = node.first
        for op, operand in node.steps:
            text = render_expr(operand)
            if (_precedence(operand) <= prec
                    or op == "/" and _divisor_needs_parens(previous, operand, text)):
                text = f"({text})"
            parts.append(f" {op} {text}" if prec == 1 else f"{op}{text}")
            previous = operand if op == "*" else None
        return "".join(parts)
    if isinstance(node, PowExpr):
        base = render_expr(node.base)
        if not _is_tight_atom(node.base):
            base = f"({base})"
        exp = node.exponent
        lit = exp.literal_value()
        bare_var = len(exp.terms) == 1 and exp.terms[0][1] is not None and exp.terms[0][0] == 1
        text = exp.render()
        if not (bare_var or (lit is not None and lit >= 0)):
            text = f"({text})"
        return f"{base}^{text}"
    return node.render()


def _divisor_needs_parens(previous, divisor, text: str) -> bool:
    """Whether `divisor`, written bare after `/`, would parse as something
    else: a fractional or negative literal (w/3/4 is w/3 divided by 4), or
    one that an integer literal opening the operand before the `/` would
    fold (3/4 is one literal, not 3 divided by 4)."""
    if isinstance(divisor, Lit) and not _is_tight_atom(divisor):
        return True
    return (isinstance(previous, Lit) and previous.value.denominator == 1
            and text[0].isdecimal())


def _is_tight_atom(node) -> bool:
    if isinstance(node, Lit):
        return node.value.denominator == 1 and node.value >= 0
    return isinstance(node, (Sym, ECall, Binom, SumExpr))


def render_identity(ast: Identity) -> str:
    return (f"forall {ast.var} in {ast.lo}..{ast.hi} : "
            f"{render_expr(ast.lhs)} = {render_expr(ast.rhs)}")


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.bound: list[str] = []

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def _fail(self, expected: str) -> DslParseError:
        tok = self.current
        found = "end of input" if tok.kind == "end" else f"`{tok.text}`"
        return DslParseError(f"expected {expected} but found {found}", tok.line, tok.column)

    def expect(self, kind: str, expected: Optional[str] = None) -> Token:
        tok = self.current
        if tok.kind != kind:
            raise self._fail(expected or f"`{kind}`")
        self.pos += 1
        return tok

    def accept(self, kind: str) -> Optional[Token]:
        if self.current.kind == kind:
            tok = self.current
            self.pos += 1
            return tok
        return None

    # identity := "forall" IDENT "in" INT ".." INT ":" expr "=" expr
    def identity(self, source: str) -> Identity:
        self.expect("forall", "`forall`")
        var = self.expect("ident", "an index variable").text
        self.bound.append(var)
        self.expect("in", "`in`")
        lo = int(self.expect("int", "an integer").text)
        self.expect("..", "`..`")
        hi_tok = self.expect("int", "an integer")
        hi = int(hi_tok.text)
        if lo > hi:
            raise DslParseError(f"empty range {lo}..{hi}", hi_tok.line, hi_tok.column)
        self.expect(":", "`:`")
        lhs = self.expr()
        self.expect("=", "`=`")
        rhs = self.expr()
        self.expect("end", "end of identity")
        return Identity(var, lo, hi, lhs, rhs, source)

    def expr(self):
        first, steps = self.term(), []
        while self.current.kind in ("+", "-"):
            op = self.current.kind
            self.pos += 1
            steps.append((op, self.term()))
        return _chain(first, steps)

    def term(self):
        first, steps = self.unary(), []
        while self.current.kind in ("*", "/"):
            op = self.current.kind
            self.pos += 1
            steps.append((op, self.unary()))
        return _chain(first, steps)

    def unary(self):
        # -INT is a negative literal; - before anything else multiplies it by -1
        if self.current.kind == "-" and self.tokens[self.pos + 1].kind != "int":
            self.pos += 1
            return Chain(Lit(Fraction(-1)), (("*", self.unary()),))
        return self.power()

    def power(self):
        base = self.atom()
        if self.accept("^"):
            exp = self.exponent()
            value = exp.literal_value()
            if value is not None and value < 0:
                tok = self.tokens[self.pos - 1]
                raise DslParseError("negative literal exponent", tok.line, tok.column)
            return PowExpr(base, exp)
        return base

    def exponent(self) -> IndexExpr:
        if self.accept("("):
            idx = self.index_expr()
            self.expect(")", "`)`")
            return idx
        negative = bool(self.accept("-"))
        if self.current.kind == "int":
            value = int(self.expect("int").text)
            return IndexExpr(((-value if negative else value, None),))
        if negative:
            raise self._fail("an integer")
        if self.current.kind == "ident":
            return IndexExpr(((1, self._bound_var()),))
        raise self._fail("an exponent (integer, variable, or parenthesized index)")

    def atom(self):
        tok = self.current
        if tok.kind == "int" or (tok.kind == "-" and self.tokens[self.pos + 1].kind == "int"):
            return self.literal()
        if tok.kind in ("w", "x"):
            self.pos += 1
            return Sym(tok.kind)
        if tok.kind in ("E", "Ek"):
            self.pos += 1
            return self.e_call(with_order=tok.kind == "Ek")
        if tok.kind == "binom":
            self.pos += 1
            self.expect("(", "`(`")
            top = self.index_expr()
            self.expect(",", "`,`")
            bottom = self.index_expr()
            self.expect(")", "`)`")
            return Binom(top, bottom)
        if tok.kind == "sum":
            self.pos += 1
            return self.sum_expr()
        if tok.kind == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")", "`)`")
            return node
        if tok.kind == "ident":
            if tok.text in self.bound:
                raise DslParseError(
                    f"index variable `{tok.text}` is only valid inside E, Ek, binom,"
                    " sum bounds or exponents",
                    tok.line,
                    tok.column,
                )
            raise DslParseError(f"unbound variable `{tok.text}`", tok.line, tok.column)
        raise self._fail("an expression")

    def literal(self) -> Lit:
        # INT/INT folds into one literal, except right after `/`: w/1/2 is w/2
        fold = self.pos == 0 or self.tokens[self.pos - 1].kind != "/"
        negative = bool(self.accept("-"))
        num = int(self.expect("int", "an integer").text)
        if fold and self.current.kind == "/" and self.tokens[self.pos + 1].kind == "int":
            self.pos += 1
            den_tok = self.expect("int")
            den = int(den_tok.text)
            if den == 0:
                raise DslParseError("zero denominator", den_tok.line, den_tok.column)
            value = Fraction(num, den)
        else:
            value = Fraction(num)
        return Lit(-value if negative else value)

    def e_call(self, with_order: bool) -> ECall:
        self.expect("(", "`(`")
        order = None
        if with_order:
            order = self.index_expr()
            self.expect(",", "`,` (order then index)")
        index = self.index_expr()
        xarg = self._optional_xarg()
        return ECall(order, index, xarg)

    def _optional_xarg(self) -> Optional[int]:
        if self.accept(")"):
            return None
        if not self.accept(","):
            raise self._fail("`,` or `)`")
        self.expect("x", "`x`")
        shift = 0
        if self.current.kind in ("+", "-"):
            sign = 1 if self.current.kind == "+" else -1
            self.pos += 1
            shift = sign * int(self.expect("int", "an integer shift").text)
        self.expect(")", "`)`")
        return shift

    def sum_expr(self) -> SumExpr:
        self.expect("(", "`(`")
        var_tok = self.expect("ident", "a summation variable")
        if var_tok.text in self.bound:
            raise DslParseError(f"variable `{var_tok.text}` is already bound",
                                var_tok.line, var_tok.column)
        self.expect("=", "`=`")
        lo = self.index_expr()
        self.expect("..", "`..`")
        self.bound.append(var_tok.text)
        hi = self.index_expr()
        self.expect(",", "`,`")
        body = self.expr()
        self.expect(")", "`)`")
        self.bound.pop()
        return SumExpr(var_tok.text, lo, hi, body)

    # index := ["-"] idx_term (("+"|"-") idx_term)*
    # idx_term := INT ["*" IDENT] | IDENT
    def index_expr(self) -> IndexExpr:
        terms = []
        sign = -1 if self.accept("-") else 1
        terms.append(self._index_term(sign))
        while self.current.kind in ("+", "-"):
            sign = 1 if self.current.kind == "+" else -1
            self.pos += 1
            terms.append(self._index_term(sign))
        return IndexExpr(tuple(terms))

    def _index_term(self, sign: int):
        if self.current.kind == "int":
            coef = int(self.expect("int").text)
            if self.accept("*"):
                return (sign * coef, self._bound_var())
            return (sign * coef, None)
        if self.current.kind == "ident":
            return (sign, self._bound_var())
        raise self._fail("an integer or index variable")

    def _bound_var(self) -> str:
        tok = self.expect("ident", "an index variable")
        if tok.text not in self.bound:
            raise DslParseError(f"unbound variable `{tok.text}`", tok.line, tok.column)
        return tok.text


def parse_identity(text: str, line: int = 1) -> Identity:
    try:
        return _Parser(tokenize(text, line)).identity(text.strip())
    except RecursionError:
        raise DslParseError(TOO_DEEP, line, 1) from None


def parse_value(text: str) -> Polynomial:
    """The value in Q(w)[x] of one expression that reads no Euler table, such
    as a number or polynomial the CLI prints: parse_value("2/(1 + w)")."""
    try:
        parser = _Parser(tokenize(text))
        node = parser.expr()
        parser.expect("end", "end of expression")
        if _node_reach(node, {}) >= 0:
            raise DslEvalError(f"{text.strip()} reads an Euler table (E or Ek);"
                               " a value cannot")
        return evaluate_expr(node, {}, None)
    except RecursionError:
        raise DslParseError(TOO_DEEP, 1, 1) from None


# ---------------------------------------------------------------------------
# Evaluation


def _at(env: dict) -> str:
    """` at n=3, i=1` for the variables env binds; empty when it binds none."""
    return " at " + ", ".join(f"{k}={v}" for k, v in env.items()) if env else ""


def _index_value(idx: IndexExpr, env: dict, what: str) -> int:
    value = idx.evaluate(env)
    if value < 0:
        raise DslEvalError(f"negative {what} {idx.render()} = {value}{_at(env)}")
    return value


def evaluate_expr(node, env: dict, tables: TableChain) -> Polynomial:
    """Exact polynomial in x over Q(w); env binds every index variable, and
    `tables` reaches every index the node asks for."""
    if isinstance(node, Lit):
        return Polynomial(QW, (QW.of(node.value),))
    if isinstance(node, Sym):
        return Polynomial(QW, (W,)) if node.name == "w" else Polynomial.variable(QW)
    if isinstance(node, ECall):
        order = 1 if node.order is None else node.order.evaluate(env)
        index = _index_value(node.index, env, "index")
        if order < 1:
            raise DslEvalError(f"order must be at least 1, got {order}")
        table = tables.table(order)
        if node.xarg is None:
            return Polynomial(QW, (table.numbers[index],))
        return table.polys[index].shifted(node.xarg)
    if isinstance(node, Binom):
        n = node.top.evaluate(env)
        k = node.bottom.evaluate(env)
        return Polynomial(QW, (QW.of(binomial(n, k)),))
    if isinstance(node, SumExpr):
        lo = node.lo.evaluate(env)
        hi = node.hi.evaluate(env)
        acc = Polynomial.zero(QW)
        inner = dict(env)
        for v in range(lo, hi + 1):
            inner[node.var] = v
            acc = acc + evaluate_expr(node.body, inner, tables)
        return acc
    if isinstance(node, Chain):
        acc = evaluate_expr(node.first, env, tables)
        for op, operand in node.steps:
            value = evaluate_expr(operand, env, tables)
            if op == "/" and value.degree != 0:
                raise DslEvalError(f"divisor `{render_expr(operand)}` is {value}{_at(env)},"
                                   " not a nonzero element of Q(w)")
            acc = _OPS[op][1](acc, value)
        return acc
    if isinstance(node, PowExpr):
        exp = _index_value(node.exponent, env, "exponent")
        return evaluate_expr(node.base, env, tables) ** exp
    raise DslEvalError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Checking


@dataclass
class Verdict:
    status: str                    # "pass" | "fail" | "error"
    source: str = ""
    at: Optional[int] = None
    difference: Optional[str] = None
    message: Optional[str] = None
    location: Optional[tuple] = None

    def to_json(self) -> dict:
        out = {"source": self.source, "status": self.status}
        if self.at is not None:
            out["at"] = self.at
        if self.difference is not None:
            out["difference"] = self.difference
        if self.message is not None:
            out["message"] = self.message
        if self.location is not None:
            out["location"] = {"line": self.location[0], "column": self.location[1]}
        return out

    def render_text(self) -> str:
        if self.status == "pass":
            return f"PASS  {self.source}"
        if self.status == "fail":
            return f"FAIL  {self.source}  at {self.at}: difference {self.difference}"
        return f"ERROR {self.source}  {self.message}"


def _checked_top(ast: Identity, max_n: Optional[int]) -> int:
    return ast.hi if max_n is None else min(ast.hi, max_n)


def _node_reach(node, env: dict) -> int:
    """Largest table index `node` asks for under env, -1 if it asks for none."""
    if isinstance(node, ECall):
        return node.index.evaluate(env)
    if isinstance(node, SumExpr):
        inner = dict(env)
        reach = -1
        for v in range(node.lo.evaluate(env), node.hi.evaluate(env) + 1):
            inner[node.var] = v
            reach = max(reach, _node_reach(node.body, inner))
        return reach
    if isinstance(node, Chain):
        return max([_node_reach(node.first, env)]
                   + [_node_reach(operand, env) for _, operand in node.steps])
    if isinstance(node, PowExpr):
        return _node_reach(node.base, env)
    return -1


def _reach(ast: Identity, max_n: Optional[int]) -> int:
    """Largest table index the identity asks for over its checked range.

    Index expressions are walked, not evaluated into polynomials, so the one
    chain a check reads is sized before its first table is built, an index
    past n (E(n + 1) at n = hi) included.
    """
    return max((_node_reach(side, {ast.var: n})
                for n in range(ast.lo, _checked_top(ast, max_n) + 1)
                for side in (ast.lhs, ast.rhs)), default=-1)


def _check(ast: Identity, max_n: Optional[int], tables: Optional[TableChain]) -> Verdict:
    """The verdict of an identity read from tables that reach every index it asks for."""
    hi = _checked_top(ast, max_n)
    if hi < ast.lo:                # a PASS would claim an identity no index was checked for
        return Verdict("error", ast.source,
                       message=f"range {ast.lo}..{ast.hi} capped at max_n={max_n} checks no index")
    for n in range(ast.lo, hi + 1):
        env = {ast.var: n}
        try:
            diff = evaluate_expr(ast.lhs, env, tables) - evaluate_expr(ast.rhs, env, tables)
        except DslEvalError as exc:
            return Verdict("error", ast.source, at=n, message=str(exc))
        except RecursionError:
            return Verdict("error", ast.source, at=n, message=TOO_DEEP)
        if not diff.is_zero():
            return Verdict("fail", ast.source, at=n, difference=str(diff))
    return Verdict("pass", ast.source)


def _check_all(items: list, max_n: Optional[int]) -> list[Verdict]:
    """The verdict of each Identity in items, read from one TableChain through
    the largest index any of them asks for; Verdicts in items pass through."""
    reach = -1
    for i, item in enumerate(items):
        if isinstance(item, Identity):
            try:
                reach = max(reach, _reach(item, max_n))
            except RecursionError:
                items[i] = Verdict("error", item.source, message=TOO_DEEP)
    tables = TableChain(reach + 1) if reach >= 0 else None
    return [item if isinstance(item, Verdict) else _check(item, max_n, tables) for item in items]


def check_identity(ast: Identity, max_n: Optional[int] = None) -> Verdict:
    """Exact check over the declared range, optionally capped at max_n."""
    return _check_all([ast], max_n)[0]


def check_corpus(text: str, max_n: Optional[int] = None) -> list[Verdict]:
    """One verdict per identity line; parse failures become error verdicts.

    Lines end at "\n" alone, the one line break tokenize counts; every other
    line break str.splitlines() knows is whitespace inside its line.  A
    verdict's source is its line without a trailing comment.  Every line reads
    one TableChain, through the largest index any line asks for.
    """
    parsed = []                    # an Identity, or the error verdict of its line
    for lineno, raw in enumerate(text.split("\n"), start=1):
        source = raw.split("#", 1)[0].strip()
        if not source:
            continue
        try:
            parsed.append(replace(parse_identity(raw, line=lineno), source=source))
        except DslParseError as exc:
            parsed.append(Verdict("error", source, message=str(exc),
                                  location=(exc.line, exc.column)))
    return _check_all(parsed, max_n)
