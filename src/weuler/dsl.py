"""A small identity language for the weighted Euler family.

One identity per line: `forall n in 0..8 : expr = expr`, with nodes for
literals, w, x, Ek(order, index[, x+shift]) and its order-1 form E(...),
binom(i, j), sum(i = lo..hi, body), +, -, * and ^.  A sum or a product is
one node, a `Chain` of its first operand and its (operator, operand) steps,
so a sum of thousands of terms is parsed, evaluated, rendered, compared and
hashed in a loop.  Index expressions are integer-linear in the bound
variables; there is no division operator (rational constants are written as
literals like 1/2).  Both sides evaluate to polynomials in x over Q(w) and
are compared in canonical form.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .euler import EulerTable, TableChain
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


_SYMBOLS = ("..", "+", "-", "*", "/", "^", "(", ")", ",", ":", "=")


def tokenize(text: str, line: int = 1) -> list[Token]:
    tokens = []
    col = 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "#":               # a comment runs to the end of its line
            end = text.find("\n", i)
            i = len(text) if end < 0 else end
            continue
        if ch.isdecimal():          # isdigit() also takes ² and ①, which int() refuses
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            try:
                int(text[i:j])      # past sys.get_int_max_str_digits(), int() refuses it
            except ValueError:
                raise DslParseError(f"integer literal of {j - i} digits is too long",
                                    line, col) from None
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(Token(word if word in KEYWORDS else "ident", word, line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token(sym, sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise DslParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("end", "", line, col))
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
    steps: tuple                   # ((op, operand), ...), all "+"/"-" or all "*"


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


# operator -> (precedence, function); ^ binds tighter than all three
_OPS = {"+": (1, operator.add), "-": (1, operator.sub), "*": (2, operator.mul)}


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
        for op, operand in node.steps:
            text = render_expr(operand)
            if _precedence(operand) <= prec:
                text = f"({text})"
            parts.append(f"*{text}" if op == "*" else f" {op} {text}")
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
        first, steps = self.power(), []
        while self.accept("*"):
            steps.append(("*", self.power()))
        return _chain(first, steps)

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
        negative = bool(self.accept("-"))
        num = int(self.expect("int", "an integer").text)
        if self.accept("/"):
            den_tok = self.expect("int", "an integer denominator")
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


# ---------------------------------------------------------------------------
# Evaluation


class TableContext:
    """Euler tables of every order, read from one TableChain sized through max_index.

    max_index is the largest index asked for by an identity checked with
    this context; check_identity raises it to its own identity's reach and
    check_corpus to the whole corpus's before the first check, so a corpus
    builds each order once whatever order its ranges come in.  The chain is
    sized through max_index, or through the index asked for if that is
    larger.  It is rebuilt, dropping every order it held, only when an
    identity reaches past it, so no order is read from a chain that is
    about to be replaced.
    """

    def __init__(self):
        self.max_index = 0
        self.chain: Optional[TableChain] = None

    def table(self, order: int, index: int) -> EulerTable:
        if order < 1:
            raise DslEvalError(f"order must be at least 1, got {order}")
        reach = max(index, self.max_index)
        if self.chain is None or self.chain.count <= reach:
            self.chain = TableChain(reach + 1)
        return self.chain.table(order)

    def number(self, order: int, index: int):
        return self.table(order, index).numbers[index]

    def poly(self, order: int, index: int) -> Polynomial:
        return self.table(order, index).polys[index]


def _index_value(idx: IndexExpr, env: dict, what: str) -> int:
    value = idx.evaluate(env)
    if value < 0:
        bindings = ", ".join(f"{k}={v}" for k, v in env.items())
        raise DslEvalError(f"negative {what} {idx.render()} = {value} at {bindings}")
    return value


def evaluate_expr(node, env: dict, ctx: TableContext) -> Polynomial:
    """Exact polynomial in x over Q(w); env binds every index variable."""
    if isinstance(node, Lit):
        return Polynomial(QW, (QW.of(node.value),))
    if isinstance(node, Sym):
        return Polynomial(QW, (W,)) if node.name == "w" else Polynomial.variable(QW)
    if isinstance(node, ECall):
        order = 1 if node.order is None else node.order.evaluate(env)
        index = _index_value(node.index, env, "index")
        if node.xarg is None:
            return Polynomial(QW, (ctx.number(order, index),))
        return ctx.poly(order, index).shifted(node.xarg)
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
            acc = acc + evaluate_expr(node.body, inner, ctx)
        return acc
    if isinstance(node, Chain):
        acc = evaluate_expr(node.first, env, ctx)
        for op, operand in node.steps:
            acc = _OPS[op][1](acc, evaluate_expr(operand, env, ctx))
        return acc
    if isinstance(node, PowExpr):
        exp = _index_value(node.exponent, env, "exponent")
        return evaluate_expr(node.base, env, ctx) ** exp
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

    Index expressions are walked, not evaluated into polynomials, so an
    index past n (E(n + 1) at n = hi) sizes the tables before the first
    build instead of forcing a rebuild once the check gets there.
    """
    return max((_node_reach(side, {ast.var: n})
                for n in range(ast.lo, _checked_top(ast, max_n) + 1)
                for side in (ast.lhs, ast.rhs)), default=-1)


def check_identity(ast: Identity, ctx: TableContext, max_n: Optional[int] = None) -> Verdict:
    """Exact check over the declared range, optionally capped at max_n."""
    hi = _checked_top(ast, max_n)
    if hi < ast.lo:                # a PASS would claim an identity no index was checked for
        return Verdict("error", ast.source,
                       message=f"range {ast.lo}..{ast.hi} capped at max_n={max_n} checks no index")
    try:
        ctx.max_index = max(ctx.max_index, _reach(ast, max_n))
    except RecursionError:
        return Verdict("error", ast.source, message=TOO_DEEP)
    for n in range(ast.lo, hi + 1):
        env = {ast.var: n}
        try:
            diff = evaluate_expr(ast.lhs, env, ctx) - evaluate_expr(ast.rhs, env, ctx)
        except DslEvalError as exc:
            return Verdict("error", ast.source, at=n, message=str(exc))
        except RecursionError:
            return Verdict("error", ast.source, at=n, message=TOO_DEEP)
        if not diff.is_zero():
            return Verdict("fail", ast.source, at=n, difference=str(diff))
    return Verdict("pass", ast.source)


def check_corpus(text: str, ctx: TableContext, max_n: Optional[int] = None) -> list[Verdict]:
    """One verdict per identity line; parse failures become error verdicts."""
    parsed = []                    # an Identity, or the error verdict of its line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            parsed.append(parse_identity(raw, line=lineno))
        except DslParseError as exc:
            parsed.append(Verdict("error", stripped, message=str(exc),
                                  location=(exc.line, exc.column)))
    for item in parsed:
        if isinstance(item, Identity):
            try:
                ctx.max_index = max(ctx.max_index, _reach(item, max_n))
            except RecursionError:
                pass               # check_identity gives the line its error verdict
    return [item if isinstance(item, Verdict) else check_identity(item, ctx, max_n=max_n)
            for item in parsed]
