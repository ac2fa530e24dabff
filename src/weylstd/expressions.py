"""Text syntax for operators: parsing and printing.

The expression language is ordinary infix arithmetic over the symbols
x1..xn and D1..Dn (a lowercase d works too), with ^ for powers, integer
or rational coefficients, and parentheses:

    (x1 + 2*D1)^2 - 1/3*x1*D2

Parsing evaluates directly in the operator algebra, so any syntactically
valid expression lands in normal order automatically.  Printing emits
the same syntax back, largest term first under the active order, and
parses back to the identical operator.

``variable_position`` is the one variable-name rule (the config's
``var_order`` follows it too), ``read_lines`` the one text-file reader.
"""

from __future__ import annotations

import io
import re

from .errors import ParseError
from .orders import term_key
from .scalars import QQ, read_natural
from .weyl import WeylOperator, format_terms

_OPERATORS = set("+-*^()/")
# ASCII only: str.isdigit() also takes "²" and "１", which int() reads
# wrongly or not at all
_DIGITS = frozenset("0123456789")
_VARIABLE = re.compile("([xDd])([0-9]+)")


def _tokenize(text):
    """Yield (kind, value, line, column) with kind INT, SYM or a literal."""
    out = []
    line, start, i = 1, 0, 0  # start: where the current line begins in text
    while i < len(text):
        ch, col, j = text[i], i - start + 1, i + 1
        if ch in _OPERATORS:
            out.append((ch, ch, line, col))
        elif ch in _DIGITS or ch.isascii() and ch.isalpha():
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            try:
                value = read_natural(text[i:j]) if ch in _DIGITS else text[i:j]
            except ValueError as e:
                raise ParseError(str(e), line, col) from None
            out.append(("INT" if ch in _DIGITS else "SYM", value, line, col))
        elif ch == "\n":
            line, start = line + 1, j
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", line, col)
        i = j
    out.append(("END", None, line, len(text) - start + 1))
    return out


def variable_position(name, n):
    """Flat key position of ``x<i>`` (i - 1) or ``D<i>``/``d<i>`` (n + i - 1),
    1 <= i <= n in ASCII digits; anything else is a ValueError."""
    match = _VARIABLE.fullmatch(name) if type(name) is str else None
    if match is None:
        raise ValueError(f"unknown symbol {name!r}")
    i = read_natural(match[2])
    if not 1 <= i <= n:
        raise ValueError(f"symbol {name!r} is out of range for {n} variable(s)")
    return i - 1 if match[1] == "x" else n + i - 1


def read_lines(path):
    """(line number, line) pairs of a UTF-8 file, universal newlines; a
    byte that is not UTF-8 is a ParseError at its line and column."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        before = io.StringIO(data[: e.start].decode("utf-8"), newline=None).read()
        line, column = before.count("\n") + 1, len(before) - before.rfind("\n")
        raise ParseError(f"{path}: not valid UTF-8", line, column) from None
    return enumerate(io.StringIO(text, newline=None), start=1)


class _Parser:
    def __init__(self, tokens, n, field):
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.field = field

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def natural(self):
        if self.peek()[0] != "INT":
            raise self.expected("a natural number")
        return self.take()[1]

    def expected(self, what):
        kind, value, line, col = self.peek()
        found = "end of input" if kind == "END" else repr(value)
        return ParseError(f"expected {what}, found {found}", line, col)

    def expr(self):
        acc = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self):
        acc = self.factor()
        while self.peek()[0] == "*":
            self.take()
            acc = acc * self.factor()
        return acc

    def factor(self):
        if self.peek()[0] == "-":
            self.take()
            return -self.factor()
        return self.base()

    def base(self):
        acc = self.atom()
        if self.peek()[0] == "^":
            self.take()
            acc = acc ** self.natural()
        return acc

    def atom(self):
        kind, value, line, col = self.peek()
        if kind == "INT":
            self.take()
            numer, denom = value, 1
            if self.peek()[0] == "/":
                self.take()
                denom = self.natural()
            try:
                c = self.field.from_int(numer, denom)
            except ZeroDivisionError:
                raise ParseError(
                    f"division by zero in coefficient {numer}/{denom}", line, col
                ) from None
            return WeylOperator.constant(self.n, c, self.field)
        if kind == "SYM":
            self.take()
            return self.symbol(value, line, col)
        if kind == "(":
            self.take()
            inner = self.expr()
            tok = self.take()
            if tok[0] != ")":
                raise ParseError("unbalanced parenthesis", tok[2], tok[3])
            return inner
        raise self.expected("a coefficient, symbol or parenthesis")

    def symbol(self, name, line, col):
        try:
            position = variable_position(name, self.n)
        except ValueError as e:
            raise ParseError(str(e), line, col) from None
        return WeylOperator._generator(self.n, position, field=self.field)


def parse_operator(text, n, field=QQ) -> WeylOperator:
    """Evaluate an expression to a normal-ordered operator."""
    parser = _Parser(_tokenize(text), n, field)
    try:
        op = parser.expr()
    except RecursionError:  # the descent recurses once per parenthesis or sign
        raise ParseError("expression nested too deeply", *parser.peek()[2:]) from None
    tok = parser.peek()
    if tok[0] != "END":
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2], tok[3])
    return op


def format_operator(op, ctx=None) -> str:
    """Print an operator in expression syntax, largest term first.

    With an order context the terms follow the active order (weighted
    for plain operators, graded for graded ones); without one they fall
    back to a fixed degree-then-lex order.  Output always parses back to
    the same operator, graded elements aside (t has no input syntax).
    """
    return format_terms(op, term_key(ctx, op))
