"""Text syntax for operators: parsing and printing.

The expression language is ordinary infix arithmetic over the symbols
x1..xn and D1..Dn (a lowercase d works too), with ^ for powers, integer
or rational coefficients, and parentheses:

    (x1 + 2*D1)^2 - 1/3*x1*D2

Parsing evaluates directly in the operator algebra, so any syntactically
valid expression lands in normal order automatically.  Printing emits
the same syntax back, largest term first under the active order, and
parses back to the identical operator.
"""

from __future__ import annotations

from .errors import ParseError
from .orders import term_key
from .scalars import QQ
from .weyl import WeylOperator, format_terms

_OPERATORS = set("+-*^()/")
# ASCII only: str.isdigit() also takes "²" and "１", which int() reads
# wrongly or not at all
_DIGITS = frozenset("0123456789")


def _tokenize(text):
    """Yield (kind, value, line, column) with kind INT, SYM or a literal."""
    line = 1
    col = 1
    i = 0
    out = []
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
        if ch in _OPERATORS:
            out.append((ch, ch, line, col))
            col += 1
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            out.append(("INT", _natural(text[i:j], line, col), line, col))
            col += j - i
            i = j
            continue
        if ch.isascii() and ch.isalpha():
            j = i + 1
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            out.append(("SYM", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    out.append(("END", None, line, col))
    return out


def _natural(digits, line, col):
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on int digits
        raise ParseError(f"number of {len(digits)} digits is too long", line, col) from None


class _Parser:
    def __init__(self, tokens, n, field):
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.field = field

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2], tok[3])
        self.pos += 1
        return tok

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
            tok = self.take("INT")
            acc = acc ** tok[1]
        return acc

    def atom(self):
        kind, value, line, col = self.peek()
        if kind == "INT":
            self.take()
            numer, denom = value, 1
            if self.peek()[0] == "/":
                self.take()
                denom = self.take("INT")[1]
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
            tok = self.peek()
            if tok[0] != ")":
                raise ParseError("unbalanced parenthesis", tok[2], tok[3])
            self.take()
            return inner
        raise ParseError(f"expected a coefficient, symbol or parenthesis, found {value!r}", line, col)

    def symbol(self, name, line, col):
        head, digits = name[0], name[1:]
        if head not in ("x", "D", "d") or not digits:
            raise ParseError(f"unknown symbol {name!r}", line, col)
        index = _natural(digits, line, col)
        if not 1 <= index <= self.n:
            raise ParseError(
                f"symbol {name!r} is out of range for {self.n} variable(s)", line, col
            )
        if head == "x":
            return WeylOperator.x(self.n, index, field=self.field)
        return WeylOperator.d(self.n, index, field=self.field)


def parse_operator(text, n, field=QQ) -> WeylOperator:
    """Evaluate an expression to a normal-ordered operator."""
    parser = _Parser(_tokenize(text), n, field)
    op = parser.expr()
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
