"""Weight forms, tiebreak orders, leading terms, and packed exponents.

A weight form assigns the value sum(p_i*a_i + q_i*b_i) to the exponent
(a, b) of a normal-ordered monomial x^a D^b.  Admissibility means
p_i + q_i >= 0 for every i; that is exactly the condition under which
the induced filtration of the operator algebra is compatible with the
product (the commutator [D_i, x_i] = 1 lives in weight -(p_i + q_i)
relative to x_i D_i).

The weight alone does not order monomials, so a classical monomial well
order breaks ties.  Each order is a list of integer rows read against
the exponent, compared first row first (a matrix order):

- the weight row (p, q);
- the total degree, a row of ones, unless the tiebreak is lex;
- one signed unit row per variable: the exponents from the largest
  variable down for lex and deglex, negated from the smallest up for
  degrevlex, where the variables run from smallest to largest in the
  tiebreak's ``perm``.

The key is linear in the exponent, which is what ``exponent_packing``
uses to pack an exponent into one int: its key, read in radix 2^r.  On
the graded companion algebra the graded degree k + |a| + |b| comes
first, and the pair (graded degree, weighted order on the x/D part) is a
well order, which is what makes division terminate there.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter, mul, neg

from .weyl import NEG_INF, HomogOperator, Polynomial, WeylOperator, degree_lex_key

TIEBREAK_KINDS = ("lex", "deglex", "degrevlex")


@dataclass(frozen=True)
class LinearForm:
    """Integer weights (p, q) for the x and D variables."""

    p: tuple
    q: tuple

    def __post_init__(self):
        p, q = tuple(self.p), tuple(self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if len(p) != len(q) or not p:
            raise ValueError("p and q must be nonempty and of equal length")
        for i, (pi, qi) in enumerate(zip(p, q)):
            if not (type(pi) is int and type(qi) is int):
                raise ValueError(f"weights must be integers, got p = {p!r}, q = {q!r}")
            if pi + qi < 0:
                raise ValueError(
                    f"weight form not admissible: p[{i}] + q[{i}] = {pi + qi} < 0"
                )
        object.__setattr__(self, "row", p + q)

    @property
    def n(self):
        return len(self.p)

    @classmethod
    def order(cls, n):
        """Total order of the operator: weight |beta|."""
        return cls.l_form(n, 1, 0)

    @classmethod
    def bernstein(cls, n):
        """Total degree |alpha| + |beta|."""
        return cls((1,) * n, (1,) * n)

    @classmethod
    def v_form(cls, n):
        """Weight b_n - a_n along the hyperplane x_n = 0."""
        return cls.l_form(n, 0, 1)

    @classmethod
    def l_form(cls, n, r, s):
        """Mixed weight r*|beta| + s*(b_n - a_n), the standard interpolation
        between the order form (s = 0) and the hyperplane form."""
        p = tuple(-s if i == n - 1 else 0 for i in range(n))
        q = tuple(r + s if i == n - 1 else r for i in range(n))
        return cls(p, q)

    def value(self, m):
        """Weight of a flat exponent (a_1..a_n, b_1..b_n)."""
        return sum(map(mul, self.row, m))

    def weight(self, op: WeylOperator):
        """Max weight over the support; -inf for the zero operator."""
        if op.is_zero():
            return NEG_INF
        return max(self.value(m) for m in op.terms)


@dataclass(frozen=True)
class TieBreak:
    """A monomial well order on the 2n exponents, used below the weight.

    ``perm`` lists flat key positions from the smallest variable to the
    largest.  The default order is x1 < ... < xn < D1 < ... < Dn, i.e.
    the identity permutation.

    ``kind`` is read once, into the order's rows: a degree row when
    ``graded`` (every kind but lex), then the unit rows of ``positions``,
    most significant first, each times ``sign``.
    """

    kind: str
    perm: tuple

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(self.perm))
        if self.kind not in TIEBREAK_KINDS:
            raise ValueError(f"tiebreak must be one of {TIEBREAK_KINDS}, got {self.kind!r}")
        if any(type(i) is not int for i in self.perm):
            raise ValueError(f"tiebreak positions must be ints, got {self.perm!r}")
        if len(self.perm) < 2 or sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("perm must list every flat key position exactly once (at least two)")
        revlex = self.kind == "degrevlex"
        object.__setattr__(self, "graded", self.kind != "lex")
        object.__setattr__(self, "positions", self.perm if revlex else self.perm[::-1])
        object.__setattr__(self, "sign", -1 if revlex else 1)
        object.__setattr__(self, "_pick", itemgetter(*self.positions))

    @classmethod
    def default(cls, n):
        return cls("degrevlex", tuple(range(2 * n)))

    def key(self, m):
        """Sort key: bigger tuple = bigger monomial.  Injective on exponents."""
        w = self._pick(m)
        if self.sign < 0:  # negated rows are a well order only below the degree row
            return (sum(w), *map(neg, w))
        return (sum(w), *w) if self.graded else w


@dataclass(frozen=True)
class OrderContext:
    """A weight form together with its tiebreak; the ambient order data.

    ``weighted_key`` orders plain exponents by (weight, tiebreak): not a
    well order in general (weights can decrease forever when some
    p_i + q_i = 0 pairs with a negative entry), which is the whole reason
    the graded companion algebra exists.  ``graded_key`` prepends the
    graded degree k + |a| + |b| and is a well order.
    """

    form: LinearForm
    tiebreak: TieBreak = None

    def __post_init__(self):
        if self.tiebreak is None:
            object.__setattr__(self, "tiebreak", TieBreak.default(self.form.n))
        if len(self.tiebreak.perm) != 2 * self.form.n:
            raise ValueError("tiebreak covers a different number of variables")

    @property
    def n(self):
        return self.form.n

    def weighted_key(self, m):
        """Integer tuple key for a flat 2n exponent under the weighted order."""
        return (self.form.value(m),) + self.tiebreak.key(m)

    def graded_key(self, m):
        """Integer tuple key for a flat (k, a, b) exponent: degree first."""
        return (sum(m),) + self.weighted_key(m[1:])


def pack_exponent(units, e):
    """The packed int of exponent ``e``: the sum of e_i * units[i] over its
    nonzero entries only."""
    return sum(map(mul, compress(units, e), filter(None, e)))


def exponent_packing(ctx, bound):
    """The units u_i that pack a plain exponent e of degree at most
    ``bound`` as the int sum of e_i * u_i (``pack_exponent``), and the
    decoder of a packed int.

    u_i is ``ctx.weighted_key`` of the i-th unit exponent read as
    balanced digits in radix R = 2^r, one digit per row of the order:
    its weight, 1 in the degree digit unless the tiebreak is lex, and the
    tiebreak's sign in the digit of its own unit row.  The key is linear
    in e, so the packed int is the key of e read in that radix, with no
    other field; each of its digits is at most the bound times the
    largest row entry in size, below R/2, so it orders exponents exactly
    as the key does.  The decoder reads the 2n unit-row digits back,
    least significant first, each times the tiebreak's sign."""
    width = 2 * ctx.n
    tie = ctx.tiebreak
    weights = ctx.form.row
    r = (2 * bound * max(1, *map(abs, weights))).bit_length()
    degree = tie.graded << r * width  # the digit above the unit rows
    units = [0] * width
    for j, i in enumerate(tie.positions):  # the digits of the unit rows, most significant first
        units[i] = (weights[i] << r * (width + tie.graded)) + degree + (tie.sign << r * (width - 1 - j))
    half, mask = (1 << r) >> 1, (1 << r) - 1  # half is 0 at bound 0, where every digit is 0

    def unpack(packed):
        e = [0] * width
        for i in reversed(tie.positions):
            digit = ((packed + half) & mask) - half
            e[i] = tie.sign * digit
            packed = (packed - digit) >> r
        return tuple(e)

    return units, unpack


def check_n(ctx, op):
    """Refuse an operator of another n, whose keys would read a garbled order."""
    if op.n != ctx.n:
        raise ValueError(f"the order context has n = {ctx.n} but the operator has n = {op.n}")


def term_key(ctx, op):
    """The sort key for the terms of ``op``: the graded key for graded
    operators and the weighted key for plain ones, or
    ``weyl.degree_lex_key`` when there is no context or ``op`` is a
    ``Polynomial``, which no weight form orders.  Leading terms, division,
    printing and JSON all order terms by it, and refuse another n by it."""
    if ctx is None or isinstance(op, Polynomial):
        return degree_lex_key
    check_n(ctx, op)
    return ctx.graded_key if isinstance(op, HomogOperator) else ctx.weighted_key


LeadingTerm = namedtuple("LeadingTerm", ["exponent", "coefficient"])


def leading_term(ctx, op):
    """Largest term of ``op``: weighted order for plain operators, graded
    order for graded ones.  Raises on zero, which has no leading exponent.

    Operators are immutable, so the answer is kept on ``op`` together with
    the context it was found for, and reused while the same context (by
    identity) asks again."""
    memo = op._lead
    if memo is not None and memo[0] is ctx:
        return memo[1]
    if op.is_zero():
        raise ValueError("the zero operator has no leading term")
    m = max(op.terms, key=term_key(ctx, op))
    lead = LeadingTerm(m, op.terms[m])
    op._lead = (ctx, lead)
    return lead


def principal_symbol(ctx, op: WeylOperator) -> WeylOperator:
    """Sum of the terms of maximal weight: the image of ``op`` in the
    associated graded algebra, written on the same monomial basis."""
    if not isinstance(op, WeylOperator):
        raise ValueError(
            f"principal symbols are taken of plain operators, not {type(op).__name__}; "
            "dehomogenize a graded operator first"
        )
    if op.is_zero():
        raise ValueError("the zero operator has no principal symbol")
    check_n(ctx, op)
    top = ctx.form.weight(op)
    keep = {m: c for m, c in op.terms.items() if ctx.form.value(m) == top}
    return WeylOperator(op.n, keep, op.field)


def is_graded_commutative(form: LinearForm) -> bool:
    """Whether the associated graded algebra is a commutative polynomial
    ring: true exactly when every p_i + q_i is strictly positive.  When
    some p_i + q_i = 0 the graded algebra contains a copy of the operator
    algebra in those variables instead."""
    return all(pi + qi > 0 for pi, qi in zip(form.p, form.q))
