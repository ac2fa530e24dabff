"""Weight forms, tiebreak orders, and leading terms.

A weight form assigns the value sum(p_i*a_i + q_i*b_i) to the exponent
(a, b) of a normal-ordered monomial x^a D^b.  Admissibility means
p_i + q_i >= 0 for every i; that is exactly the condition under which
the induced filtration of the operator algebra is compatible with the
product (the commutator [D_i, x_i] = 1 lives in weight -(p_i + q_i)
relative to x_i D_i).

The weight alone does not order monomials, so a classical monomial well
order breaks ties.  On the graded companion algebra the pair (graded
degree, weighted order on the x/D part) is a well order, which is what
makes division terminate there.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .weyl import NEG_INF, HomogOperator, WeylOperator

TIEBREAK_KINDS = ("lex", "deglex", "degrevlex")


@dataclass(frozen=True)
class LinearForm:
    """Integer weights (p, q) for the x and D variables."""

    p: tuple
    q: tuple

    def __post_init__(self):
        p = tuple(int(e) for e in self.p)
        q = tuple(int(e) for e in self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if len(p) != len(q) or not p:
            raise ValueError("p and q must be nonempty and of equal length")
        for i, (pi, qi) in enumerate(zip(p, q)):
            if pi + qi < 0:
                raise ValueError(
                    f"weight form not admissible: p[{i}] + q[{i}] = {pi + qi} < 0"
                )

    @property
    def n(self):
        return len(self.p)

    @classmethod
    def order(cls, n):
        """Total order of the operator: weight |beta|."""
        return cls((0,) * n, (1,) * n)

    @classmethod
    def bernstein(cls, n):
        """Total degree |alpha| + |beta|."""
        return cls((1,) * n, (1,) * n)

    @classmethod
    def v_form(cls, n):
        """Weight b_n - a_n along the hyperplane x_n = 0."""
        p = tuple(-1 if i == n - 1 else 0 for i in range(n))
        q = tuple(1 if i == n - 1 else 0 for i in range(n))
        return cls(p, q)

    @classmethod
    def l_form(cls, n, r, s):
        """Mixed weight r*|beta| + s*(b_n - a_n), the standard interpolation
        between the order form (s = 0) and the hyperplane form."""
        p = tuple(-s if i == n - 1 else 0 for i in range(n))
        q = tuple(r + s if i == n - 1 else r for i in range(n))
        return cls(p, q)

    def value(self, m):
        """Weight of a flat exponent (a_1..a_n, b_1..b_n)."""
        return sum(w * e for w, e in zip(self.p + self.q, m))

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
    """

    kind: str
    perm: tuple

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(self.perm))
        if self.kind not in TIEBREAK_KINDS:
            raise ValueError(f"unknown tiebreak {self.kind!r}; pick from {TIEBREAK_KINDS}")
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("perm must be a permutation of the flat key positions")

    @classmethod
    def default(cls, n):
        return cls("degrevlex", tuple(range(2 * n)))

    def key(self, m):
        """Sort key: bigger tuple = bigger monomial.  Injective on exponents."""
        w = tuple(m[i] for i in self.perm)
        if self.kind == "lex":
            return tuple(reversed(w))
        if self.kind == "deglex":
            return (sum(w),) + tuple(reversed(w))
        return (sum(w),) + tuple(-e for e in w)


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
    if isinstance(op, HomogOperator):
        m = max(op.terms, key=ctx.graded_key)
    else:
        m = max(op.terms, key=ctx.weighted_key)
    lead = LeadingTerm(m, op.terms[m])
    op._lead = (ctx, lead)
    return lead


def principal_symbol(ctx, op: WeylOperator) -> WeylOperator:
    """Sum of the terms of maximal weight: the image of ``op`` in the
    associated graded algebra, written on the same monomial basis."""
    if op.is_zero():
        raise ValueError("the zero operator has no principal symbol")
    top = ctx.form.weight(op)
    keep = {m: c for m, c in op.terms.items() if ctx.form.value(m) == top}
    return WeylOperator(op.n, keep, op.field)


def is_graded_commutative(form: LinearForm) -> bool:
    """Whether the associated graded algebra is a commutative polynomial
    ring: true exactly when every p_i + q_i is strictly positive.  When
    some p_i + q_i = 0 the graded algebra contains a copy of the operator
    algebra in those variables instead."""
    return all(pi + qi > 0 for pi, qi in zip(form.p, form.q))
