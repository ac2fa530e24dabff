"""Division with remainder in the graded companion algebra.

Dividing H by P_1..P_r produces quotients and a remainder with
H = Q_1 P_1 + ... + Q_r P_r + R such that every monomial of Q_i, shifted
by the leading exponent of P_i, lands in the region claimed by P_i, and
no monomial of R is divisible by any leading exponent.  The regions
partition the exponent lattice by first match, which pins the result
down uniquely; this only works because the graded order is a well order,
so repeatedly rewriting the largest term terminates.

Every call re-checks its own output (reconstruction plus the support
conditions).  That is cheap next to the division itself and turns any
bug here into a loud ``InvariantViolation`` instead of a silently wrong
basis downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation
from .orders import leading_term
from .weyl import HomogOperator, vec_add, vec_leq, vec_sub


@dataclass(frozen=True)
class RegionPartition:
    """First-match partition of the exponent lattice by divisibility.

    Exponent m belongs to region i when exponents[i] <= m componentwise
    and no earlier exponent does; to no region when none divides it.
    """

    exponents: tuple

    def classify(self, m):
        for i, e in enumerate(self.exponents):
            if vec_leq(e, m):
                return i
        return None


@dataclass(frozen=True)
class DivisionResult:
    quotients: tuple
    remainder: HomogOperator


def divide(ctx, h: HomogOperator, divisors) -> DivisionResult:
    """Divide ``h`` by the sequence ``divisors`` in the graded algebra."""
    divisors = tuple(divisors)
    n = h.n
    for d in divisors:
        if d.is_zero():
            raise ValueError("cannot divide by the zero operator")
        if d.n != n:
            raise ValueError("variable count mismatch")

    leads = tuple(leading_term(ctx, d) for d in divisors)
    partition = RegionPartition(tuple(lt.exponent for lt in leads))

    work = dict(h.terms)
    quot_terms = [dict() for _ in divisors]
    rem_terms = {}

    while work:
        m = max(work, key=ctx.graded_key)
        i = partition.classify(m)
        if i is None:
            rem_terms[m] = work.pop(m)
            continue
        c = work[m]
        offset = vec_sub(m, leads[i].exponent)
        factor = c / leads[i].coefficient
        acc = quot_terms[i].get(offset)
        quot_terms[i][offset] = factor if acc is None else acc + factor
        # subtract factor * monomial(offset) * divisor; the m term cancels
        # exactly and everything else the product contributes is smaller
        piece = HomogOperator.monomial(n, offset, factor, h.field) * divisors[i]
        for key, coeff in piece.terms.items():
            cur = work.get(key, 0)
            s = cur - coeff
            if s == 0:
                work.pop(key, None)
            else:
                work[key] = s

    quotients = tuple(HomogOperator(n, t, h.field) for t in quot_terms)
    remainder = HomogOperator(n, rem_terms, h.field)
    _check_division(ctx, h, divisors, partition, quotients, remainder)
    return DivisionResult(quotients, remainder)


def _check_division(ctx, h, divisors, partition, quotients, remainder):
    total = remainder
    for q, d in zip(quotients, divisors):
        total = total + q * d
    if total != h:
        raise InvariantViolation("division reconstruction failed")
    for i, (q, lead) in enumerate(zip(quotients, partition.exponents)):
        for m in q.terms:
            if partition.classify(vec_add(lead, m)) != i:
                raise InvariantViolation(
                    f"quotient {i} holds a monomial outside its region"
                )
    for m in remainder.terms:
        if partition.classify(m) is not None:
            raise InvariantViolation("remainder contains a divisible monomial")


def reduces_to_zero(ctx, h, divisors) -> bool:
    return divide(ctx, h, divisors).remainder.is_zero()
