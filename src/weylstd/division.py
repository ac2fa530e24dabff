"""Division with remainder in the graded companion algebra.

Dividing H by P_1..P_r produces quotients and a remainder with
H = Q_1 P_1 + ... + Q_r P_r + R such that every monomial of Q_i, shifted
by the leading exponent of P_i, lands in the region claimed by P_i, and
no monomial of R is divisible by any leading exponent.  The regions
partition the exponent lattice by first match, which pins the result
down uniquely; this only works because the graded order is a well order,
so repeatedly rewriting the largest term terminates.

``divide`` re-checks its own output (reconstruction plus the support
conditions), which turns any bug here into a loud ``InvariantViolation``
instead of a silently wrong result.  The check is not cheap: the
reconstruction multiplies out every Q_i P_i again.  ``divide_unchecked``
is the same division without it, for the completion's own divisions,
whose output the completion certificate proves as a whole (see
``standard_basis``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import InvariantViolation
from .orders import leading_term, term_key
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
    partition, quotients, remainder = divide_unchecked(ctx, h, divisors)
    _check_division(ctx, h, divisors, partition, quotients, remainder)
    return DivisionResult(quotients, remainder)


def divide_unchecked(ctx, h: HomogOperator, divisors):
    """``divide`` without the check of its output: the partition by the
    divisors' leads, the quotients and the remainder.  It still checks
    that each elimination step cancels the term it eliminates."""
    divisors = tuple(divisors)
    for i, d in enumerate((h,) + divisors):  # the dividend first; it may be zero
        if not isinstance(d, HomogOperator):
            raise ValueError(f"divide takes HomogOperators, not {type(d).__name__}")
        if i and d.is_zero():
            raise ValueError("cannot divide by the zero operator")
        h._same_algebra(d)
    n = h.n
    sort_key = term_key(ctx, h)

    leads = tuple(leading_term(ctx, d) for d in divisors)
    partition = RegionPartition(tuple(lt.exponent for lt in leads))

    # The working terms sit on a max-heap of their graded keys, each key
    # computed once, when its term enters.  A term that cancels leaves a
    # stale heap entry, skipped when popped; since every term an
    # elimination adds is smaller than the one it removes, a popped term
    # never comes back.  A ``max`` over the work map per step instead was
    # slower on the four- and five-variable GKZ systems (median 0.296 to
    # 0.347 s and 2.36 to 2.55 s on a shared 2-vCPU VM), so the heap stays.
    work = dict(h.terms)
    heap = [(_descending(sort_key(m)), m) for m in work]
    heapq.heapify(heap)
    quot_terms = [dict() for _ in divisors]
    rem_terms = {}

    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        i = partition.classify(m)
        if i is None:
            rem_terms[m] = c
            continue
        piece = _eliminate(quot_terms[i], m, c, leads[i], divisors[i], h.field)
        if piece.terms.get(m) != c:
            raise InvariantViolation("an elimination step did not cancel the leading term")
        for key, coeff in piece.terms.items():
            if key == m:
                continue
            cur = work.get(key)
            if cur is None:
                work[key] = -coeff
                heapq.heappush(heap, (_descending(sort_key(key)), key))
                continue
            s = cur - coeff
            if s == 0:
                del work[key]
            else:
                work[key] = s

    quotients = tuple(HomogOperator._trusted(n, t, h.field) for t in quot_terms)
    remainder = HomogOperator._trusted(n, rem_terms, h.field)
    return partition, quotients, remainder


def _descending(key):
    """A heap key that pops the largest order key first."""
    return tuple(-e for e in key)


def _eliminate(quotient, m, c, lead, divisor, field):
    """Record in ``quotient`` the monomial that cancels the term c*m
    against ``divisor``, and return that monomial times the divisor.

    Each m is eliminated once, so each quotient monomial is written once."""
    offset = vec_sub(m, lead.exponent)
    factor = c / lead.coefficient
    quotient[offset] = factor
    return HomogOperator._trusted(divisor.n, {offset: factor}, field) * divisor


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
