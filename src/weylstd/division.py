"""Division with remainder in the graded companion algebra.

Dividing H by P_1..P_r produces quotients and a remainder with
H = Q_1 P_1 + ... + Q_r P_r + R such that every monomial of Q_i, shifted
by the leading exponent of P_i, lands in the region claimed by P_i, and
no monomial of R is divisible by any leading exponent.  The regions
partition the exponent lattice by first match, which pins the result
down uniquely; this only works because the graded order is a well order,
so repeatedly rewriting the largest term terminates.

The division is fraction-free (pseudo-division with a running
denominator; Knuth, TAOCP Vol. 2, 4.6.1).  It works on the cached
integer forms (d, T) of the operators (``_TermMap.integer_form``): the
working terms are ints over a running denominator, and each step asks
the field for the cancelling pair (r, f) of the term w to eliminate and
the divisor's integer lead: r*w = f*lead.  The working terms and the
denominator are scaled by r only when r is not 1, which over F_p it
never is, and f times the monomial times T is subtracted.  Each
quotient and remainder coefficient is turned back into a field element
once, by ``field.from_scaled``; over F_p that is the residue itself.

``divide`` re-checks its own output (reconstruction plus the support
conditions, and that every coefficient is in the field), which turns
any bug here into a loud ``InvariantViolation`` instead of a silently
wrong result.  The check is not cheap: the reconstruction multiplies
out every Q_i P_i again, in ints (``check_sum_of_products``, which the
completion certificate also uses for its cofactor rows).  ``divide_unchecked``
is the same division without it, for the completion's own divisions,
whose output the completion certificate proves as a whole (see
``standard_basis``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import lcm

from .errors import InvariantViolation
from .orders import leading_term, term_key
from .weyl import HomogOperator, _graded_product, add_terms, vec_add, vec_leq, vec_sub


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
    field = h.field
    n, p = h.n, field.characteristic
    sort_key = term_key(ctx, h)

    leads = tuple(leading_term(ctx, d).exponent for d in divisors)
    partition = RegionPartition(leads)
    forms = tuple(d.integer_form() for d in divisors)
    int_leads = tuple(t[e] for (_, t), e in zip(forms, leads))

    # The working terms are ints over the running denominator ``den``:
    # h = work/den + sum_i Q_i*P_i + R at every step.  They sit on a
    # max-heap of their graded keys, each key computed once, when its
    # term enters.  A term that cancels leaves a stale heap entry,
    # skipped when popped; since every term an elimination adds is
    # smaller than the one it removes, a popped term never comes back.
    # A ``max`` over the work map per step instead was slower on the
    # four- and five-variable GKZ systems (median 0.296 to 0.347 s and
    # 2.36 to 2.55 s on a shared 2-vCPU VM), so the heap stays.
    den, work = h.integer_form()
    work = dict(work)
    heap = [(_descending(sort_key(m)), m) for m in work]
    heapq.heapify(heap)
    quot_terms = [dict() for _ in divisors]
    rem_terms = {}

    while heap:
        m = heapq.heappop(heap)[1]
        w = work.pop(m, None)
        if w is None:
            continue
        i = partition.classify(m)
        if i is None:
            rem_terms[m] = field.from_scaled(w, den)
            continue
        lead = leads[i]
        r, f = field.cancelling_pair(w, int_leads[i])
        if r != 1:
            den *= r
            w *= r
            for key in work:
                work[key] *= r
        piece = _eliminate(quot_terms[i], vec_sub(m, lead), f, forms[i], den, n, field)
        if piece.get(m) != w:
            raise InvariantViolation("an elimination step did not cancel the leading term")
        for key, coeff in piece.items():
            if key == m:
                continue
            cur = work.get(key)
            if cur is None:
                s = -coeff
                heapq.heappush(heap, (_descending(sort_key(key)), key))
            else:
                s = cur - coeff
            if p:
                s %= p
            if s:
                work[key] = s
            else:
                work.pop(key, None)

    quotients = tuple(HomogOperator._trusted(n, t, field) for t in quot_terms)
    remainder = HomogOperator._trusted(n, rem_terms, field)
    return partition, quotients, remainder


def _descending(key):
    """A heap key that pops the largest order key first."""
    return tuple(-e for e in key)


def _eliminate(quotient, offset, f, form, den, n, field):
    """Record in ``quotient`` the term that eliminates against the divisor
    of integer form ``form`` = (d, T), and return f*x^offset*T as an int
    term map.  Over the running denominator ``den`` that piece is
    (f*d/den)*x^offset times the divisor, so f*d/den is the quotient
    coefficient.

    Each offset is eliminated once, so each quotient term is written once."""
    d, terms = form
    quotient[offset] = field.from_scaled(f * d, den)
    return _graded_product(n, field.characteristic, {offset: f}, terms)


def _check_division(ctx, h, divisors, partition, quotients, remainder):
    """Refuse a division whose output is not h = sum_i Q_i*P_i + R with
    every Q_i and R over the field, each Q_i inside its region and no
    term of R divisible by a lead."""
    field = h.field
    for op in (remainder,) + quotients:
        if not all(c in field for c in op.terms.values()):
            raise InvariantViolation("division output holds a coefficient outside its field")
    check_sum_of_products(h, zip(quotients, divisors), remainder, "division reconstruction failed")
    for i, (q, lead) in enumerate(zip(quotients, partition.exponents)):
        for m in q.terms:
            if partition.classify(vec_add(lead, m)) != i:
                raise InvariantViolation(
                    f"quotient {i} holds a monomial outside its region"
                )
    for m in remainder.terms:
        if partition.classify(m) is not None:
            raise InvariantViolation("remainder contains a divisible monomial")


def check_sum_of_products(target, products, rest, message):
    """Raise ``InvariantViolation(message)`` unless target = sum a*b + rest
    over the operator pairs (a, b) of ``products``.

    The sum runs on integer forms: with target = H/e, rest = R/e_R,
    a = A/e_a and b = B/e_b, and L the lcm of e, e_R and every e_a*e_b,
    it tests L/e*H = L/e_R*R + sum L/(e_a*e_b)*A*B in ints.  Each form it
    reads is first compared with its operator term by term
    (``_checked_form``), so a cached form that is wrong fails here."""
    n, p = target.n, target.field.characteristic
    e, terms = _checked_form(target, message)
    e_r, rem = _checked_form(rest, message)
    pieces = []
    for a, b in products:
        if a.terms:
            e_a, a_terms = _checked_form(a, message)
            e_b, b_terms = _checked_form(b, message)
            pieces.append((e_a * e_b, _graded_product(n, p, a_terms, b_terms)))
    common = lcm(e, e_r, *(den for den, _ in pieces))
    total = dict(_scaled(rem, common // e_r))
    for den, piece in pieces:
        add_terms(total, _scaled(piece, common // den).items(), p)
    if total != _scaled(terms, common // e):
        raise InvariantViolation(message)


def _checked_form(op, message):
    """The integer form (d, T) of ``op``, compared with ``op`` term by term:
    T[k]*den(c) = num(c)*d for each coefficient c of ``op``."""
    d, terms = op.integer_form()
    if terms is op.terms and d == 1:  # the form is the operator itself
        return d, terms
    if terms.keys() != op.terms.keys() or any(
        terms[k] * c.denominator != c.numerator * d for k, c in op.terms.items()
    ):
        raise InvariantViolation(f"{message}: an integer form does not match its operator")
    return d, terms


def _scaled(terms, s):
    """The int term map ``terms`` times ``s``: the map itself when s is 1."""
    return terms if s == 1 else {k: s * v for k, v in terms.items()}


def reduces_to_zero(ctx, h, divisors) -> bool:
    return divide(ctx, h, divisors).remainder.is_zero()
