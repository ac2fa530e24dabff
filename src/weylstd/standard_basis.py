"""Completion of left ideal bases in the graded algebra.

The sharp edge of the whole package: left ideals of operators admit
standard bases for a weighted order once the computation is lifted to
the graded companion algebra, where the order becomes a well order.
Completion is pair-driven in the usual way, except the cancelling
combination of two elements multiplies by monomials in t, x and D from
the left, and there is no coprime-leads shortcut: commutators make the
classical product criterion unsound here, so every pair is reduced.

Pairs are processed by increasing graded degree of their lcm exponent
(first-in first-out within a degree).  Since all inputs are homogeneous
and every new element has the degree of the pair that produced it, a
degree cap bounds the run; hitting it raises rather than returning a
silently incomplete basis.

Every public entry point re-verifies its own output: the final basis
passes the full pair criterion, the inputs reduce to zero against it,
and the recorded cofactors reproduce each basis element from the inputs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import DegreeCapExceeded, InvariantViolation
from .division import divide
from .homogenize import dehomogenize, graded_degree, homogenize, is_homogeneous, project_exponent
from .orders import leading_term, principal_symbol
from .scalars import QQ
from .weyl import HomogOperator, vec_leq, vec_max, vec_sub

DEFAULT_DEGREE_CAP = 64


def semisyzygy(ctx, h1: HomogOperator, h2: HomogOperator) -> HomogOperator:
    """The cancelling combination of two elements at their lcm exponent:
    cross-scale each by the other's leading coefficient, shift each by a
    monomial to land on the componentwise max of the leading exponents,
    and subtract.  The result is zero or has strictly smaller lead."""
    lt1 = leading_term(ctx, h1)
    lt2 = leading_term(ctx, h2)
    lcm = vec_max(lt1.exponent, lt2.exponent)
    left = HomogOperator.monomial(h1.n, vec_sub(lcm, lt1.exponent), lt2.coefficient, h1.field) * h1
    right = HomogOperator.monomial(h2.n, vec_sub(lcm, lt2.exponent), lt1.coefficient, h2.field) * h2
    s = left - right
    if not s.is_zero() and ctx.graded_key(leading_term(ctx, s).exponent) >= ctx.graded_key(lcm):
        raise InvariantViolation("semisyzygy failed to cancel the leading terms")
    return s


@dataclass(frozen=True)
class CompletionStats:
    s_pairs_processed: int
    reductions_to_zero: int
    max_degree: int


@dataclass(frozen=True)
class CompletionResult:
    """A completed basis plus its membership certificates and run stats.

    ``cofactors[i][j]`` is the operator C with
    basis[i] = sum_j cofactors[i][j] * gens[j], recorded so that every
    element the run produces is a certified member of the input ideal.
    """

    basis: tuple
    cofactors: tuple
    stats: CompletionStats


def buchberger(ctx, gens, degree_cap=DEFAULT_DEGREE_CAP) -> CompletionResult:
    """Complete homogeneous generators to a reduced standard basis."""
    gens = tuple(gens)
    for g in gens:
        if g.is_zero():
            raise ValueError("generators must be nonzero")
        if not is_homogeneous(g):
            raise ValueError("generators must be homogeneous")

    n = gens[0].n if gens else 1
    field = gens[0].field if gens else QQ
    basis = []
    rows = []  # rows[i][j]: cofactor of gens[j] in basis[i]
    for j, g in enumerate(gens):
        c = leading_term(ctx, g).coefficient
        basis.append(g.scale(1 / c))
        rows.append({j: HomogOperator.constant(n, 1 / c, field)})

    max_degree = max((graded_degree(g) for g in gens), default=0)
    pairs = []
    counter = 0
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            counter = _push_pair(ctx, pairs, basis, i, j, counter)

    processed = 0
    zeros = 0
    while pairs:
        degree, _, i, j = heapq.heappop(pairs)
        if degree > degree_cap:
            raise DegreeCapExceeded(degree, degree_cap)
        max_degree = max(max_degree, degree)
        processed += 1

        s = semisyzygy(ctx, basis[i], basis[j])
        lt_i = leading_term(ctx, basis[i])
        lt_j = leading_term(ctx, basis[j])
        lcm = vec_max(lt_i.exponent, lt_j.exponent)
        s_row = _combine_rows(
            (HomogOperator.monomial(n, vec_sub(lcm, lt_i.exponent), lt_j.coefficient, field), rows[i]),
            (HomogOperator.monomial(n, vec_sub(lcm, lt_j.exponent), -lt_i.coefficient, field), rows[j]),
        )
        if s.is_zero():
            zeros += 1
            continue

        res = divide(ctx, s, basis)
        if res.remainder.is_zero():
            zeros += 1
            continue

        for q, row in zip(res.quotients, rows):
            if not q.is_zero():
                s_row = _combine_rows((HomogOperator.constant(n, 1, field), s_row), (-q, row))
        c = leading_term(ctx, res.remainder).coefficient
        basis.append(res.remainder.scale(1 / c))
        rows.append(_scale_row(s_row, 1 / c))
        new = len(basis) - 1
        for k in range(new):
            counter = _push_pair(ctx, pairs, basis, k, new, counter)

    basis, rows = _interreduce(ctx, basis, rows, len(gens))
    stats = CompletionStats(processed, zeros, max_degree)
    result = CompletionResult(tuple(basis), tuple(tuple(r) for r in rows), stats)
    _check_completion(ctx, gens, result)
    return result


def _push_pair(ctx, pairs, basis, i, j, counter):
    lcm = vec_max(
        leading_term(ctx, basis[i]).exponent, leading_term(ctx, basis[j]).exponent
    )
    heapq.heappush(pairs, (sum(lcm), counter, i, j))
    return counter + 1


def _combine_rows(*scaled_rows):
    """Sum of factor * row over (factor, row) pairs, as a sparse dict."""
    out = {}
    for factor, row in scaled_rows:
        for j, c in row.items():
            term = factor * c
            acc = out.get(j)
            total = term if acc is None else acc + term
            if total.is_zero():
                out.pop(j, None)
            else:
                out[j] = total
    return out


def _scale_row(row, factor):
    return {j: c.scale(factor) for j, c in row.items()}


def _row_to_tuple(row, count, n, field):
    return tuple(row.get(j, HomogOperator.zero(n, field)) for j in range(count))


def _interreduce(ctx, basis, rows, gen_count):
    """Drop elements with dominated leads, then reduce every tail once.
    With the leads minimal and fixed this yields the reduced basis."""
    if not basis:
        return [], []
    n, field = basis[0].n, basis[0].field
    order = sorted(range(len(basis)), key=lambda i: ctx.graded_key(leading_term(ctx, basis[i]).exponent))
    kept = []
    for i in order:
        lead = leading_term(ctx, basis[i]).exponent
        if any(vec_leq(leading_term(ctx, basis[k]).exponent, lead) for k in kept):
            continue
        kept.append(i)

    out = [basis[i] for i in kept]
    out_rows = [dict(rows[i]) for i in kept]
    for idx in range(len(out)):
        others = out[:idx] + out[idx + 1 :]
        if not others:
            continue
        res = divide(ctx, out[idx], others)
        if res.remainder.is_zero():
            raise InvariantViolation("minimal basis element reduced to zero")
        row = out_rows[idx]
        other_rows = out_rows[:idx] + out_rows[idx + 1 :]
        for q, qrow in zip(res.quotients, other_rows):
            if not q.is_zero():
                row = _combine_rows((HomogOperator.constant(n, 1, field), row), (-q, qrow))
        c = leading_term(ctx, res.remainder).coefficient
        out[idx] = res.remainder.scale(1 / c)
        out_rows[idx] = _scale_row(row, 1 / c)
    return out, [_row_to_tuple(r, gen_count, n, field) for r in out_rows]


def _check_completion(ctx, gens, result):
    basis = result.basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = semisyzygy(ctx, basis[i], basis[j])
            if not s.is_zero() and not divide(ctx, s, basis).remainder.is_zero():
                raise InvariantViolation("completed basis fails the pair criterion")
    for g in gens:
        if not divide(ctx, g, basis).remainder.is_zero():
            raise InvariantViolation("an input generator does not reduce to zero")
    for b, row in zip(basis, result.cofactors):
        total = HomogOperator.zero(b.n, b.field)
        for c, g in zip(row, gens):
            total = total + c * g
        if total != b:
            raise InvariantViolation("cofactor bookkeeping does not reproduce the basis")


@dataclass(frozen=True)
class StandardBasisReport:
    """Everything the pipeline produces for one ideal and one weight order.

    ``homog_basis`` lives in the graded algebra; ``delta_basis`` is its
    image at t = 1 and is a standard basis of the ideal the inputs
    generate; ``symbols`` are the principal symbols of the delta basis,
    generating the associated graded ideal; ``staircase`` is the minimal
    generating set of the upper set of their exponents.  ``cofactors``
    combine the homogenized inputs into ``homog_basis``, in that order.
    """

    homog_basis: tuple
    delta_basis: tuple
    symbols: tuple
    staircase: tuple
    cofactors: tuple
    stats: CompletionStats


def compute_standard_basis(ctx, ops, degree_cap=DEFAULT_DEGREE_CAP) -> StandardBasisReport:
    """Run the full pipeline on plain operators: homogenize, complete,
    come back down, and read off symbols and the staircase."""
    ops = [op for op in ops if not op.is_zero()]
    homog_gens = tuple(homogenize(op) for op in ops)
    result = buchberger(ctx, homog_gens, degree_cap=degree_cap)

    delta_basis = []
    symbols = []
    lead_exponents = []
    for g in result.basis:
        lead = project_exponent(leading_term(ctx, g).exponent)
        down = dehomogenize(g)
        if down.is_zero():
            raise InvariantViolation("a homogeneous basis element vanished at t = 1")
        if leading_term(ctx, down).exponent != lead:
            raise InvariantViolation("leading exponent changed at t = 1")
        sym = principal_symbol(ctx, down)
        if leading_term(ctx, sym).exponent != lead:
            raise InvariantViolation("principal symbol disagrees with the leading exponent")
        delta_basis.append(down)
        symbols.append(sym)
        lead_exponents.append(lead)

    staircase = minimal_staircase(lead_exponents)
    for a in staircase:
        for b in staircase:
            if a != b and vec_leq(a, b):
                raise InvariantViolation("staircase corners are not incomparable")
    return StandardBasisReport(
        homog_basis=result.basis,
        delta_basis=tuple(delta_basis),
        symbols=tuple(symbols),
        staircase=staircase,
        cofactors=result.cofactors,
        stats=result.stats,
    )


def minimal_staircase(exponents):
    """Componentwise-minimal elements of a set of exponents: the corners
    that generate the same upper set.  Sorted by degree then value."""
    unique = sorted(set(exponents), key=lambda m: (sum(m), m))
    corners = []
    for m in unique:
        if not any(vec_leq(c, m) for c in corners):
            corners.append(m)
    return tuple(corners)
