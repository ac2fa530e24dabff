"""Completion of left ideal bases in the graded algebra.

The sharp edge of the whole package: left ideals of operators admit
standard bases for a weighted order once the computation is lifted to
the graded companion algebra, where the order becomes a well order.
Completion is pair-driven in the usual way, except the cancelling
combination of two elements multiplies by monomials in t, x and D from
the left, and there is no coprime-leads shortcut: commutators make the
classical product criterion unsound here.

Completion runs degree by degree, and an element is final once it
enters.  This is exact.  A lead of degree d divides no term of lower
degree, so later elements never reduce earlier ones.  A new element's
lead is divisible by no earlier lead, so every pair it forms has an lcm
of degree above its own: the pairs of lcm degree d, and the leads that
divide those lcms, are known before degree d begins, and at each lcm
their spanning forest (``_forest_pairs``) is the final basis's.  And a
checked division to zero of a semisyzygy s, by the final elements of
lower degree followed by the kept elements of degree d, writes s with
every lead at most that of s.  Each kept element is its final one plus
final ones of smaller lead (the tail pass below), so this is a standard
representation in final elements too.

At degree d the loop makes that one division, with ``divide``, of each
input of degree d and each ``semisyzygy`` of that degree's forest pairs,
the combination the certificate forms; a zero remainder records its pair
as certified.  A kept element's lead is divisible by no lower lead, and
same-degree leads divide only equal monomials, so it eliminates only its
own lead, at offset 0: linear algebra among the degree's remainders.  A
nonzero remainder is kept, with its cofactor row built and folded once,
and made monic.  A tail pass (``_interreduce``) reduces the kept ones
against each other, they enter in graded-key order, and each pair whose
remainder was kept is certified by dividing that remainder by the basis
so far.  Since every new element has the degree of its pair, a degree
cap bounds the run: a degree above the cap that keeps a forest pair
raises rather than returning a silently incomplete basis.

Every public entry point re-verifies its own output.  The certificate
has four parts: the final basis is reduced (each element monic, no lead
divisible by another lead, no other term divisible by any lead), the
recorded cofactors reproduce each basis element from the inputs (summed
in ints, ``check_sum_of_products``), the basis passes the pair
criterion, and the inputs reduce to zero against it.  The pair criterion
reads the forest pairs from the final leads alone (``_minimal_pairs``)
and divides each one the loop did not record, so a pair the loop skipped
cannot hide itself.  The records are trusted bookkeeping: a record for a
pair whose remainder was lost, or a fault in the forest rule, which
skips the same pairs in both, is caught by the truncation oracle
(``oracle.oracle_pipeline_agree``), not the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegreeCapExceeded, InvariantViolation
from .division import DivisionResult, check_sum_of_products, divide
from .homogenize import dehomogenize, graded_degree, homogenize, project_exponent
from .orders import leading_term, principal_symbol
from .weyl import HomogOperator, vec_leq, vec_max, vec_sub

DEFAULT_DEGREE_CAP = 64


def _pair_factors(ctx, h1: HomogOperator, h2: HomogOperator):
    """The lcm of the two leading exponents and the monomials that lift
    each element onto it, each carrying the other's leading coefficient:
    ``(lcm, f1, f2)`` with f1*h1 and f2*h2 sharing their leading term."""
    lt1 = leading_term(ctx, h1)
    lt2 = leading_term(ctx, h2)
    lcm = vec_max(lt1.exponent, lt2.exponent)
    f1 = HomogOperator.monomial(h1.n, vec_sub(lcm, lt1.exponent), lt2.coefficient, h1.field)
    f2 = HomogOperator.monomial(h2.n, vec_sub(lcm, lt2.exponent), lt1.coefficient, h2.field)
    return lcm, f1, f2


def semisyzygy(ctx, h1: HomogOperator, h2: HomogOperator) -> HomogOperator:
    """The cancelling combination f1*h1 - f2*h2 of two elements for their
    ``_pair_factors``, checked to be zero or to lead below their lcm."""
    lcm, f1, f2 = _pair_factors(ctx, h1, h2)
    s = f1 * h1 - f2 * h2
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
    inputs = {}  # graded degree -> the indices of the inputs of that degree
    for j, g in enumerate(gens):
        if g.is_zero():
            raise ValueError("generators must be nonzero")
        inputs.setdefault(graded_degree(g), []).append(j)

    basis = []  # final elements, in graded-key order
    rows = []  # rows[i][j]: cofactor of gens[j] in basis[i]
    leads = []
    lcm = {}  # (i, j) -> lcm of leads[i] and leads[j], for i < j
    pending = {d: set() for d in inputs}  # degree -> the pair lcms of that degree
    certified = set()  # pairs whose semisyzygy reduced to zero in checked divisions

    max_degree = max(inputs, default=0)
    processed = 0
    added = 0  # pairs whose remainder became a basis element
    while pending:
        degree = min(pending)
        pairs = sorted(_forest_pairs(leads, lcm, pending.pop(degree)), key=lambda ij: (ij[1], ij[0]))
        if pairs:
            if degree > degree_cap:
                raise DegreeCapExceeded(degree, degree_cap)
            max_degree = max(max_degree, degree)
        processed += len(pairs)
        candidates = [(gens[j], None, _unit_row(gens, j)) for j in inputs.pop(degree, ())]
        candidates += [(semisyzygy(ctx, basis[i], basis[j]), (i, j), None) for i, j in pairs]

        new, new_rows, open_pairs = [], [], []
        for h, pair, start in candidates:
            division = divide(ctx, h, basis + new) if basis or new else DivisionResult((), h)
            r = division.remainder
            if r.is_zero():
                if pair:
                    certified.add(pair)
                continue
            if pair:
                open_pairs.append((pair, r))
                added += 1
                i, j = pair
                _, f_i, f_j = _pair_factors(ctx, basis[i], basis[j])
                start = tuple(f_i * a - f_j * b for a, b in zip(rows[i], rows[j]))
            h, row = _monic(ctx, r, _fold(start, division.quotients, rows + new_rows))
            new.append(h)
            new_rows.append(row)

        new, new_rows = _interreduce(ctx, new, new_rows)
        for h, row in sorted(zip(new, new_rows), key=lambda hr: ctx.graded_key(leading_term(ctx, hr[0]).exponent)):
            lead = leading_term(ctx, h).exponent
            j = len(leads)
            for i, e in enumerate(leads):
                m = lcm[i, j] = vec_max(e, lead)
                pending.setdefault(sum(m), set()).add(m)
            basis.append(h)
            rows.append(row)
            leads.append(lead)
        for pair, r in open_pairs:
            if divide(ctx, r, basis).remainder.is_zero():
                certified.add(pair)

    lcm.clear()  # every pair is done with: free the map before the certificate
    result = CompletionResult(tuple(basis), tuple(rows), CompletionStats(processed, processed - added, max_degree))
    _check_completion(ctx, gens, result, certified)
    return result


def _unit_row(gens, j):
    """The cofactor row of ``gens[j]`` itself."""
    zero, one = HomogOperator.zero(gens[j].n, gens[j].field), HomogOperator.constant(gens[j].n, 1, gens[j].field)
    return tuple(one if k == j else zero for k in range(len(gens)))


def _fold(row, quotients, rows):
    """``row`` less sum_i quotients[i] * rows[i]: the cofactor row of what
    is left after a division took sum_i q_i * divisor_i off an element
    whose row is ``row``, where ``rows`` are the divisors' rows."""
    for q, taken in zip(quotients, rows):
        if not q.is_zero():
            row = tuple(a - q * c for a, c in zip(row, taken))
    return row


def _monic(ctx, h, row):
    """``h`` and its cofactor row divided by the leading coefficient of ``h``."""
    c = h.field.div(1, leading_term(ctx, h).coefficient)
    return h.scale(c), tuple(e.scale(c) for e in row)


def _interreduce(ctx, basis, rows):
    """The tail pass of one degree: reduce each element once by the others.
    Their leads are distinct monomials of one degree, so each lead stays,
    and once an element is reduced no later step puts a lead back into it."""
    basis, rows = list(basis), list(rows)
    for idx, h in enumerate(basis):
        others = basis[:idx] + basis[idx + 1 :]
        if any(leading_term(ctx, b).exponent in h.terms for b in others):
            division = divide(ctx, h, others)
            basis[idx] = division.remainder
            rows[idx] = _fold(rows[idx], division.quotients, rows[:idx] + rows[idx + 1 :])
    return basis, rows


def _check_completion(ctx, gens, result, certified=()):
    """The certificate: the basis is reduced, the cofactors reproduce it
    from ``gens``, it passes the pair criterion, and ``gens`` reduce to
    zero against it.  The checks run in that order, the ones that need
    no division first.  ``certified`` holds the pairs the completion's own
    checked divisions took to zero; the pair criterion divides the rest."""
    basis = result.basis
    _check_reduced(ctx, basis)
    for b, row in zip(basis, result.cofactors):
        zero = HomogOperator.zero(b.n, b.field)
        check_sum_of_products(b, zip(row, gens), zero, "cofactor bookkeeping does not reproduce the basis")
    _check_pairs(ctx, basis, certified)
    for g in gens:
        if not divide(ctx, g, basis).remainder.is_zero():
            raise InvariantViolation("an input generator does not reduce to zero")


def _check_reduced(ctx, basis):
    """Refuse a basis that is not reduced: an element that is not monic,
    a lead divisible by another lead, or another term divisible by a lead."""
    exponents = [leading_term(ctx, b).exponent for b in basis]
    for i, (b, lead) in enumerate(zip(basis, exponents)):
        if b.terms[lead] != 1:
            fault = "is not monic"
        elif any(vec_leq(e, lead) for j, e in enumerate(exponents) if j != i):
            fault = "has a lead divisible by another lead"
        elif any(m != lead and vec_leq(e, m) for m in b.terms for e in exponents):
            fault = "has a term other than its lead divisible by a lead"
        else:
            continue
        raise InvariantViolation(f"completed basis is not reduced: element {i} {fault}")


def _check_pairs(ctx, basis, certified=()):
    """Refuse a basis that fails the pair criterion over ``_minimal_pairs``,
    dividing each pair not in ``certified``."""
    for i, j in _minimal_pairs([leading_term(ctx, b).exponent for b in basis]):
        if (i, j) in certified:
            continue
        s = semisyzygy(ctx, basis[i], basis[j])
        if not s.is_zero() and not divide(ctx, s, basis).remainder.is_zero():
            raise InvariantViolation("completed basis fails the pair criterion")


def _minimal_pairs(leads):
    """The pairs (i, j) of ``leads`` that the certificate requires
    certified or divides: ``_forest_pairs`` over every pair lcm of the final leads,
    read from the leads alone, with nothing taken from the completion's
    own pair bookkeeping."""
    lcm = {(i, j): vec_max(a, leads[j]) for i, a in enumerate(leads) for j in range(i + 1, len(leads))}
    return sorted(_forest_pairs(leads, lcm, set(lcm.values())))


def _forest_pairs(leads, lcm, lcms):
    """The pairs to reduce at the lcms in ``lcms``: one spanning forest
    per lcm m, where ``lcm[i, j]`` (i < j) holds the lcm of every pair of
    ``leads``.

    The vertices at m are the leads that divide m.  Two of them are joined
    when their lcm lies strictly below m; a pair whose lcm equals m joins
    nothing.  The pairs of lcm m, taken in (i, j) order, are kept when they
    join two components not joined yet.  A pair that is not kept has its
    ends linked by a path of kept pairs of lcm m and of pairs of strictly
    smaller lcm, and its syzygy of leading monomials is the sum of theirs,
    each lifted by a monomial onto m.  So the kept pairs generate the
    syzygies of the leads (for minimal leads, as a reduced basis has, the
    count per m is the first Betti number of the lead ideal there: Miller
    and Sturmfels, Combinatorial Commutative Algebra, Thm 1.34), and by
    induction on lcm divisibility every pair has a standard representation
    once the kept ones reduce to zero, the same argument as the chain
    criterion's, which is sound in a G-algebra such as
    A_n[t] (forests of pairs: Caboara, Kreuzer and Robbiano, JSC 2004)."""

    def find(k):
        while root[k] != k:
            root[k] = k = root[root[k]]
        return k

    kept = []
    for m in lcms:
        below = [k for k, e in enumerate(leads) if vec_leq(e, m)]
        root = {k: k for k in below}
        pairs = []  # the pairs of lcm m, in (i, j) order
        for pos, a in enumerate(below):
            for b in below[pos + 1 :]:
                if lcm[a, b] == m:
                    pairs.append((a, b))
                else:
                    root[find(a)] = find(b)
        for i, j in pairs:
            ri, rj = find(i), find(j)
            if ri != rj:
                root[ri] = rj
                kept.append((i, j))
    return kept


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
