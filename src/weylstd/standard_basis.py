"""Completion of left ideal bases in the graded algebra.

The sharp edge of the whole package: left ideals of operators admit
standard bases for a weighted order once the computation is lifted to
the graded companion algebra, where the order becomes a well order.
Completion is pair-driven in the usual way, except the cancelling
combination of two elements multiplies by monomials in t, x and D from
the left, and there is no coprime-leads shortcut: commutators make the
classical product criterion unsound here.

Completion runs degree by degree.  When an element enters, the inputs
included, each pair it forms has its lcm computed once and is filed
under the lcm's graded degree.  At degree d the loop reduces the forest
pairs (``_forest_pairs``) of that degree's lcms, by later element, then
earlier one.  This is exact: an element the loop makes is fully
reduced, so no earlier lead divides its lead, so every pair it forms
has an lcm of higher degree than its own.  So all pairs of lcm degree d,
and all leads that divide those lcms, are known before degree d begins.
Since every new element has the degree of its pair, a degree cap bounds
the run: a degree above the cap that keeps a forest pair raises rather
than returning a silently incomplete basis.

Every public entry point re-verifies its own output.  The certificate
has four parts: the final basis is reduced (each element monic, no lead
divisible by another lead, no other term divisible by any lead), the
recorded cofactors reproduce each basis element from the inputs, the
basis passes the pair criterion, and the inputs reduce to zero against
it.  Together they prove the output whatever the completion did on the
way, so the completion divides through ``divide_unchecked``, while the
certificate's own divisions are checked ones (``divide``) and its
cofactor sum runs in ints (``check_sum_of_products``).  The pair
criterion reduces the forest pairs of the final leads, read from those
leads alone (``_minimal_pairs``), so a pair the loop skipped or a
remainder it got wrong cannot hide itself.  A fault in the rule itself
skips the same pairs in both: the tests' slow forest and the truncation
oracle (``oracle.oracle_pipeline_agree``) catch it, not the certificate.

Each element's cofactor row is a tuple with one operator per input,
from the moment the element enters the basis; ``_reduce`` folds the
rows of the divisors a reduction used into the row of what it took off.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

from .errors import DegreeCapExceeded, InvariantViolation
from .division import check_sum_of_products, divide, divide_unchecked
from .homogenize import dehomogenize, graded_degree, homogenize, is_homogeneous, project_exponent
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
    """The cancelling combination f1*h1 - f2*h2 of two elements at their
    lcm exponent; zero or with strictly smaller lead."""
    return _cancel_leads(ctx, h1, h2, *_pair_factors(ctx, h1, h2))


def _cancel_leads(ctx, h1, h2, lcm, f1, f2):
    """f1*h1 - f2*h2 for the ``_pair_factors`` of (h1, h2), checked to
    fall below the lcm."""
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
    for g in gens:
        if g.is_zero():
            raise ValueError("generators must be nonzero")
        if not is_homogeneous(g):
            raise ValueError("generators must be homogeneous")

    basis = []
    rows = []  # rows[i][j]: cofactor of gens[j] in basis[i]
    leads = []
    lcm = {}  # (i, j) -> lcm of leads[i] and leads[j], for i < j
    pending = {}  # lcm degree -> {lcm: its pairs (i, j), in (j, i) order}

    def enter(h, row):
        h, row = _monic(ctx, h, row)
        lead = leading_term(ctx, h).exponent
        j = len(leads)
        for i, e in enumerate(leads):
            m = lcm[i, j] = vec_max(e, lead)
            pending.setdefault(sum(m), {}).setdefault(m, []).append((i, j))
        basis.append(h)
        rows.append(row)
        leads.append(lead)

    for j, g in enumerate(gens):
        zero, one = HomogOperator.zero(g.n, g.field), HomogOperator.constant(g.n, 1, g.field)
        enter(g, tuple(one if k == j else zero for k in range(len(gens))))

    max_degree = max((graded_degree(g) for g in gens), default=0)
    processed = 0
    zeros = 0
    while pending:
        degree = min(pending)
        pairs = sorted(_forest_pairs(leads, lcm, pending.pop(degree)), key=lambda ij: (ij[1], ij[0]))
        if not pairs:
            continue
        if degree > degree_cap:
            raise DegreeCapExceeded(degree, degree_cap)
        max_degree = max(max_degree, degree)
        for i, j in pairs:
            processed += 1
            lcm_ij, f_i, f_j = _pair_factors(ctx, basis[i], basis[j])
            s = _cancel_leads(ctx, basis[i], basis[j], lcm_ij, f_i, f_j)
            reduced = None if s.is_zero() else _reduce(ctx, s, basis, rows)
            if reduced is None:
                zeros += 1
                continue
            r, taken = reduced
            enter(r, tuple(f_i * a - f_j * b - t for a, b, t in zip(rows[i], rows[j], taken)))

    lcm.clear()  # every pair is done with: free the map before interreduction and the certificate
    basis, rows = _interreduce(ctx, basis, rows)
    stats = CompletionStats(processed, zeros, max_degree)
    result = CompletionResult(tuple(basis), tuple(rows), stats)
    _check_completion(ctx, gens, result)
    return result


def _reduce(ctx, h, divisors, rows):
    """Divide ``h`` by ``divisors``, whose cofactor rows are ``rows``.

    None when the remainder is zero; otherwise the remainder and the row
    sum_i q_i * rows[i] of what the division took off ``h``."""
    _, quotients, remainder = divide_unchecked(ctx, h, divisors)
    if remainder.is_zero():
        return None
    taken = (HomogOperator.zero(h.n, h.field),) * len(rows[0])
    for q, row in zip(quotients, rows):
        if not q.is_zero():
            taken = tuple(t + q * c for t, c in zip(taken, row))
    return remainder, taken


def _monic(ctx, h, row):
    """``h`` and its cofactor row divided by the leading coefficient of ``h``."""
    c = h.field.div(1, leading_term(ctx, h).coefficient)
    return h.scale(c), tuple(e.scale(c) for e in row)


def _interreduce(ctx, basis, rows):
    """Drop elements with dominated leads, then reduce every tail once.
    With the leads minimal and fixed this yields the reduced basis."""
    order = sorted(range(len(basis)), key=lambda i: ctx.graded_key(leading_term(ctx, basis[i]).exponent))
    kept = []
    for i in order:
        lead = leading_term(ctx, basis[i]).exponent
        if any(vec_leq(leading_term(ctx, basis[k]).exponent, lead) for k in kept):
            continue
        kept.append(i)

    out = [basis[i] for i in kept]
    out_rows = [rows[i] for i in kept]
    for idx in range(len(out)):
        others = out[:idx] + out[idx + 1 :]
        if not others:
            continue
        reduced = _reduce(ctx, out[idx], others, out_rows[:idx] + out_rows[idx + 1 :])
        if reduced is None:
            raise InvariantViolation("minimal basis element reduced to zero")
        r, taken = reduced
        out[idx], out_rows[idx] = _monic(ctx, r, tuple(map(sub, out_rows[idx], taken)))
    return out, out_rows


def _check_completion(ctx, gens, result):
    """The certificate: the basis is reduced, the cofactors reproduce it
    from ``gens``, it passes the pair criterion, and ``gens`` reduce to
    zero against it.  The checks run in that order, the ones that need
    no division first."""
    basis = result.basis
    _check_reduced(ctx, basis)
    for b, row in zip(basis, result.cofactors):
        zero = HomogOperator.zero(b.n, b.field)
        check_sum_of_products(b, zip(row, gens), zero, "cofactor bookkeeping does not reproduce the basis")
    _check_pairs(ctx, basis)
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


def _check_pairs(ctx, basis):
    """Refuse a basis that fails the pair criterion over ``_minimal_pairs``."""
    for i, j in _minimal_pairs([leading_term(ctx, b).exponent for b in basis]):
        s = semisyzygy(ctx, basis[i], basis[j])
        if not s.is_zero() and not divide(ctx, s, basis).remainder.is_zero():
            raise InvariantViolation("completed basis fails the pair criterion")


def _minimal_pairs(leads):
    """The pairs (i, j) of ``leads`` whose semisyzygies the certificate
    reduces: ``_forest_pairs`` over every pair lcm of the final leads,
    read from the leads alone, with nothing taken from the completion's
    own pair bookkeeping."""
    lcm = {}
    by_lcm = {}
    for i, a in enumerate(leads):
        for j in range(i + 1, len(leads)):
            m = lcm[i, j] = vec_max(a, leads[j])
            by_lcm.setdefault(m, []).append((i, j))
    return sorted(_forest_pairs(leads, lcm, by_lcm))


def _forest_pairs(leads, lcm, by_lcm):
    """The pairs to reduce at the lcms in ``by_lcm``: one spanning forest
    per lcm m, where ``lcm[i, j]`` (i < j) holds the lcm of every pair of
    ``leads`` and ``by_lcm[m]`` the pairs of lcm m.

    The vertices at m are the leads that divide m.  Two of them are
    joined when their lcm lies strictly below m; a pair whose lcm equals
    m joins nothing.  The pairs of lcm m, taken in the order
    ``by_lcm[m]`` lists them, are kept when they join two components not
    joined yet.  A pair that is not kept has its ends linked by a path of
    kept pairs of lcm m and of pairs of strictly smaller lcm, and its
    syzygy of leading monomials is the sum of theirs, each lifted by a
    monomial onto m.  So the kept pairs generate the syzygies of the
    leads (for minimal leads, as a reduced basis has, the count per m is
    the first Betti number of the lead ideal there: Miller and
    Sturmfels, Combinatorial Commutative Algebra, Thm 1.34), and by
    induction on lcm divisibility every pair has a standard
    representation once the kept ones reduce to zero, the same argument
    as the chain criterion's, which is sound in a G-algebra such as
    A_n[t] (forests of pairs: Caboara, Kreuzer and Robbiano, JSC 2004)."""

    def find(k):
        while root[k] != k:
            root[k] = k = root[root[k]]
        return k

    kept = []
    for m, pairs in by_lcm.items():
        below = [k for k, e in enumerate(leads) if vec_leq(e, m)]
        root = {k: k for k in below}
        for pos, a in enumerate(below):
            for b in below[pos + 1 :]:
                if lcm[a, b] != m:
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
