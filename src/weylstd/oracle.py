"""Independent cross-checks for the completion pipeline.

Two kinds of evidence live here, both deliberately built on different
machinery than the thing they check.

The truncation witness spans the graded left ideal up to a degree bound
by brute force: every monomial multiple of every generator, swept into
row echelon form over the scalar field, one degree at a time (rows are
homogeneous, so degrees never mix) on integer rows keyed by each
exponent's graded key, computed once.  In normal order the monomial
t^k x^a D^beta is the product (t^k x^a) D^beta, so its multiple of g is
t^k x^a (D^beta g): one Leibniz product per (generator, beta).  A left
factor with no D contracts with nothing, so each row is that product
with (k, a) added to every key.  The pivot exponents are then exactly
the leading exponents the ideal achieves below the bound, with no
completion logic involved.  Comparing them against a computed
staircase is the closest thing to ground truth available without a
second implementation.

The fuzz driver replays the algebra's defining identities on seeded
random inputs.  Its multiplication entry points can be swapped out,
which is how the tests confirm the suite actually has teeth: a mutated
product must make it fail.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from math import gcd, lcm
from operator import attrgetter

from .errors import InvariantViolation, OracleSizeError
from .division import RegionPartition, divide
from .homogenize import dehomogenize, graded_degree, homogenize, is_homogeneous, project_exponent
from .orders import LinearForm, OrderContext, TieBreak, TIEBREAK_KINDS, check_n, leading_term, principal_symbol, is_graded_commutative
from .scalars import QQ, PrimeField
from .standard_basis import minimal_staircase
from .weyl import HomogOperator, Polynomial, WeylOperator, vec_add, vec_leq


@dataclass(frozen=True)
class TruncationWitness:
    """Every leading exponent the graded ideal achieves up to a degree."""

    degree_bound: int
    leading_exponents: frozenset
    matrix_rank: int


def _monomials_up_to(width, total):
    if width == 1:
        for k in range(total + 1):
            yield (k,)
        return
    for k in range(total + 1):
        for rest in _monomials_up_to(width - 1, total - k):
            yield (k,) + rest


def truncation_witness(ctx, ops, degree_bound, max_rows=50_000) -> TruncationWitness:
    """Echelonize all monomial multiples of the homogenized generators
    with product degree at most ``degree_bound``.

    Each (monomial, generator) job makes one homogeneous row, and the
    graded key leads with the degree, so rows of different degrees never
    meet: the jobs are swept one degree block at a time, and a block's
    pivots are dropped when it is done.  Within a block each distinct
    exponent's graded key is computed once and the rows are keyed by it,
    so a row's lead is its largest key.

    The row of monomial t^k x^a D^beta and generator g is
    t^k x^a D^beta g = t^k x^a (D^beta g).  The product D^beta g is made
    once per (generator, beta), with the graded product, and kept; each
    row adds (k, a) to the t and x part of its keys.  No contraction is
    lost by this: contractions come only from a D of the left factor
    meeting an x of the right one, and t^k x^a has no D, so that left
    product is a plain key shift.  Over F_p the kept product is already
    reduced, so a term whose weight vanishes mod p is gone from every
    row built on it, as it is from the full product.

    Rows hold Python ints.  Over QQ each homogenized generator is first
    scaled by the lcm of its denominators; a nonzero scalar multiple
    generates the same left ideal, so every block spans the same space
    and the pivot set is unchanged.  Over F_p the rows hold residues.
    Both fields eliminate with one loop, by cross-multiplication:
    ``row := (pc/d)*row - (c/d)*pivot`` with ``d = gcd(c, pc)`` clears
    the lead c of the row against the lead pc of its pivot.  Over F_p
    everything is reduced mod p and pivots are stored monic (so pc = 1
    and the row is never scaled); over QQ pivots are stored divided by
    their content.
    """
    ops = [op for op in ops if not op.is_zero()]
    gens = [homogenize(op) for op in ops]
    for g in gens:
        check_n(ctx, g)
        if graded_degree(g) > degree_bound:
            raise ValueError("degree bound is below a generator's degree")

    fld = gens[0].field if gens else QQ
    p = fld.p if isinstance(fld, PrimeField) else 0
    if p:
        lift = attrgetter("value")
    else:
        gens = [g.scale(lcm(*(c.denominator for c in g.terms.values()))) for g in gens]
        lift = attrgetter("numerator")

    n = ctx.n
    width = 2 * n + 1
    blocks = defaultdict(list)  # product degree -> its (monomial, generator index) jobs
    for i, g in enumerate(gens):
        d = graded_degree(g)
        for m in _monomials_up_to(width, degree_bound - d):
            blocks[d + sum(m)].append((m, i))
    rows = sum(map(len, blocks.values()))
    if rows > max_rows:
        raise OracleSizeError(
            f"{rows} candidate rows exceed the limit of {max_rows}; "
            "lower the degree bound"
        )

    one = fld.one()
    no_head = (0,) * (n + 1)
    products = {}  # (generator index, beta) -> D^beta * g as (head, tail, lifted coefficient)
    for i, g in enumerate(gens):
        for beta in _monomials_up_to(n, degree_bound - graded_degree(g)):
            # beta comes from _monomials_up_to, so the key is well formed
            product = HomogOperator._trusted(n, {no_head + beta: one}, fld) * g
            products[i, beta] = [(e[: n + 1], e[n + 1 :], lift(c)) for e, c in product.terms.items()]

    leading = set()
    for degree in sorted(blocks):
        keys = {}  # exponent -> graded key
        pivots = {}  # lead key -> reduced row
        for m, i in blocks[degree]:
            head = m[: n + 1]
            row = {}
            for h, tail, c in products[i, m[n + 1 :]]:
                e = vec_add(head, h) + tail
                k = keys.get(e)
                if k is None:
                    k = keys[e] = ctx.graded_key(e)
                row[k] = c
            while row:
                lead = max(row)
                c = row[lead]
                pivot = pivots.get(lead)
                if pivot is None:
                    if p:
                        inv = pow(c, -1, p)
                        pivots[lead] = {k: v * inv % p for k, v in row.items()}
                    else:
                        content = gcd(*row.values())
                        pivots[lead] = {k: v // content for k, v in row.items()}
                    break
                pc = pivot[lead]
                common = gcd(c, pc)
                b = c // common
                if pc != common:
                    a = pc // common
                    row = {k: a * v for k, v in row.items()}
                for k, v in pivot.items():
                    s = row.get(k, 0) - b * v
                    if p:
                        s %= p
                    if s:
                        row[k] = s
                    else:  # b and v are nonzero (mod p), so k was in the row
                        del row[k]
        leading.update(e for e, k in keys.items() if k in pivots)
    return TruncationWitness(degree_bound, frozenset(leading), len(leading))


def staircase_oracle(ctx, ops, degree_bound, max_rows=50_000):
    """Project the witness exponents down to the plain algebra: the set of
    weighted leading exponents the ideal provably achieves up to degree."""
    witness = truncation_witness(ctx, ops, degree_bound, max_rows=max_rows)
    return {project_exponent(m) for m in witness.leading_exponents}


@dataclass(frozen=True)
class AgreementReport:
    """Outcome of checking a computed staircase against the witness.

    Containment of the witness exponents in the computed staircase holds
    with no caveats.  The reverse direction is only decidable below the
    window: an exponent of weight w is certified reachable by shifting a
    basis element, which needs w plus the largest basis degree to fit
    under the witness bound.
    """

    ok: bool
    window: int
    mismatches: tuple
    witness: TruncationWitness


def _in_upper_set(m, corners):
    return any(vec_leq(c, m) for c in corners)


def oracle_pipeline_agree(ctx, ops, report, degree_bound, max_rows=50_000) -> AgreementReport:
    """Compare a pipeline report's staircase with the truncation witness."""
    witness = truncation_witness(ctx, ops, degree_bound, max_rows=max_rows)
    projected = {project_exponent(m) for m in witness.leading_exponents}
    oracle_corners = minimal_staircase(projected)
    mismatches = []

    for m in sorted(projected):
        if not _in_upper_set(m, report.staircase):
            mismatches.append(("witness exponent outside computed staircase", m))

    top = max((graded_degree(g) for g in report.homog_basis), default=0)
    window = degree_bound - top
    # a negative window certifies nothing, and the sweep below it is empty
    for m in _monomials_up_to(2 * ctx.n, window):
        in_computed = _in_upper_set(m, report.staircase)
        in_witness = _in_upper_set(m, oracle_corners)
        if in_computed != in_witness:
            mismatches.append(("staircase membership differs below window", m))

    return AgreementReport(not mismatches, window, tuple(mismatches), witness)


def random_weyl(rng, n, terms=3, degree=3, coeff=5, fld=QQ):
    """Random operator with up to ``terms`` monomials; may be zero."""
    out = {}
    for _ in range(rng.randint(0, terms)):
        m = _random_exponent(rng, 2 * n, degree)
        out[m] = fld.from_int(rng.randint(-coeff, coeff))
    return WeylOperator(n, out, fld)


def random_homog(rng, n, terms=3, degree=3, coeff=5, fld=QQ):
    """Random graded-algebra element, not necessarily homogeneous."""
    out = {}
    for _ in range(rng.randint(0, terms)):
        m = _random_exponent(rng, 2 * n + 1, degree)
        out[m] = fld.from_int(rng.randint(-coeff, coeff))
    return HomogOperator(n, out, fld)


def random_homogeneous(rng, n, degree, terms=3, coeff=5, fld=QQ):
    """Random homogeneous element of the given graded degree; may be zero."""
    out = {}
    for _ in range(rng.randint(1, terms)):
        m = _random_split(rng, 2 * n + 1, degree)
        out[m] = fld.from_int(rng.randint(-coeff, coeff))
    return HomogOperator(n, out, fld)


def random_polynomial(rng, n, terms=3, degree=3, coeff=5, fld=QQ):
    """Random polynomial with up to ``terms`` monomials; may be zero."""
    out = {}
    for _ in range(rng.randint(0, terms)):
        out[_random_exponent(rng, n, degree)] = fld.from_int(rng.randint(-coeff, coeff))
    return Polynomial(n, out, fld)


def random_linear_form(rng, n, bound=2):
    p = []
    q = []
    for _ in range(n):
        pi = rng.randint(-bound, bound)
        p.append(pi)
        q.append(rng.randint(max(-pi, -bound), bound))
    return LinearForm(tuple(p), tuple(q))


def random_tiebreak(rng, n):
    perm = list(range(2 * n))
    rng.shuffle(perm)
    return TieBreak(rng.choice(TIEBREAK_KINDS), tuple(perm))


def _random_exponent(rng, width, degree):
    return tuple(rng.randint(0, degree) for _ in range(width))


def _random_split(rng, width, total):
    cuts = sorted(rng.randint(0, total) for _ in range(width - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(total - prev)
    return tuple(parts)


FUZZ_N_MAX = 2
FUZZ_TERMS = 3
FUZZ_DEGREE = 3
FUZZ_COEFF = 4


@dataclass
class FuzzReport:
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


DEFAULT_OPS = {
    "weyl_mul": lambda a, b: a * b,
    "homog_mul": lambda a, b: a * b,
    "apply": lambda op, f: op.apply(f),
}


def algebra_fuzz(seed, trials=50, ops=None) -> FuzzReport:
    """Replay the algebra's defining identities on seeded random inputs,
    ``trials`` rounds of them.

    ``ops`` overrides the product and action entry points, so a test can
    inject a wrong multiplication and confirm the suite notices.
    """
    table = dict(DEFAULT_OPS)
    if ops:
        table.update(ops)
    rng = random.Random(seed)
    rep = FuzzReport()

    for _ in range(trials):
        n = rng.randint(1, FUZZ_N_MAX)
        ctx = OrderContext(random_linear_form(rng, n), random_tiebreak(rng, n))
        _fuzz_products(rng, rep, table, n)
        _fuzz_homogenization(rng, rep, table, n)
        _fuzz_orders(rng, rep, ctx, n)
        _fuzz_symbols(rng, rep, table, ctx, n)
        try:
            _fuzz_division(rng, rep, ctx, n)
        except InvariantViolation as e:  # divide's own certificates failed
            _note(rep, False, "division certificates verified", e)
    return rep


def _note(rep, condition, label, *payload):
    rep.checks += 1
    if not condition:
        rep.failures.append((label,) + tuple(str(p) for p in payload))


def _fuzz_products(rng, rep, table, n):
    mk = lambda: random_weyl(rng, n, FUZZ_TERMS, FUZZ_DEGREE, FUZZ_COEFF)
    mul = table["weyl_mul"]
    a, b, c = mk(), mk(), mk()
    _note(rep, mul(mul(a, b), c) == mul(a, mul(b, c)), "weyl product associativity", a, b, c)
    _note(rep, mul(a, b + c) == mul(a, b) + mul(a, c), "weyl left distributivity", a, b, c)

    f = random_polynomial(rng, n, FUZZ_TERMS, FUZZ_DEGREE, FUZZ_COEFF)
    act = table["apply"]
    _note(
        rep,
        act(mul(a, b), f) == act(a, act(b, f)),
        "operator action is a homomorphism", a, b, f,
    )

    hk = lambda: random_homog(rng, n, FUZZ_TERMS, FUZZ_DEGREE, FUZZ_COEFF)
    hmul = table["homog_mul"]
    ha, hb, hc = hk(), hk(), hk()
    _note(rep, hmul(hmul(ha, hb), hc) == hmul(ha, hmul(hb, hc)), "graded associativity", ha, hb, hc)
    t = HomogOperator.t(n)
    _note(rep, hmul(t, ha) == hmul(ha, t), "t is central", ha)

    d1, d2 = rng.randint(0, FUZZ_DEGREE), rng.randint(0, FUZZ_DEGREE)
    g1 = random_homogeneous(rng, n, d1, FUZZ_TERMS, FUZZ_COEFF)
    g2 = random_homogeneous(rng, n, d2, FUZZ_TERMS, FUZZ_COEFF)
    prod = hmul(g1, g2)
    closed = is_homogeneous(prod)
    _note(rep, closed, "homogeneous elements close under product", g1, g2)
    # graded_degree raises on an inhomogeneous product, which the line above reports
    if closed and not g1.is_zero() and not g2.is_zero():
        ok = not prod.is_zero() and graded_degree(prod) == d1 + d2
        _note(rep, ok, "graded degrees add", g1, g2)

    # The arithmetic builds its results without re-validating them, so the
    # derived values are checked here as well as the random inputs; in
    # a - a every term cancels.
    derived = [a + b, a - b, -a, a.scale(a.field.from_int(-3, 2)), a - a, mul(a, b)]
    derived += [ha + hb, ha - hb, -ha, ha.scale(ha.field.from_int(2, 3)), hmul(ha, hb), prod]
    derived += [ha.t_shift(2), dehomogenize(ha)]
    for op in [a, b, ha, hb] + derived:
        # nonzero, and an element of op.field by the rule its coerce applies
        kept = all(c != 0 and c in op.field for c in op.terms.values())
        _note(rep, kept, "no stored zeros", op)
        _note(rep, _keys_well_formed(op), "keys are naturals of the right width", op)


def _keys_well_formed(op):
    width = op._width(op.n)
    return all(
        type(key) is tuple and len(key) == width and all(type(e) is int and e >= 0 for e in key)
        for key in op.terms
    )


def _fuzz_homogenization(rng, rep, table, n):
    mul = table["weyl_mul"]
    hmul = table["homog_mul"]
    mk = lambda: random_weyl(rng, n, FUZZ_TERMS, FUZZ_DEGREE, FUZZ_COEFF)
    p, q = mk(), mk()
    if not p.is_zero() and not q.is_zero():
        _note(
            rep,
            homogenize(mul(p, q)) == hmul(homogenize(p), homogenize(q)),
            "homogenization is multiplicative", p, q,
        )
        s = p + q
        if not s.is_zero():
            b, c, d = p.total_degree(), q.total_degree(), s.total_degree()
            e = max(b, c)
            _note(
                rep,
                homogenize(s).t_shift(e - d)
                == homogenize(p).t_shift(e - b) + homogenize(q).t_shift(e - c),
                "homogenization sum law", p, q,
            )
    if not p.is_zero():
        _note(rep, dehomogenize(homogenize(p)) == p, "dehomogenize undoes homogenize", p)

    d = rng.randint(0, FUZZ_DEGREE)
    g = random_homogeneous(rng, n, d, FUZZ_TERMS, FUZZ_COEFF)
    if not g.is_zero():
        down = dehomogenize(g)
        _note(rep, not down.is_zero(), "homogeneous elements survive t = 1", g)
        if not down.is_zero():
            _note(
                rep,
                homogenize(down).t_shift(d - down.total_degree()) == g,
                "t power recovers a homogeneous element", g,
            )


def _fuzz_orders(rng, rep, ctx, n):
    mk = lambda: _random_exponent(rng, 2 * n, FUZZ_DEGREE)
    u, v, w = mk(), mk(), mk()
    ku, kv = ctx.weighted_key(u), ctx.weighted_key(v)
    _note(rep, (ku == kv) == (u == v), "weighted key separates exponents", u, v)
    _note(
        rep,
        (ku < kv) == (ctx.weighted_key(vec_add(u, w)) < ctx.weighted_key(vec_add(v, w))),
        "weighted order is translation invariant", u, v, w,
    )
    hu, hv = (rng.randint(0, FUZZ_DEGREE),) + u, (rng.randint(0, FUZZ_DEGREE),) + v
    _note(
        rep,
        ctx.graded_key((0,) * (2 * n + 1)) <= ctx.graded_key(hu),
        "unit exponent is graded-minimal", hu,
    )
    if vec_leq(hu, hv) and hu != hv:
        _note(rep, ctx.graded_key(hu) < ctx.graded_key(hv), "graded order refines divisibility", hu, hv)


def _fuzz_symbols(rng, rep, table, ctx, n):
    mul = table["weyl_mul"]
    mk = lambda: random_weyl(rng, n, FUZZ_TERMS, FUZZ_DEGREE, FUZZ_COEFF)
    p, q = mk(), mk()
    if p.is_zero() or q.is_zero():
        return
    form = ctx.form
    prod = mul(p, q)
    if prod.is_zero():
        _note(rep, False, "product of nonzero operators vanished", p, q)
        return
    _note(
        rep,
        form.weight(prod) == form.weight(p) + form.weight(q),
        "weights add under the product", p, q,
    )
    _note(
        rep,
        leading_term(ctx, prod).exponent
        == vec_add(leading_term(ctx, p).exponent, leading_term(ctx, q).exponent),
        "leading exponents add under the product", p, q,
    )
    sp, sq = principal_symbol(ctx, p), principal_symbol(ctx, q)
    spq = mul(sp, sq)
    if spq.is_zero():
        _note(rep, False, "product of principal symbols vanished", p, q)
        return
    _note(
        rep,
        principal_symbol(ctx, prod) == principal_symbol(ctx, spq),
        "principal symbols are multiplicative", p, q,
    )
    if is_graded_commutative(form):
        comm = spq - mul(sq, sp)
        _note(
            rep,
            form.weight(comm) < form.weight(p) + form.weight(q),
            "symbols commute in the graded algebra", p, q,
        )
    hp = homogenize(p)
    _note(
        rep,
        project_exponent(leading_term(ctx, hp).exponent) == leading_term(ctx, p).exponent,
        "projection sends the graded lead to the weighted lead", p,
    )
    s = p + q
    if not s.is_zero():
        top = max(ctx.weighted_key(leading_term(ctx, p).exponent), ctx.weighted_key(leading_term(ctx, q).exponent))
        ks = ctx.weighted_key(leading_term(ctx, s).exponent)
        _note(rep, ks <= top, "lead of a sum is bounded by the leads", p, q)
        if leading_term(ctx, p).exponent != leading_term(ctx, q).exponent:
            _note(rep, ks == top, "distinct leads survive addition", p, q)


def _fuzz_division(rng, rep, ctx, n):
    divisors = []
    for _ in range(rng.randint(1, 3)):
        g = random_homogeneous(rng, n, rng.randint(0, FUZZ_DEGREE), FUZZ_TERMS, FUZZ_COEFF)
        if not g.is_zero():
            divisors.append(g)
    if not divisors:
        return
    h = random_homog(rng, n, FUZZ_TERMS, FUZZ_DEGREE, FUZZ_COEFF)
    divide(ctx, h, divisors)  # raises if its own certificates fail
    _note(rep, True, "division certificates verified")

    # uniqueness probe: a decomposition that already satisfies the support
    # conditions is the one divide returns
    leads = [leading_term(ctx, d).exponent for d in divisors]
    partition = RegionPartition(tuple(leads))
    quotients = []
    for i in range(len(divisors)):
        q = random_homog(rng, n, FUZZ_TERMS, FUZZ_DEGREE, FUZZ_COEFF)
        kept = {
            m: c
            for m, c in q.terms.items()
            if partition.classify(vec_add(leads[i], m)) == i
        }
        quotients.append(HomogOperator(n, kept))
    remainder = divide(ctx, random_homog(rng, n, FUZZ_TERMS, FUZZ_DEGREE, FUZZ_COEFF), divisors).remainder
    built = remainder
    for q, d in zip(quotients, divisors):
        built = built + q * d
    redo = divide(ctx, built, divisors)
    _note(
        rep,
        tuple(redo.quotients) == tuple(quotients) and redo.remainder == remainder,
        "division output is the unique valid decomposition", built,
    )
