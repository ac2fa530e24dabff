"""Independent cross-checks for the completion pipeline.

Two kinds of evidence live here, both deliberately built on different
machinery than the thing they check.

The truncation witness spans the graded left ideal up to a degree bound
by brute force: every monomial multiple of every generator, swept into
row echelon form over the scalar field.  t is central of weight 0, so a
multiple by t^k is a row of a lower degree lifted by t, with the same
order among its terms; only the t-free rows x^a (D^beta g) are built
(one Leibniz product per (generator, beta)), and one elimination over
plain exponents serves every degree.  Plain exponents are packed into
ints whose order is the weighted order.  The x-shifts of a row that
reduced to zero are skipped, and so is the product D_j D^beta g when the
row D^beta g did, since each lies in the span of the rows before it.
Every other x-shift starts from x_j times the reduced row of its
x-parent, a pivot kept as a shifted view of an earlier row; when its
lead is free it is a pivot as it stands, and no row is built.  The
witness is the birth map: each packed plain lead e and the least degree
b at which it leads, so the graded leads the ideal achieves up to the
bound are (d - |e|, e) for d from b to the bound, with no completion
logic involved.  For a standard basis these are exactly the multiples of
its leads, which the agreement check asks by comparing two birth maps.

The fuzz driver replays the algebra's defining identities on seeded
random inputs.  Its multiplication entry points can be swapped out,
which is how the tests confirm the suite actually has teeth: a mutated
product must make it fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement, compress
from math import comb, gcd
from operator import itemgetter, mul, sub

from .errors import InvariantViolation, OracleSizeError
from .division import divide, region
from .homogenize import dehomogenize, graded_degree, homogenize, is_homogeneous, project_exponent
from .orders import LinearForm, OrderContext, TieBreak, TIEBREAK_KINDS, check_n, exponent_packing, leading_term, pack_exponent, principal_symbol, is_graded_commutative
from .scalars import QQ, PrimeField
from .standard_basis import minimal_staircase
from .weyl import HomogOperator, Polynomial, WeylOperator, vec_add, vec_leq


@dataclass(frozen=True)
class TruncationWitness:
    """Every leading exponent the graded ideal achieves up to a degree.

    ``births`` maps each packed plain lead e to the least degree b at
    which it leads; ``packing`` is the ``exponent_packing`` (units,
    decoder) it was packed with.  The graded leads are (d - |e|, e) for
    every d from b to the bound: ``leading_exponents``, decoded on first
    read, and ``matrix_rank`` counts them.  A birth above the bound, which
    no witness makes, shows as the one lead of its degree."""

    degree_bound: int
    births: dict
    packing: tuple = field(compare=False, repr=False)

    @cached_property
    def leading_exponents(self):
        return frozenset(
            (d - sum(e),) + e
            for e, birth in zip(map(self.packing[1], self.births), self.births.values())
            for d in range(birth, max(birth, self.degree_bound) + 1)
        )

    @property
    def matrix_rank(self):
        return (self.degree_bound + 1) * len(self.births) - sum(self.births.values())


MAX_WITNESS_ROWS = 50_000  # candidate rows; past it, lower the degree bound


def _monomials_up_to(width, total):
    """Every exponent of ``width`` entries summing to at most ``total``, in
    increasing lexicographic order, without recursion: the partial sums of
    such an exponent run through each nondecreasing sequence in 0..total."""
    for sums in combinations_with_replacement(range(total + 1), width):
        yield tuple(map(sub, sums, (0,) + sums))


def truncation_witness(ctx, ops, degree_bound) -> TruncationWitness:
    """Echelonize all monomial multiples of the homogenized generators
    with product degree at most ``degree_bound``, and return the birth
    degree of every plain lead.

    t is central of weight 0, so the row of t^k x^a D^beta and g is t^k
    times the row of x^a D^beta and g, and the graded key of (k, e) at
    degree d is d followed by the weighted key of the plain e.  So only
    the t-free rows are built, keyed by plain exponent: the span at
    degree d is that of every t-free row of degree at most d, lifted by
    t.  The rows run in increasing degree through one pivot map, and a
    pivot of plain lead e born at degree b gives the lead (d - |e|, e) at
    every degree d from b to the bound.  Columns are plain exponents
    packed into ints (``exponent_packing``) whose int order is the
    weighted order, so a row maps ints to int coefficients, its lead is
    ``max(row)`` and nothing is decoded here.

    The row of x^a D^beta and g is x^a (D^beta g).  The product D^beta g
    is made once per (generator, beta), with the graded product, at the
    degree of its a = 0 row, and kept; the a = 0 row adds nothing to its
    packed exponents.  No contraction is lost by this: contractions come
    only from a D of the left factor meeting an x of the right one, and
    x^a has no D.  Over F_p the kept product is already reduced, so a
    term whose weight vanishes mod p is gone from every row built on it,
    as it is from the full product.

    Rows run in the order: degree, then generator, then beta, then a in
    increasing lexicographic order; the shifts a -> a + e_j and
    beta -> beta + e_j keep it.  A row x^(a + e_j) (D^beta g) is skipped,
    unbuilt, when the row x^a (D^beta g) reduced to zero or was itself
    skipped.  This loses nothing: a row r that reduced to zero is a
    combination of rows before it, so x_j r is the same combination of
    their x_j-shifts, each of which comes before x_j r and lies within
    the bound.  Likewise D^(beta + e_j) g is not made, and all its rows
    are skipped, when the row D^beta g reduced to zero or was skipped:
    D_j (x^a' D^beta' g') = x^a' D^(beta' + e_j) g'
    + a'_j t^2 x^(a' - e_j) D^beta' g', so D_j times a row before D^beta g
    is a sum of rows, lifted by t, before D^(beta + e_j) g.  By induction
    along the order, a skipped row lies in the span of the rows before
    it, so the span at every degree, and with it every pivot lead and its
    birth degree, is unchanged.  Every product of beta = 0 is made.

    A row with a != 0 that is not skipped has every x-parent
    x^(a - e_j) (D^beta g), a_j > 0, reduced to a pivot one degree
    earlier, and it starts as x_j times the first one's pivot instead of
    from the product.  This too is exact: that pivot is, up to a nonzero
    scalar, the parent row minus a combination of rows before it, so x_j
    times it is x^a (D^beta g) minus the x_j-shifts of those rows, each
    before x^a (D^beta g) in the order above and within the bound.  The
    span after every row is again unchanged, and so is every pivot lead
    and its birth.  Packing is linear, so the shift adds the packed x_j
    to every key of the pivot, which keeps their int order: x_j times a
    pivot leads at its lead plus x_j, and is as content-free (QQ) or
    monic (F_p) as the pivot.  So a pivot is kept as a shifted view
    (base row, base lead, packed shift) of the row {k + shift: v}, and a
    shifted row whose lead no pivot holds is a pivot as it stands, with
    no row built; only a row whose lead is taken is built and reduced.
    Each product keeps the pivots of its rows of the previous degree
    only, keyed by packed x^a.

    Rows hold Python ints: each homogenized generator is first scaled by
    the d of its integer form (the lcm of its denominators over QQ, 1
    over F_p); a nonzero scalar multiple generates the same left ideal,
    so the pivot set is unchanged.  Both fields eliminate with one loop, by
    cross-multiplication: ``row := (pc/d)*row - (c/d)*pivot`` with
    ``d = gcd(c, pc)`` clears the lead c of the row against the lead pc
    of its pivot.  Over F_p everything is reduced mod p and pivots are
    stored monic (so pc = 1 and the row is never scaled); over QQ pivots
    are stored divided by their content.
    """
    if type(degree_bound) is not int or degree_bound < 0:
        raise ValueError(f"degree bound must be a natural number, got {degree_bound!r}")
    gens = [homogenize(op) for op in ops if not op.is_zero()]
    for g in gens:
        check_n(ctx, g)
        if graded_degree(g) > degree_bound:
            raise ValueError("degree bound is below a generator's degree")

    gens = [g.scale(g.integer_form()[0]) for g in gens]
    fld = gens[0].field if gens else QQ
    p = fld.characteristic

    n = ctx.n
    width = 2 * n + 1  # the limit counts the rows of a sweep over every monomial in t, x and D
    rows = sum(comb(width + degree_bound - graded_degree(g), width) for g in gens)
    if rows > MAX_WITNESS_ROWS:
        raise OracleSizeError(
            f"{rows} candidate rows exceed the limit of {MAX_WITNESS_ROWS}; "
            "lower the degree bound"
        )

    units, unpack = exponent_packing(ctx, degree_bound)
    x_units = units[:n]
    monomials = []  # (a, packed x^a, packed x^(a - e_j) for each a_j > 0), a in lex order
    for a in _monomials_up_to(n, degree_bound - min(map(graded_degree, gens), default=degree_bound)):
        packed = pack_exponent(x_units, a)
        monomials.append((a, packed, [packed - x_units[j] for j in compress(range(n), a)]))
    shifts = [[] for _ in range(degree_bound + 1)]  # |a| -> (packed x^a, its x-parents)
    for a, packed, below in monomials:
        shifts[sum(a)].append((packed, below))

    # [degree, generator, beta, (generator index, packed beta), the same of its D-parents,
    #  D^beta g as (packed plain exponent, int coefficient) terms once made, parent pivots]
    products = []
    for i, g in enumerate(gens):
        d = graded_degree(g)
        products += (
            [d + sum(beta), g, beta, (i, packed), [(i, k) for k in below], None, {}]
            for beta, packed, below in monomials if d + sum(beta) <= degree_bound
        )

    one = fld.one()
    no_d = (0,) * n
    pivots = {}  # packed lead -> (base row, base lead, packed shift), the row {k + shift: v for k, v in base}
    born = {}  # packed lead -> degree of the row that made it
    heads = set()  # (generator index, packed beta) whose a = 0 row became a pivot
    for degree in range(degree_bound + 1):
        for product in products:
            top, g, beta, key, d_parents, terms, parents = product
            if top == degree and all(map(heads.__contains__, d_parents)):
                # beta comes from _monomials_up_to, so the key is well formed
                made = HomogOperator._trusted(n, {(0,) + no_d + beta: one}, fld) * g
                terms = product[5] = [(pack_exponent(units, e[1:]), c.numerator) for e, c in made.terms.items()]
            if terms is None:
                continue  # made at a later degree, or skipped with a D-parent's a = 0 row
            reduced = product[6] = {}  # packed x^a -> pivot of the row x^a (D^beta g), at this degree
            for a, below in shifts[degree - top]:
                if not all(map(parents.__contains__, below)):
                    continue  # an x-parent reduced to zero or was skipped
                if below:  # x_j times the pivot of the x-parent x^(a - e_j) (D^beta g)
                    base, base_lead, shift = parents[below[0]]
                    shift += a - below[0]
                    lead = base_lead + shift
                    if lead not in pivots:
                        pivots[lead] = reduced[a] = (base, base_lead, shift)
                        born[lead] = degree  # a pivot made without building a row
                        continue
                    row = {k + shift: v for k, v in base.items()}
                else:
                    row = dict(terms)
                while row:
                    lead = max(row)
                    c = row[lead]
                    pivot = pivots.get(lead)
                    if pivot is None:
                        if p:
                            if c != 1:
                                inv = pow(c, -1, p)
                                row = {k: v * inv % p for k, v in row.items()}
                        else:
                            content = gcd(*row.values())
                            if content != 1:
                                row = {k: v // content for k, v in row.items()}
                        pivots[lead] = reduced[a] = (row, lead, 0)
                        born[lead] = degree
                        break
                    base, base_lead, shift = pivot
                    pc = base[base_lead]
                    common = gcd(c, pc)
                    b = c // common
                    if pc != common:
                        scale = pc // common
                        row = {k: scale * v for k, v in row.items()}
                    for k, v in base.items():
                        k += shift
                        s = row.get(k, 0) - b * v
                        if p:
                            s %= p
                        if s:
                            row[k] = s
                        else:  # b and v are nonzero (mod p), so k was in the row
                            del row[k]
                    if lead in row:  # a pivot whose stored lead is not its row's would spin here
                        raise InvariantViolation("a witness pivot did not cancel the lead of the row it reduced")
            if top == degree and reduced:
                heads.add(key)
    return TruncationWitness(degree_bound, born, (units, unpack))


@dataclass(frozen=True)
class AgreementReport:
    """Outcome of comparing a pipeline report with the witness."""

    ok: bool
    mismatches: tuple
    witness: TruncationWitness


def oracle_pipeline_agree(ctx, ops, report, degree_bound) -> AgreementReport:
    """Compare a pipeline report with the truncation witness exactly.

    The witness must hold (k, e) exactly when a lead of the report's
    ``homog_basis`` divides it and k + |e| is at most the bound: for each
    plain e, every k from k_e, the least t power a basis lead divides, to
    bound - |e|.  The staircase must be the minimal projected leads.

    Both sides are compared as birth maps over packed plain exponents,
    with the witness's own packing.  The witness's graded leads at a
    plain e are (k, e) for k from births[e] - |e| to bound - |e|, and the
    multiples of basis leads at e are those for k from k_e to the same
    top; so the two sets are equal exactly when the births are
    {e: k_e + |e|}, with an entry only where k_e + |e| is at most the
    bound.  A lead (k, e0) gives each plain multiple e0 + s with
    k + |e0| + |s| at most the bound the birth k + |e0| + |s|, and the
    least map keeps the smallest over all leads: at a given plain
    exponent that is the one of least k, so the leads are written in
    decreasing order and the last write stands.  The packed s of each
    extra degree j are the sums of ``combinations_with_replacement`` of
    the units, for j up to the bound less the smallest lead degree, so
    only multiples are enumerated, never every monomial up to the bound.
    Exponents are decoded only on a mismatch, to report the graded leads
    on either side alone."""
    witness = truncation_witness(ctx, ops, degree_bound)
    units = witness.packing[0]
    leads = [leading_term(ctx, g).exponent for g in report.homog_basis]
    reach = degree_bound - min(map(sum, leads), default=degree_bound)  # the most extra degrees a multiple takes
    steps = [list(map(sum, combinations_with_replacement(units, j))) for j in range(reach + 1)]
    least = {}  # packed plain multiple e of a basis lead -> k_e + |e|
    for lead in sorted(leads, reverse=True):
        base = pack_exponent(units, lead[1:])
        for birth, step in zip(range(sum(lead), degree_bound + 1), steps):
            least.update(dict.fromkeys(map(base.__add__, step), birth))

    mismatches = []
    if witness.births != least:
        found = witness.leading_exponents
        wanted = TruncationWitness(degree_bound, least, witness.packing).leading_exponents
        mismatches = [("witness lead is no multiple of a basis lead", m) for m in sorted(found - wanted)]
        mismatches += [
            ("multiple of a basis lead missing from the witness", m)
            for m in sorted(wanted - found, key=itemgetter(slice(1, None), 0))  # by plain exponent, then t power
        ]
    if report.staircase != minimal_staircase(project_exponent(lead) for lead in leads):
        mismatches.append(("staircase is not the projection of the basis leads", report.staircase))
    return AgreementReport(not mismatches, tuple(mismatches), witness)


def _random_terms(cls, rng, n, terms, degree, coeff, fld):
    """Random ``cls`` element (operator, graded element or polynomial) with
    up to ``terms`` monomials, each exponent drawn before its coefficient;
    may be zero.  Every random draw of terms below goes through it."""
    out = {}
    for _ in range(rng.randint(0, terms)):
        m = _random_exponent(rng, cls._width(n), degree)
        out[m] = fld.from_int(rng.randint(-coeff, coeff))
    return cls(n, out, fld)


def random_weyl(rng, n, terms=3, degree=3, coeff=5, fld=QQ):
    """Random operator with up to ``terms`` monomials; may be zero."""
    return _random_terms(WeylOperator, rng, n, terms, degree, coeff, fld)


def random_homog(rng, n, terms=3, degree=3, coeff=5, fld=QQ):
    """Random graded-algebra element, not necessarily homogeneous."""
    return _random_terms(HomogOperator, rng, n, terms, degree, coeff, fld)


def random_homogeneous(rng, n, degree, terms=3, coeff=5, fld=QQ):
    """Random homogeneous element of the given graded degree; may be zero."""
    out = {}
    for _ in range(rng.randint(1, terms)):
        m = _random_split(rng, 2 * n + 1, degree)
        out[m] = fld.from_int(rng.randint(-coeff, coeff))
    return HomogOperator(n, out, fld)


def random_polynomial(rng, n, terms=3, degree=3, coeff=5, fld=QQ):
    """Random polynomial with up to ``terms`` monomials; may be zero."""
    return _random_terms(Polynomial, rng, n, terms, degree, coeff, fld)


def random_linear_form(rng, n, bound=2):
    p, q = [], []
    for _ in range(n):
        p.append(rng.randint(-bound, bound))
        q.append(rng.randint(max(-p[-1], -bound), bound))
    return LinearForm(tuple(p), tuple(q))


def random_tiebreak(rng, n):
    perm = list(range(2 * n))
    rng.shuffle(perm)
    return TieBreak(rng.choice(TIEBREAK_KINDS), tuple(perm))


def _random_exponent(rng, width, degree):
    return tuple(rng.randint(0, degree) for _ in range(width))


def _random_split(rng, width, total):
    cuts = sorted(rng.randint(0, total) for _ in range(width - 1))
    return tuple(map(sub, cuts + [total], [0] + cuts))


FUZZ_N_MAX = 2
FUZZ_TERMS = 3
FUZZ_DEGREE = 3
FUZZ_COEFF = 4
FUZZ_FIELDS = (QQ, PrimeField(7), PrimeField(32003))


@dataclass
class FuzzReport:
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


DEFAULT_OPS = {
    "weyl_mul": mul,
    "homog_mul": mul,
    "apply": lambda op, f: op.apply(f),
}


def algebra_fuzz(seed, trials=50, ops=None) -> FuzzReport:
    """Replay the algebra's defining identities on seeded random inputs,
    ``trials`` rounds of them, each over a field drawn from
    ``FUZZ_FIELDS``: A_n[t] is a domain over any field, so every identity
    holds in characteristic p too.

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
        fld = rng.choice(FUZZ_FIELDS)
        _fuzz_products(rng, rep, table, n, fld)
        _fuzz_homogenization(rng, rep, table, n, fld)
        _fuzz_orders(rng, rep, ctx, n)
        _fuzz_symbols(rng, rep, table, ctx, n, fld)
        try:
            _fuzz_division(rng, rep, ctx, n, fld)
        except InvariantViolation as e:  # divide's own certificates failed
            _note(rep, False, "division certificates verified", e)
    return rep


def _note(rep, condition, label, *payload):
    rep.checks += 1
    if not condition:
        rep.failures.append((label,) + tuple(str(p) for p in payload))


def _fuzz_products(rng, rep, table, n, fld):
    mk = lambda: random_weyl(rng, n, FUZZ_TERMS, FUZZ_DEGREE, FUZZ_COEFF, fld)
    mul = table["weyl_mul"]
    a, b, c = mk(), mk(), mk()
    _note(rep, mul(mul(a, b), c) == mul(a, mul(b, c)), "weyl product associativity", a, b, c)
    _note(rep, mul(a, b + c) == mul(a, b) + mul(a, c), "weyl left distributivity", a, b, c)

    f = random_polynomial(rng, n, FUZZ_TERMS, FUZZ_DEGREE, FUZZ_COEFF, fld)
    act = table["apply"]
    _note(
        rep,
        act(mul(a, b), f) == act(a, act(b, f)),
        "operator action is a homomorphism", a, b, f,
    )

    hk = lambda: random_homog(rng, n, FUZZ_TERMS, FUZZ_DEGREE, FUZZ_COEFF, fld)
    hmul = table["homog_mul"]
    ha, hb, hc = hk(), hk(), hk()
    _note(rep, hmul(hmul(ha, hb), hc) == hmul(ha, hmul(hb, hc)), "graded associativity", ha, hb, hc)
    t = HomogOperator.t(n, field=fld)
    _note(rep, hmul(t, ha) == hmul(ha, t), "t is central", ha)

    d1, d2 = rng.randint(0, FUZZ_DEGREE), rng.randint(0, FUZZ_DEGREE)
    g1 = random_homogeneous(rng, n, d1, FUZZ_TERMS, FUZZ_COEFF, fld)
    g2 = random_homogeneous(rng, n, d2, FUZZ_TERMS, FUZZ_COEFF, fld)
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


def _fuzz_homogenization(rng, rep, table, n, fld):
    mul = table["weyl_mul"]
    hmul = table["homog_mul"]
    mk = lambda: random_weyl(rng, n, FUZZ_TERMS, FUZZ_DEGREE, FUZZ_COEFF, fld)
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
    g = random_homogeneous(rng, n, d, FUZZ_TERMS, FUZZ_COEFF, fld)
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


def _fuzz_symbols(rng, rep, table, ctx, n, fld):
    mul = table["weyl_mul"]
    mk = lambda: random_weyl(rng, n, FUZZ_TERMS, FUZZ_DEGREE, FUZZ_COEFF, fld)
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


def _fuzz_division(rng, rep, ctx, n, fld):
    divisors = []
    for _ in range(rng.randint(1, 3)):
        g = random_homogeneous(rng, n, rng.randint(0, FUZZ_DEGREE), FUZZ_TERMS, FUZZ_COEFF, fld)
        if not g.is_zero():
            divisors.append(g)
    if not divisors:
        return
    h = random_homog(rng, n, FUZZ_TERMS, FUZZ_DEGREE, FUZZ_COEFF, fld)
    divide(ctx, h, divisors)  # raises if its own certificates fail
    _note(rep, True, "division certificates verified")

    # uniqueness probe: a decomposition that already satisfies the support
    # conditions (each quotient term shifted into its own ``region``) is
    # the one divide returns
    leads = [leading_term(ctx, d).exponent for d in divisors]
    quotients = []
    for i in range(len(divisors)):
        q = random_homog(rng, n, FUZZ_TERMS, FUZZ_DEGREE, FUZZ_COEFF, fld)
        kept = {
            m: c
            for m, c in q.terms.items()
            if region(leads, vec_add(leads[i], m)) == i
        }
        quotients.append(HomogOperator(n, kept, fld))
    remainder = divide(ctx, random_homog(rng, n, FUZZ_TERMS, FUZZ_DEGREE, FUZZ_COEFF, fld), divisors).remainder
    built = remainder
    for q, d in zip(quotients, divisors):
        built = built + q * d
    redo = divide(ctx, built, divisors)
    _note(
        rep,
        tuple(redo.quotients) == tuple(quotients) and redo.remainder == remainder,
        "division output is the unique valid decomposition", built,
    )
