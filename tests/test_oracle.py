"""Brute-force witness and randomized self-checks."""

import dataclasses
import inspect
import itertools
import math
import random
import signal
import textwrap
from fractions import Fraction

import pytest

from weylstd import (
    QQ,
    HomogOperator,
    InvariantViolation,
    LinearForm,
    OracleSizeError,
    OrderContext,
    PrimeField,
    TieBreak,
    WeylOperator,
    algebra_fuzz,
    compute_standard_basis,
    oracle_pipeline_agree,
    parse_operator,
    truncation_witness,
)
from weylstd import oracle
from weylstd.homogenize import graded_degree, homogenize, project_exponent
from weylstd.oracle import (
    MAX_WITNESS_ROWS,
    _monomials_up_to,
    random_linear_form,
    random_tiebreak,
    random_weyl,
)
from weylstd.orders import TIEBREAK_KINDS, exponent_packing, pack_exponent


def _gens(n, *texts, fld=QQ):
    return [parse_operator(t, n, fld) for t in texts]


def _reference_witness(ctx, ops, degree_bound):
    """The witness as a plain row-by-row sweep in field arithmetic: every
    (monomial, generator) row is reduced against all pivots so far, its
    lead found by keying every term again on each step, and each pivot
    is stored monic.  Over F_p every difference is reduced mod p and
    pivots divide through ``field.div``.  Returns (leading exponents, rank)."""
    gens = [homogenize(op) for op in ops if not op.is_zero()]
    fld = gens[0].field if gens else QQ
    p = fld.characteristic
    pivots = {}
    for g in gens:
        for m in _monomials_up_to(2 * ctx.n + 1, degree_bound - graded_degree(g)):
            row = dict((HomogOperator.monomial(ctx.n, m, field=fld) * g).terms)
            while row:
                lead = max(row, key=ctx.graded_key)
                c = row[lead]
                hit = pivots.get(lead)
                if hit is None:
                    pivots[lead] = {k: fld.div(v, c) for k, v in row.items()}
                    break
                for k, v in hit.items():
                    s = row.get(k, 0) - c * v
                    if p:
                        s %= p
                    if s == 0:
                        row.pop(k, None)
                    else:
                        row[k] = s
    return frozenset(pivots), len(pivots)


def _seen(witness):
    """What the reference gives of a witness: its leading exponents and rank."""
    return witness.leading_exponents, witness.matrix_rank


def _assert_witness_matches_reference(ctx, ops, bound):
    assert _seen(truncation_witness(ctx, ops, bound)) == _reference_witness(ctx, ops, bound)


def _projected_leads(ctx, ops, degree_bound):
    """The witness's leads with the t exponent forgotten."""
    return {project_exponent(m) for m in truncation_witness(ctx, ops, degree_bound).leading_exponents}


def test_witness_on_whole_algebra_ideal():
    # t^2 = Dx - xD lies in the span at degree 2, so (0,0) projects out
    ctx = OrderContext(LinearForm.order(1))
    stair = _projected_leads(ctx, _gens(1, "x1", "D1"), 2)
    assert (0, 0) in stair


def test_witness_on_principal_ideal():
    ctx = OrderContext(LinearForm.order(1))
    stair = _projected_leads(ctx, _gens(1, "x1^2"), 4)
    assert min(stair, key=sum) == (2, 0)
    assert all(m[0] >= 2 for m in stair)


def test_witness_sees_unit_for_hyperplane_form_ideal():
    ctx = OrderContext(LinearForm.v_form(1))
    stair = _projected_leads(ctx, _gens(1, "1 + x1^2*D1"), 6)
    assert (0, 0) in stair


def test_witness_grows_monotonically():
    ctx = OrderContext(LinearForm.order(1))
    gens = _gens(1, "x1^2", "x1*D1")
    small = truncation_witness(ctx, gens, 4)
    large = truncation_witness(ctx, gens, 6)
    assert small.leading_exponents <= large.leading_exponents
    assert small.matrix_rank <= large.matrix_rank
    assert all(sum(m) <= 4 for m in small.leading_exponents)


def test_witness_preconditions(monkeypatch):
    ctx = OrderContext(LinearForm.order(1))
    with pytest.raises(ValueError):
        truncation_witness(ctx, _gens(1, "x1^3"), 2)  # bound below generator degree
    monkeypatch.setattr(oracle, "MAX_WITNESS_ROWS", 3)
    with pytest.raises(OracleSizeError):
        truncation_witness(ctx, _gens(1, "x1"), 8)
    # the limit counts one row per monomial of degree <= 8 - deg(g) in the
    # 3 variables t, x1, D1: C(10, 3) = 120 for x1 and C(9, 3) = 84 for D1^2
    gens = _gens(1, "x1", "D1^2")
    monkeypatch.setattr(oracle, "MAX_WITNESS_ROWS", 203)
    with pytest.raises(OracleSizeError, match="^204 candidate rows exceed the limit of 203;"):
        truncation_witness(ctx, gens, 8)
    monkeypatch.setattr(oracle, "MAX_WITNESS_ROWS", 204)
    assert truncation_witness(ctx, gens, 8).matrix_rank > 0


@pytest.mark.parametrize("bound", [-1, True, False, 2.0, "3", None])
@pytest.mark.parametrize("texts", [(), ("D1",)])
def test_degree_bound_must_be_a_natural_number(monkeypatch, bound, texts):
    # refused before any work, with or without generators, by the witness
    # and by the agreement that builds one
    ctx = OrderContext(LinearForm.order(1))
    ops = [parse_operator(t, 1) for t in texts]
    report = compute_standard_basis(ctx, ops)
    monkeypatch.setattr(oracle, "homogenize", None)  # any work would fail otherwise
    for run in (lambda: truncation_witness(ctx, ops, bound), lambda: oracle_pipeline_agree(ctx, ops, report, bound)):
        with pytest.raises(ValueError, match="^degree bound must be a natural number, got "):
            run()


def test_monomials_are_every_exponent_in_lexicographic_order():
    for width in range(1, 5):
        for total in range(-1, 5):
            every = [m for m in itertools.product(range(total + 1), repeat=width) if sum(m) <= total]
            assert list(_monomials_up_to(width, total)) == every
    # no recursion per variable: the width of the witness at n = 1000
    assert sum(1 for _ in _monomials_up_to(2001, 1)) == 2002


def _assert_packing_is_the_weighted_order(ctx, bound):
    exps = list(_monomials_up_to(2 * ctx.n, bound))
    units, unpack = exponent_packing(ctx, bound)
    packed = [pack_exponent(units, e) for e in exps]
    assert [e for _, e in sorted(zip(packed, exps))] == sorted(exps, key=ctx.weighted_key)
    assert list(map(unpack, packed)) == exps


@pytest.mark.parametrize("kind", TIEBREAK_KINDS)
def test_packed_exponents_sort_by_the_weighted_key_and_decode(kind):
    rng = random.Random(f"packing:{kind}")
    negative = 0
    for n, bound in ((1, 8), (2, 8), (3, 8), (200, 1)):
        forms = [LinearForm.order(n), LinearForm.bernstein(n), LinearForm.v_form(n), LinearForm.l_form(n, 1, 2)]
        drawn = [random_linear_form(rng, n, bound=3) for _ in range(3)]
        negative += sum(min(form.p + form.q) < 0 for form in drawn)
        for form in forms + drawn:
            perm = list(range(2 * n))
            rng.shuffle(perm)
            # at bound 1 the exponents are zero and every unit
            _assert_packing_is_the_weighted_order(OrderContext(form, TieBreak(kind, tuple(perm))), bound)
    assert negative  # a weight row with a negative entry packs too


def test_packed_exponents_at_the_largest_bounds():
    # a constant generator at n = 1 has C(3 + b, 3) candidate rows; a
    # generator of high degree admits a bound past that, such as 300,
    # whose digits need a wider radix
    largest = max(b for b in range(100) if math.comb(3 + b, 3) <= MAX_WITNESS_ROWS)
    assert largest == 64
    for bound in (largest, 300):
        _assert_packing_is_the_weighted_order(OrderContext(LinearForm.l_form(1, 2, 3), TieBreak("lex", (1, 0))), bound)


def _radix(ctx, bound):
    # the radix 2^r of ``exponent_packing``: r is the bit length of twice
    # the bound times the largest weight in size (at least 1)
    return (2 * bound * max(1, *map(abs, ctx.form.row))).bit_length()


@pytest.mark.parametrize("kind", TIEBREAK_KINDS)
def test_packed_int_is_the_weighted_key_in_radix_two_to_the_r(kind):
    rng = random.Random(f"radix:{kind}")
    negative = 0
    for n, bound in ((1, 6), (2, 5), (3, 4), (200, 7)):
        forms = [LinearForm.order(n), LinearForm.v_form(n), LinearForm.l_form(n, 1, 2)]
        forms += [random_linear_form(rng, n, bound=3) for _ in range(3)]
        negative += sum(min(form.row) < 0 for form in forms)
        for form in forms:
            perm = list(range(2 * n))
            rng.shuffle(perm)
            ctx = OrderContext(form, TieBreak(kind, tuple(perm)))
            r = _radix(ctx, bound)
            units, unpack = exponent_packing(ctx, bound)
            for _ in range(30):
                e = [0] * (2 * n)
                for _ in range(rng.randint(0, bound)):
                    e[rng.randrange(2 * n)] += 1
                e = tuple(e)
                key = ctx.weighted_key(e)
                packed = pack_exponent(units, e)
                assert packed == sum(k << r * (len(key) - 1 - t) for t, k in enumerate(key))
                assert unpack(packed) == e
    assert negative  # v-form and l-form weigh x_n negatively


def test_each_unit_is_no_wider_than_its_key_in_radix_two_to_the_r():
    ctx = OrderContext(LinearForm.order(1000))
    units, _ = exponent_packing(ctx, 3)
    width = _radix(ctx, 3) * len(ctx.weighted_key((0,) * 2000))
    assert width == 6006
    assert max(abs(u).bit_length() for u in units) <= width


@pytest.mark.parametrize("kind", TIEBREAK_KINDS)
def test_bound_zero_decodes_the_zero_exponent(kind):
    for form in (LinearForm.order(2), LinearForm.v_form(2)):
        ctx = OrderContext(form, TieBreak(kind, (3, 0, 2, 1)))
        units, unpack = exponent_packing(ctx, 0)
        assert unpack(pack_exponent(units, (0,) * 4)) == (0,) * 4


# Over F_2 and F_3 some contraction weights vanish, so a product loses
# terms that it keeps over QQ.
WITNESS_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7), PrimeField(32003)]


@pytest.mark.parametrize("fld", WITNESS_FIELDS, ids=lambda f: repr(f))
def test_witness_matches_reference_on_random_ideals(fld):
    rng = random.Random(f"witness:{fld!r}")
    for _ in range(16):
        n = rng.randint(1, 2)
        ctx = OrderContext(random_linear_form(rng, n), random_tiebreak(rng, n))
        ops = [random_weyl(rng, n, terms=4, degree=2, coeff=6, fld=fld) for _ in range(rng.randint(1, 3))]
        if fld == QQ:  # denominators exercise the lcm scaling
            ops = [
                WeylOperator(n, {k: c / rng.randint(1, 6) for k, c in op.terms.items()}, QQ)
                for op in ops
            ]
        top = max((graded_degree(homogenize(op)) for op in ops if not op.is_zero()), default=0)
        _assert_witness_matches_reference(ctx, ops, top + (3 if n == 1 else 2))
    # n = 3, with random forms and tiebreaks, at bound 4
    rng = random.Random(f"witness-n3-draws:{fld!r}")
    for _ in range(3):
        ctx = OrderContext(random_linear_form(rng, 3), random_tiebreak(rng, 3))
        _assert_witness_matches_reference(ctx, [_draw_small(rng, 3, fld) for _ in range(rng.randint(1, 3))], 4)


def _draw_small(rng, n, fld):
    """A random nonzero operator of total degree at most 2."""
    while True:
        op = random_weyl(rng, n, terms=3, degree=1, coeff=6, fld=fld)
        if not op.is_zero() and op.total_degree() <= 2:
            return op


@pytest.mark.parametrize("fld", [QQ, PrimeField(2), PrimeField(3), PrimeField(32003)], ids=lambda f: repr(f))
def test_witness_matches_reference_on_random_ideals_in_three_variables(fld):
    # two or three generators of degree at most 2 at bound 5: the skip of
    # zero rows' x-shifts and the start from a reduced x-parent then run
    # across products of different generators and betas
    rng = random.Random(f"witness-n3:{fld!r}")
    skipped = 0
    for _ in range(4):
        ctx = OrderContext(random_linear_form(rng, 3), random_tiebreak(rng, 3))
        ops = [_draw_small(rng, 3, fld) for _ in range(rng.randint(2, 3))]
        _assert_witness_matches_reference(ctx, ops, 5)
        skipped += sum(_witness_skips(ctx, ops, 5))
    assert skipped > 0


# The GKZ system H_A(beta) for A = [[1,1,1],[0,1,2]], beta = (3/5, 7/11),
# under the order form, Bernstein, v_form and l_form(3, 1, 1).
GKZ3 = ("D1*D3 - D2^2", "x1*D1 + x2*D2 + x3*D3 - 3/5", "x2*D2 + 2*x3*D3 - 7/11")
GKZ3_FORMS = [
    LinearForm.order(3),
    LinearForm.bernstein(3),
    LinearForm.v_form(3),
    LinearForm.l_form(3, 1, 1),
]


@pytest.mark.parametrize(
    "fld", [QQ, PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(32003)], ids=lambda f: repr(f)
)
@pytest.mark.parametrize("form", GKZ3_FORMS, ids=["order", "bernstein", "v_form", "l_form"])
def test_witness_matches_reference_on_gkz3(form, fld):
    _assert_witness_matches_reference(OrderContext(form), _gens(3, *GKZ3, fld=fld), 6)


# A second beta, off the resonance hyperplanes of A = [[1,1,1],[0,1,2]].
GKZ3_SECOND_BETA = ("D1*D3 - D2^2", "x1*D1 + x2*D2 + x3*D3 - 8/7", "x2*D2 + 2*x3*D3 - 19/13")


@pytest.mark.parametrize("form", GKZ3_FORMS, ids=["order", "bernstein", "v_form", "l_form"])
def test_witness_matches_reference_on_gkz3_at_a_second_beta(form):
    _assert_witness_matches_reference(OrderContext(form), _gens(3, *GKZ3_SECOND_BETA), 8)


@pytest.mark.parametrize(
    "form, fld",
    [(GKZ3_FORMS[0], QQ)] + [(form, PrimeField(2)) for form in GKZ3_FORMS],
    ids=["order-QQ", "order-F_2", "bernstein-F_2", "v_form-F_2", "l_form-F_2"],
)
def test_witness_matches_reference_on_gkz3_at_the_workload_bound(form, fld):
    _assert_witness_matches_reference(OrderContext(form), _gens(3, *GKZ3, fld=fld), 8)


# Graded degrees 1 and 4: at bound 4 a pivot born at degree 1 is carried
# up through t to degrees 2, 3 and 4.
MIXED_DEGREES = ("x1 + 2*D2", "D1^2*D2^2 - 3*x1*x2*D2 + x2 - 5")


@pytest.mark.parametrize("bound", [4, 6])
@pytest.mark.parametrize("fld", [QQ, PrimeField(3)], ids=lambda f: repr(f))
def test_witness_matches_reference_on_mixed_degrees(fld, bound):
    ops = _gens(2, *MIXED_DEGREES, fld=fld)
    assert sorted(graded_degree(homogenize(op)) for op in ops) == [1, 4]
    _assert_witness_matches_reference(OrderContext(LinearForm.order(2)), ops, bound)


# Two faults in carrying pivots up through t, each as (the code as
# written, the faulty code): the pivot map reset at each degree, in the
# witness, and a lead derived only at the degree where its pivot is born,
# in ``TruncationWitness.leading_exponents``.
CARRY_FAULTS = {
    "reset-pivots": (
        "    for degree in range(degree_bound + 1):\n",
        "    for degree in range(degree_bound + 1):\n        pivots = {}\n",
    ),
    "lead-at-birth-only": ("for d in range(birth, max(birth, self.degree_bound) + 1)", "for d in (birth,)"),
}
# The agreement compares births and never reads the derived leads, so
# it is shown instead what the second fault amounts to in the births:
# a birth recorded one degree late, at both places a pivot is made.
BIRTH_A_DEGREE_LATE = [
    ("born[lead] = degree\n", "born[lead] = degree + 1\n"),
    ("born[lead] = degree  #", "born[lead] = degree + 1  #"),
]

# The skip of x-shifts of zero rows, as written, and the same test
# recording each row's verdict in ``skips``.
SKIP_TEST = "if not all(map(parents.__contains__, below)):"
COUNTED_SKIP_TEST = "if skips.append(not all(map(parents.__contains__, below))) or skips[-1]:"
# The D-skip, as written: D^beta g is made only when the a = 0 row of
# every D-parent became a pivot.
D_SKIP_TEST = "all(map(heads.__contains__, d_parents))"
COUNTED_D_SKIP_TEST = "(d_made.append(all(map(heads.__contains__, d_parents))) or d_made[-1])"
NO_D_SKIP = (D_SKIP_TEST, "True")

# The start of a row from the pivot of its x-parent, as written, and the
# same test recording whether each row built took it.
REUSE_TEST = "if below:  # x_j times"
COUNTED_REUSE_TEST = "if reused.append(bool(below)) or below:  # x_j times"
NO_REUSE = [(REUSE_TEST, "if False:  # x_j times"), ("row = dict(terms)", "row = {k + a: v for k, v in terms}")]

# A shifted row whose lead is free kept as a pivot as it stands, as
# written, and the same test recording each shifted row's verdict.
LAZY_TEST = "if lead not in pivots:"
COUNTED_LAZY_TEST = "if lazy.append(lead not in pivots) or lazy[-1]:"
NO_LAZY = (LAZY_TEST, "if False:")

# Faults in the row reuse, each as edits (the code as written, the
# faulty code): the parent's pivot shifted by x1 whatever the parent,
# and one parent map per degree shared by every product.
REUSE_FAULTS = {
    "shift-by-x1": [("a - below[0]", "x_units[0]")],
    "parents-across-products": [
        ("    pivots = {}  # packed lead ->", "    shared = {}\n    pivots = {}  # packed lead ->"),
        ("reduced = product[6] = {}", "reduced = product[6] = shared.setdefault(degree, {})"),
    ],
}
# The parent maps kept for every degree instead of the last one.
PARENTS_OF_EVERY_DEGREE = ("reduced = product[6] = {}", "reduced = parents")

# Faults in the shifted pivots and the D-skip: a shifted pivot filed
# under its base lead, as if its lead dropped the shift; a shifted pivot
# kept as a parent without its shift (filed so in the pivot map, its
# lead would never cancel and the elimination would not end); and a
# D-skip that fires for every product with a D-parent, also when the
# D-parent's a = 0 row became a pivot.
SHIFT_FAULTS = {
    "lead-drops-shift": [("pivots[lead] = reduced[a] = (base,", "pivots[base_lead] = reduced[a] = (base,")],
    "parent-without-shift": [
        (
            "pivots[lead] = reduced[a] = (base, base_lead, shift)",
            "pivots[lead], reduced[a] = (base, base_lead, shift), (base, base_lead, 0)",
        )
    ],
    "d-skip-on-pivot-heads": [(D_SKIP_TEST, "not d_parents")],
}


def _rebuilt(target, *edits, **names):
    """``target``, a function or class of ``oracle``, rebuilt from its
    source with each (written, faulty) of ``edits`` replaced, seeing
    ``names`` as globals."""
    source = textwrap.dedent(inspect.getsource(target))
    for written, faulty in edits:
        assert source.count(written) == 1, f"{target.__name__} no longer reads {written!r}"
        source = source.replace(written, faulty)
    namespace = dict(vars(oracle), **names)
    exec(compile(source, f"<faulty {target.__name__}>", "exec"), namespace)
    return namespace[target.__name__]


def _faulty_witness(*edits, **names):
    """``truncation_witness`` rebuilt with ``edits``."""
    return _rebuilt(oracle.truncation_witness, *edits, **names)


def _assert_agreement_refuses(monkeypatch, faulty, fld):
    """The agreement check accepts the real witness and refuses
    ``faulty`` on its own, under every form, on GKZ3 at bound 6."""
    ops = _gens(3, *GKZ3, fld=fld)
    for form in GKZ3_FORMS:
        ctx = OrderContext(form)
        report = compute_standard_basis(ctx, ops)
        assert oracle_pipeline_agree(ctx, ops, report, 6).ok
        monkeypatch.setattr(oracle, "truncation_witness", faulty)
        assert not oracle_pipeline_agree(ctx, ops, report, 6).ok, form
        monkeypatch.undo()


@pytest.mark.parametrize("fld", [QQ, PrimeField(7)], ids=lambda f: repr(f))
@pytest.mark.parametrize("fault", sorted(CARRY_FAULTS))
def test_witness_carry_faults_disagree_with_reference(monkeypatch, fld, fault):
    ctx = OrderContext(GKZ3_FORMS[0])
    ops = _gens(3, *GKZ3, fld=fld)
    expected = _reference_witness(ctx, ops, 6)
    real = truncation_witness(ctx, ops, 6)
    assert _seen(real) == expected
    if fault == "reset-pivots":
        faulty = _faulty_witness(CARRY_FAULTS[fault])
    else:
        derived = _rebuilt(oracle.TruncationWitness, CARRY_FAULTS[fault])
        assert _seen(derived(real.degree_bound, real.births, real.packing)) != expected
        faulty = _faulty_witness(*BIRTH_A_DEGREE_LATE)
    assert _seen(faulty(ctx, ops, 6)) != expected
    _assert_agreement_refuses(monkeypatch, faulty, fld)


def _witness_skips(ctx, ops, bound):
    """The skip verdict of every row the witness reaches, in order."""
    skips = []
    _faulty_witness((SKIP_TEST, COUNTED_SKIP_TEST), skips=skips)(ctx, ops, bound)
    return skips


@pytest.mark.parametrize("bound, rows, skipped", [(6, 594, 36), (8, 2422, 225)])
def test_witness_skips_x_shifts_of_zero_rows_on_gkz3(bound, rows, skipped):
    # the rows of a product the D-skip left unmade are never reached
    ctx = OrderContext(GKZ3_FORMS[0])
    ops = _gens(3, *GKZ3)
    skips = _witness_skips(ctx, ops, bound)
    assert (len(skips), sum(skips)) == (rows, skipped)
    # with the D-skip removed every product is made, and the witness is
    # the same; so it is with both skips, the shifted pivots and the
    # reuse removed, when every row is built from its product and reduced
    witness = truncation_witness(ctx, ops, bound)
    assert _faulty_witness(NO_D_SKIP)(ctx, ops, bound) == witness
    unskipped = _faulty_witness((SKIP_TEST, "if False:"), NO_D_SKIP, NO_LAZY, *NO_REUSE)
    assert unskipped(ctx, ops, bound) == witness


@pytest.mark.parametrize("fld", [QQ, PrimeField(7)], ids=lambda f: repr(f))
@pytest.mark.parametrize("form", GKZ3_FORMS, ids=["order", "bernstein", "v_form", "l_form"])
def test_witness_marking_every_row_zero_disagrees(monkeypatch, form, fld):
    # a row that became a pivot, built or shifted, is not kept as a
    # parent, as if it reduced to zero: its x-shifts are skipped although
    # they may hold new leads
    ctx = OrderContext(form)
    ops = _gens(3, *GKZ3, fld=fld)
    faulty = _faulty_witness(
        ("pivots[lead] = reduced[a] = (row,", "pivots[lead] = (row,"),
        ("pivots[lead] = reduced[a] = (base,", "pivots[lead] = (base,"),
    )
    assert _seen(faulty(ctx, ops, 6)) != _reference_witness(ctx, ops, 6)
    report = compute_standard_basis(ctx, ops)
    monkeypatch.setattr(oracle, "truncation_witness", faulty)
    assert not oracle_pipeline_agree(ctx, ops, report, 6).ok


@pytest.mark.parametrize(
    "bound, rows, skipped, products, shifted", [(6, 594, 36, 87, 416), (8, 2422, 225, 184, 1799)]
)
def test_witness_rows_start_from_reduced_x_parents_on_gkz3(bound, rows, skipped, products, shifted):
    # every row built past a = 0 starts from its x-parent's pivot: all
    # rows but the skipped ones and the one a = 0 row of each product
    # made; of those, ``shifted`` have a free lead and become pivots as
    # they stand, with no row built
    ctx = OrderContext(GKZ3_FORMS[0])
    ops = _gens(3, *GKZ3)
    reused, lazy = [], []
    witness = _faulty_witness(
        (REUSE_TEST, COUNTED_REUSE_TEST), (LAZY_TEST, COUNTED_LAZY_TEST), reused=reused, lazy=lazy
    )(ctx, ops, bound)
    assert (len(reused), sum(reused)) == (rows - skipped, rows - skipped - products)
    assert (len(lazy), sum(lazy)) == (rows - skipped - products, shifted)
    assert witness == truncation_witness(ctx, ops, bound)
    # with the reuse or the shifted pivots removed the witness is the
    # same; so it is when the parent maps keep every degree, since the
    # packed x^a of different degrees never collide
    assert _faulty_witness(*NO_REUSE)(ctx, ops, bound) == witness
    assert _faulty_witness(NO_LAZY)(ctx, ops, bound) == witness
    assert _faulty_witness(PARENTS_OF_EVERY_DEGREE)(ctx, ops, bound) == witness


@pytest.mark.parametrize("fld", [QQ, PrimeField(7)], ids=lambda f: repr(f))
@pytest.mark.parametrize("fault", sorted(REUSE_FAULTS))
def test_witness_reuse_faults_disagree_with_reference(monkeypatch, fld, fault):
    ctx = OrderContext(GKZ3_FORMS[0])
    ops = _gens(3, *GKZ3, fld=fld)
    faulty = _faulty_witness(*REUSE_FAULTS[fault])
    assert _seen(faulty(ctx, ops, 6)) != _reference_witness(ctx, ops, 6)
    _assert_agreement_refuses(monkeypatch, faulty, fld)


@pytest.mark.parametrize("fld", [QQ, PrimeField(7)], ids=lambda f: repr(f))
@pytest.mark.parametrize("fault", sorted(SHIFT_FAULTS))
def test_witness_shift_faults_disagree_with_reference(monkeypatch, fld, fault):
    ctx = OrderContext(GKZ3_FORMS[0])
    ops = _gens(3, *GKZ3, fld=fld)
    faulty = _faulty_witness(*SHIFT_FAULTS[fault])
    assert _seen(faulty(ctx, ops, 6)) != _reference_witness(ctx, ops, 6)
    _assert_agreement_refuses(monkeypatch, faulty, fld)


# A shifted pivot filed in the pivot map without its shift: it stands for
# its base row, whose lead is not the one it is filed under, so
# subtracting it never removes the lead of the row it reduces.
PIVOT_WITHOUT_SHIFT = (
    "pivots[lead] = reduced[a] = (base, base_lead, shift)",
    "pivots[lead] = reduced[a] = (base, base_lead, 0)",
)


@pytest.mark.parametrize("fld", [QQ, PrimeField(7)], ids=lambda f: repr(f))
def test_a_pivot_that_keeps_the_lead_raises_instead_of_spinning(fld):
    # without the witness's check that each elimination step removes the
    # lead, this fault loops forever; an alarm turns that into a failure
    faulty = _faulty_witness(PIVOT_WITHOUT_SHIFT)
    ctx = OrderContext(GKZ3_FORMS[0])

    def timed_out(signum, frame):
        raise TimeoutError("the faulty witness spun instead of raising")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(20)
    try:
        with pytest.raises(InvariantViolation, match="did not cancel the lead"):
            faulty(ctx, _gens(3, *GKZ3, fld=fld), 6)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("fld", [QQ, PrimeField(2), PrimeField(32003)], ids=lambda f: repr(f))
def test_witness_skips_and_shifted_pivots_keep_births_across_fields(fld):
    # the four GKZ3 forms at bound 6 and seeded random ideals in one and
    # two variables: the witness matches the reference and has the births
    # of the sweep without skips, shifted pivots or reuse, while the
    # D-skip and the shifted pivots both act
    rng = random.Random(f"witness-skips:{fld!r}")
    cases = [(OrderContext(form), _gens(3, *GKZ3, fld=fld), 6) for form in GKZ3_FORMS]
    for _ in range(12):
        n = rng.randint(1, 2)
        ctx = OrderContext(random_linear_form(rng, n), random_tiebreak(rng, n))
        ops = [random_weyl(rng, n, terms=4, degree=2, coeff=6, fld=fld) for _ in range(rng.randint(1, 3))]
        top = max((graded_degree(homogenize(op)) for op in ops if not op.is_zero()), default=0)
        cases.append((ctx, ops, top + (3 if n == 1 else 2)))
    plain = _faulty_witness((SKIP_TEST, "if False:"), NO_D_SKIP, NO_LAZY, *NO_REUSE)
    d_made, lazy = [], []
    counted = _faulty_witness(
        (D_SKIP_TEST, COUNTED_D_SKIP_TEST), (LAZY_TEST, COUNTED_LAZY_TEST), d_made=d_made, lazy=lazy
    )
    for ctx, ops, bound in cases:
        witness = truncation_witness(ctx, ops, bound)
        assert _seen(witness) == _reference_witness(ctx, ops, bound)
        assert witness.births == plain(ctx, ops, bound).births
        assert counted(ctx, ops, bound) == witness
    assert not all(d_made) and any(lazy)


@pytest.mark.parametrize("fld", [QQ, PrimeField(2)], ids=lambda f: repr(f))
def test_witness_makes_one_product_per_generator_and_beta(monkeypatch, fld):
    # t^k x^a D^beta g = t^k x^a (D^beta g): each row is a key shift of
    # one D^beta g product, made once however many rows share it, and
    # only when no D-parent's a = 0 row reduced to zero or was skipped
    ops = _gens(3, *GKZ3, fld=fld)
    ctx = OrderContext(GKZ3_FORMS[0])
    gens = [homogenize(op) for op in ops]
    jobs = {
        (tuple(sorted(g.terms)), m[4:])
        for g in gens
        for m in _monomials_up_to(7, 8 - graded_degree(g))
    }
    mul = HomogOperator.__mul__
    for witness_fn, count in ((truncation_witness, 184), (_faulty_witness(NO_D_SKIP), 252)):
        made = []

        def counting(self, other):
            made.append((tuple(self.terms), tuple(sorted(other.terms))))
            return mul(self, other)

        monkeypatch.setattr(HomogOperator, "__mul__", counting)
        witness = witness_fn(ctx, ops, 8)
        monkeypatch.undo()
        assert len(made) == len(set(made)) == count
        # every left factor is a bare D^beta of one (generator, beta)
        assert all(len(keys) == 1 and not any(keys[0][:4]) for keys, _ in made)
        assert {(right, keys[0][4:]) for keys, right in made} <= jobs
        assert witness.matrix_rank == 4194
    assert len(jobs) == 252


def test_agreement_on_small_corpus():
    cases = [
        (OrderContext(LinearForm.order(1)), _gens(1, "x1", "D1"), 8),
        (OrderContext(LinearForm.bernstein(1)), _gens(1, "x1^3", "x1*D1 + 2"), 8),
        (OrderContext(LinearForm.v_form(1)), _gens(1, "1 + x1^2*D1"), 8),
        (OrderContext(LinearForm.order(2)), _gens(2, "D1", "D2"), 6),
        (OrderContext(LinearForm.bernstein(2)), _gens(2, "x2", "D2"), 6),
    ]
    for ctx, gens, bound in cases:
        report = compute_standard_basis(ctx, gens)
        agreement = oracle_pipeline_agree(ctx, gens, report, bound)
        assert agreement.ok, agreement.mismatches


def test_agreement_below_the_top_basis_degree():
    # the basis of (x1, D1) reaches degree 2: at bound 1 only the degree-1
    # leads and their multiples are in reach, and still both sides agree
    ctx = OrderContext(LinearForm.order(1))
    gens = _gens(1, "x1", "D1")
    report = compute_standard_basis(ctx, gens)
    assert max(graded_degree(g) for g in report.homog_basis) == 2
    for bound in (1, 2, 3):
        agreement = oracle_pipeline_agree(ctx, gens, report, bound)
        assert agreement.ok, (bound, agreement.mismatches)


@pytest.mark.parametrize("fld", [QQ, PrimeField(7)], ids=lambda f: repr(f))
def test_agreement_catches_wrong_staircases(fld):
    ctx = OrderContext(LinearForm.bernstein(1))
    gens = _gens(1, "x1^3", "x1*D1 + 2", fld=fld)
    report = compute_standard_basis(ctx, gens)
    assert report.staircase == ((1, 1), (2, 0))
    assert oracle_pipeline_agree(ctx, gens, report, 8).ok
    for staircase in (report.staircase[1:], report.staircase[:1], report.staircase + ((1, 0),)):
        agreement = oracle_pipeline_agree(ctx, gens, dataclasses.replace(report, staircase=staircase), 8)
        assert agreement.mismatches == (("staircase is not the projection of the basis leads", staircase),)


@pytest.mark.parametrize("fld", [QQ, PrimeField(7)], ids=lambda f: repr(f))
def test_agreement_catches_a_missing_basis_element(fld):
    # without one element the basis leads miss some witness leads
    ctx = OrderContext(LinearForm.bernstein(1))
    gens = _gens(1, "x1^3", "x1*D1 + 2", fld=fld)
    report = compute_standard_basis(ctx, gens)
    for i in range(len(report.homog_basis)):
        basis = report.homog_basis[:i] + report.homog_basis[i + 1:]
        agreement = oracle_pipeline_agree(ctx, gens, dataclasses.replace(report, homog_basis=basis), 8)
        assert not agreement.ok, i
        assert "witness lead is no multiple of a basis lead" in {kind for kind, _ in agreement.mismatches}


@pytest.mark.parametrize("edit", ["drop-top-lead", "birth-a-degree-early", "add-lead-above-bound"])
def test_agreement_catches_a_witness_off_by_one_lead(monkeypatch, edit):
    ctx = OrderContext(LinearForm.bernstein(1))
    gens = _gens(1, "x1^3", "x1*D1 + 2")
    report = compute_standard_basis(ctx, gens)
    witness = truncation_witness(ctx, gens, 8)
    units, unpack = witness.packing
    births = dict(witness.births)
    graded = lambda m, birth: (birth - sum(unpack(m)),) + unpack(m)
    if edit == "drop-top-lead":  # a plain lead born at the bound leads there only
        top = max(births, key=lambda m: (births[m], m))
        assert births.pop(top) == 8
        expected = ("multiple of a basis lead missing from the witness", graded(top, 8))
    elif edit == "birth-a-degree-early":  # t^2 x1^2, born at degree 4, one degree early
        early = max(births, key=lambda m: births[m] - sum(unpack(m)))
        assert (unpack(early), births[early]) == ((2, 0), 4)
        births[early] = 3
        expected = ("witness lead is no multiple of a basis lead", (1, 2, 0))
    else:  # x1 times a plain lead born at the bound, born at degree 9
        above = max(births, key=lambda m: (births[m], m)) + units[0]
        assert above not in births
        births[above] = 9
        expected = ("witness lead is no multiple of a basis lead", graded(above, 9))
    faulty = dataclasses.replace(witness, births=births)
    monkeypatch.setattr(oracle, "truncation_witness", lambda *args: faulty)
    assert oracle_pipeline_agree(ctx, gens, report, 8).mismatches == (expected,)


def test_fuzz_clean_run():
    report = algebra_fuzz(seed=2024, trials=40)
    assert report.ok
    assert report.checks > 400


def test_fuzz_empty_sizes():
    report = algebra_fuzz(seed=1, trials=0)
    assert report.ok
    assert report.checks == 0
    assert report.failures == []


def test_fuzz_catches_sign_mutation():
    bad = algebra_fuzz(
        seed=2024,
        trials=30,
        ops={"weyl_mul": lambda a, b: (a * b).scale(-1)},
    )
    assert not bad.ok
    # a global sign flip survives associativity; the action homomorphism
    # and homogenization multiplicativity are what notice it
    assert any("homomorphism" in f[0] or "multiplicative" in f[0] for f in bad.failures)
    assert all(len(f) >= 1 for f in bad.failures)


def test_fuzz_catches_dropped_commutator():
    from weylstd import HomogOperator
    from weylstd.weyl import vec_add

    def flat_mul(a, b):
        out = {}
        for k1, c1 in a.terms.items():
            for k2, c2 in b.terms.items():
                k = vec_add(k1, k2)
                out[k] = out.get(k, 0) + c1 * c2
        return HomogOperator(a.n, out)

    bad = algebra_fuzz(seed=7, trials=30, ops={"homog_mul": flat_mul})
    assert not bad.ok


def test_fuzz_catches_broken_action():
    bad = algebra_fuzz(
        seed=5,
        trials=30,
        ops={"apply": lambda op, f: op.apply(f).scale(2)},
    )
    assert not bad.ok


def test_fuzz_catches_wrong_contraction_weight(monkeypatch):
    # the Leibniz kernel reads its contraction weights from a shared table;
    # one wrong weight at v = 1 must not survive the identities
    import weylstd.weyl as weyl

    class OffByOne(weyl._ContractionWeights):
        def __missing__(self, bg):
            row = tuple((v, w + 1 if v == 1 else w) for v, w in super().__missing__(bg))
            self[bg] = row
            return row

    monkeypatch.setattr(weyl, "_WEIGHTS", OffByOne())
    bad = algebra_fuzz(seed=0)
    assert not bad.ok
    assert any("associativity" in f[0] or "homomorphism" in f[0] for f in bad.failures)


def test_fuzz_catches_zero_sums_kept(monkeypatch):
    # add_terms is the one place the arithmetic drops a zero sum; a version
    # that keeps them (but still reduces mod p) must not survive the fuzz
    import weylstd.weyl as weyl

    def keeping(out, pairs, p):
        for key, c in pairs:
            s = out[key] + c if key in out else c
            out[key] = s % p if p else s
        return out

    monkeypatch.setattr(weyl, "add_terms", keeping)
    bad = algebra_fuzz(seed=0)
    assert "no stored zeros" in {f[0] for f in bad.failures}


def test_fuzz_runs_prime_field_trials(monkeypatch):
    # each trial draws its field; an add_terms that never reduces mod p is
    # harmless over QQ, so only the F_p trials can catch it, through field
    # membership of the stored residues
    import weylstd.weyl as weyl

    original = weyl.add_terms
    monkeypatch.setattr(weyl, "add_terms", lambda out, pairs, p: original(out, pairs, 0))
    bad = algebra_fuzz(seed=0)
    assert "no stored zeros" in {f[0] for f in bad.failures}


@pytest.mark.parametrize(
    "corrupt, label",
    [
        (lambda m, c: (m, c - c), "no stored zeros"),
        (lambda m, c: ((m[0] + m[1] + 1, -1) + m[2:], c), "keys are naturals of the right width"),
        (lambda m, c: (m + (0,), c), "keys are naturals of the right width"),
    ],
    ids=["stored-zero", "negative-exponent", "wrong-width"],
)
def test_fuzz_catches_malformed_products(corrupt, label):
    # products are built without re-validation, so the fuzz must notice a
    # malformed one; each corruption keeps the graded degree of the term
    from weylstd import HomogOperator

    def bad_mul(a, b):
        good = a * b
        terms = dict(good.terms)
        if terms:
            m = next(iter(terms))
            key, coeff = corrupt(m, terms.pop(m))
            terms[key] = coeff
        return HomogOperator._trusted(a.n, terms, good.field)

    bad = algebra_fuzz(seed=3, trials=5, ops={"homog_mul": bad_mul})
    assert label in {f[0] for f in bad.failures}


def test_fuzz_reports_inhomogeneous_products():
    # adding t breaks homogeneity; the fuzz must report it, not raise
    from weylstd import HomogOperator

    bad = algebra_fuzz(
        seed=5,
        trials=5,
        ops={"homog_mul": lambda a, b: a * b + HomogOperator.t(a.n, field=a.field)},
    )
    assert "homogeneous elements close under product" in {f[0] for f in bad.failures}


def test_fuzz_is_reproducible():
    a = algebra_fuzz(seed=99, trials=10)
    b = algebra_fuzz(seed=99, trials=10)
    assert a.checks == b.checks
    assert a.failures == b.failures


def test_zero_ideal_agreement():
    ctx = OrderContext(LinearForm.order(1))
    report = compute_standard_basis(ctx, [])
    agreement = oracle_pipeline_agree(ctx, [], report, 4)
    assert agreement.ok
    assert agreement.witness.matrix_rank == 0


def test_fuzz_catches_coefficients_outside_the_field(monkeypatch):
    # a sum that stores an integral Fraction as an int breaks no equality
    # identity (2 == Fraction(2)), only field membership; over F_p the
    # mutant reduces as add_terms does, so only the QQ trials can fail
    import weylstd.weyl as weyl

    def demoting(out, pairs, p):
        for key, c in pairs:
            acc = out.get(key)
            s = c if acc is None else acc + c
            if p:
                s %= p
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = int(s) if s.denominator == 1 else s
        return out

    monkeypatch.setattr(weyl, "add_terms", demoting)
    bad = algebra_fuzz(seed=0)
    assert not bad.ok
    assert {f[0] for f in bad.failures} == {"no stored zeros"}
