"""Brute-force witness and randomized self-checks."""

import dataclasses
import random
from fractions import Fraction

import pytest

from weylstd import (
    QQ,
    HomogOperator,
    LinearForm,
    OracleSizeError,
    OrderContext,
    PrimeField,
    WeylOperator,
    algebra_fuzz,
    compute_standard_basis,
    oracle_pipeline_agree,
    parse_operator,
    staircase_oracle,
    truncation_witness,
)
from weylstd.homogenize import graded_degree, homogenize
from weylstd.oracle import _monomials_up_to, random_linear_form, random_tiebreak, random_weyl


def _gens(n, *texts, fld=QQ):
    return [parse_operator(t, n, fld) for t in texts]


def _reference_witness(ctx, ops, degree_bound):
    """The witness as a plain row-by-row sweep in field arithmetic: every
    (monomial, generator) row is reduced against all pivots so far, its
    lead found by keying every term again on each step, and each pivot
    is stored monic.  Returns (leading exponents, rank)."""
    gens = [homogenize(op) for op in ops if not op.is_zero()]
    pivots = {}
    for g in gens:
        for m in _monomials_up_to(2 * ctx.n + 1, degree_bound - graded_degree(g)):
            row = dict((HomogOperator.monomial(ctx.n, m, field=g.field) * g).terms)
            while row:
                lead = max(row, key=ctx.graded_key)
                hit = pivots.get(lead)
                if hit is None:
                    c = row[lead]
                    pivots[lead] = {k: v / c for k, v in row.items()}
                    break
                c = row[lead]
                for k, v in hit.items():
                    s = row.get(k, 0) - c * v
                    if s == 0:
                        row.pop(k, None)
                    else:
                        row[k] = s
    return frozenset(pivots), len(pivots)


def _assert_witness_matches_reference(ctx, ops, bound):
    witness = truncation_witness(ctx, ops, bound)
    assert (witness.leading_exponents, witness.matrix_rank) == _reference_witness(ctx, ops, bound)


def test_witness_on_whole_algebra_ideal():
    # t^2 = Dx - xD lies in the span at degree 2, so (0,0) projects out
    ctx = OrderContext(LinearForm.order(1))
    stair = staircase_oracle(ctx, _gens(1, "x1", "D1"), 2)
    assert (0, 0) in stair


def test_witness_on_principal_ideal():
    ctx = OrderContext(LinearForm.order(1))
    stair = staircase_oracle(ctx, _gens(1, "x1^2"), 4)
    assert min(stair, key=sum) == (2, 0)
    assert all(m[0] >= 2 for m in stair)


def test_witness_sees_unit_for_hyperplane_form_ideal():
    ctx = OrderContext(LinearForm.v_form(1))
    stair = staircase_oracle(ctx, _gens(1, "1 + x1^2*D1"), 6)
    assert (0, 0) in stair


def test_witness_grows_monotonically():
    ctx = OrderContext(LinearForm.order(1))
    gens = _gens(1, "x1^2", "x1*D1")
    small = truncation_witness(ctx, gens, 4)
    large = truncation_witness(ctx, gens, 6)
    assert small.leading_exponents <= large.leading_exponents
    assert small.matrix_rank <= large.matrix_rank
    assert all(sum(m) <= 4 for m in small.leading_exponents)


def test_witness_preconditions():
    ctx = OrderContext(LinearForm.order(1))
    with pytest.raises(ValueError):
        truncation_witness(ctx, _gens(1, "x1^3"), 2)  # bound below generator degree
    with pytest.raises(OracleSizeError):
        truncation_witness(ctx, _gens(1, "x1"), 8, max_rows=3)
    # the limit counts one row per monomial of degree <= 8 - deg(g) in the
    # 3 variables t, x1, D1: C(10, 3) = 120 for x1 and C(9, 3) = 84 for D1^2
    gens = _gens(1, "x1", "D1^2")
    with pytest.raises(OracleSizeError, match="^204 candidate rows exceed the limit of 203;"):
        truncation_witness(ctx, gens, 8, max_rows=203)
    assert truncation_witness(ctx, gens, 8, max_rows=204).matrix_rank > 0


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


# The GKZ system H_A(beta) for A = [[1,1,1],[0,1,2]], beta = (3/5, 7/11),
# under the order form, Bernstein, v_form and l_form(3, 1, 1).
GKZ3 = ("D1*D3 - D2^2", "x1*D1 + x2*D2 + x3*D3 - 3/5", "x2*D2 + 2*x3*D3 - 7/11")
GKZ3_FORMS = [
    LinearForm.order(3),
    LinearForm.bernstein(3),
    LinearForm.v_form(3),
    LinearForm.l_form(3, 1, 1),
]


@pytest.mark.parametrize("fld", [QQ, PrimeField(2), PrimeField(3), PrimeField(7)], ids=lambda f: repr(f))
@pytest.mark.parametrize("form", GKZ3_FORMS, ids=["order", "bernstein", "v_form", "l_form"])
def test_witness_matches_reference_on_gkz3(form, fld):
    _assert_witness_matches_reference(OrderContext(form), _gens(3, *GKZ3, fld=fld), 6)


@pytest.mark.parametrize("fld", [QQ, PrimeField(2)], ids=lambda f: repr(f))
def test_witness_makes_one_product_per_generator_and_beta(monkeypatch, fld):
    # t^k x^a D^beta g = t^k x^a (D^beta g): each row is a key shift of
    # one D^beta g product, made once however many rows share it
    made = []
    mul = HomogOperator.__mul__

    def counting(self, other):
        made.append((tuple(self.terms), tuple(sorted(other.terms))))
        return mul(self, other)

    monkeypatch.setattr(HomogOperator, "__mul__", counting)
    ops = _gens(3, *GKZ3, fld=fld)
    witness = truncation_witness(OrderContext(GKZ3_FORMS[0]), ops, 8)
    monkeypatch.undo()

    gens = [homogenize(op) for op in ops]
    jobs = {
        (i, m[4:])
        for i, g in enumerate(gens)
        for m in _monomials_up_to(7, 8 - graded_degree(g))
    }
    assert len(made) == len(set(made)) == len(jobs) == 252
    # every left factor is a bare D^beta
    assert all(len(keys) == 1 and not any(keys[0][:4]) for keys, _ in made)
    assert witness.matrix_rank == 4194


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
        assert agreement.window >= 0


def test_agreement_skips_sweep_below_negative_window():
    # the basis of (x1, D1) reaches degree 2, so bound 1 leaves window -1:
    # nothing below it is certified, and nothing may be reported
    ctx = OrderContext(LinearForm.order(1))
    gens = _gens(1, "x1", "D1")
    report = compute_standard_basis(ctx, gens)
    for bound in (1, 2, 3):
        agreement = oracle_pipeline_agree(ctx, gens, report, bound)
        assert agreement.ok, (bound, agreement.mismatches)
        assert agreement.window == bound - 2


@pytest.mark.parametrize("fld", [QQ, PrimeField(7)], ids=lambda f: repr(f))
def test_agreement_catches_wrong_staircases(fld):
    ctx = OrderContext(LinearForm.bernstein(1))
    gens = _gens(1, "x1^3", "x1*D1 + 2", fld=fld)
    report = compute_standard_basis(ctx, gens)
    assert report.staircase == ((1, 1), (2, 0))
    assert oracle_pipeline_agree(ctx, gens, report, 8).ok
    wrong = [
        (report.staircase[1:], "witness exponent outside computed staircase"),
        (report.staircase[:1], "witness exponent outside computed staircase"),
        (report.staircase + ((1, 0),), "staircase membership differs below window"),
    ]
    for staircase, label in wrong:
        agreement = oracle_pipeline_agree(ctx, gens, dataclasses.replace(report, staircase=staircase), 8)
        assert not agreement.ok, staircase
        assert label in {kind for kind, _ in agreement.mismatches}


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
    # that keeps them must not survive the fuzz
    import weylstd.weyl as weyl

    def keeping(out, pairs):
        for key, c in pairs:
            out[key] = out[key] + c if key in out else c
        return out

    monkeypatch.setattr(weyl, "add_terms", keeping)
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
    # identity (2 == Fraction(2)), only field membership
    import weylstd.weyl as weyl

    def demoting(out, pairs):
        for key, c in pairs:
            acc = out.get(key)
            s = c if acc is None else acc + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = int(s) if s.denominator == 1 else s
        return out

    monkeypatch.setattr(weyl, "add_terms", demoting)
    bad = algebra_fuzz(seed=0)
    assert not bad.ok
    assert {f[0] for f in bad.failures} == {"no stored zeros"}
