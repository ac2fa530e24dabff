"""Brute-force witness and randomized self-checks."""

import random
from fractions import Fraction

import pytest

from weylstd import (
    FuzzSizes,
    LinearForm,
    OracleSizeError,
    OrderContext,
    WeylOperator,
    algebra_fuzz,
    compute_standard_basis,
    oracle_pipeline_agree,
    parse_operator,
    staircase_oracle,
    truncation_witness,
)


def _gens(n, *texts):
    return [parse_operator(t, n) for t in texts]


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


def test_fuzz_clean_run():
    report = algebra_fuzz(seed=2024, sizes=FuzzSizes(trials=40))
    assert report.ok
    assert report.checks > 400


def test_fuzz_empty_sizes():
    report = algebra_fuzz(seed=1, sizes=FuzzSizes(trials=0))
    assert report.ok
    assert report.checks == 0
    assert report.failures == []


def test_fuzz_catches_sign_mutation():
    bad = algebra_fuzz(
        seed=2024,
        sizes=FuzzSizes(trials=30),
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

    bad = algebra_fuzz(seed=7, sizes=FuzzSizes(trials=30), ops={"homog_mul": flat_mul})
    assert not bad.ok


def test_fuzz_catches_broken_action():
    bad = algebra_fuzz(
        seed=5,
        sizes=FuzzSizes(trials=30),
        ops={"apply": lambda op, f: op.apply(f).scale(2)},
    )
    assert not bad.ok


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

    bad = algebra_fuzz(seed=3, sizes=FuzzSizes(trials=5), ops={"homog_mul": bad_mul})
    assert label in {f[0] for f in bad.failures}


def test_fuzz_is_reproducible():
    a = algebra_fuzz(seed=99, sizes=FuzzSizes(trials=10))
    b = algebra_fuzz(seed=99, sizes=FuzzSizes(trials=10))
    assert a.checks == b.checks
    assert a.failures == b.failures


def test_zero_ideal_agreement():
    ctx = OrderContext(LinearForm.order(1))
    report = compute_standard_basis(ctx, [])
    agreement = oracle_pipeline_agree(ctx, [], report, 4)
    assert agreement.ok
    assert agreement.witness.matrix_rank == 0
