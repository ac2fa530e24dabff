"""Core operator arithmetic."""

import random
from fractions import Fraction

import pytest

from weylstd import QQ, FpElement, HomogOperator, Polynomial, PrimeField, WeylOperator
from weylstd.oracle import random_polynomial, random_weyl


def test_defining_relations_one_variable():
    x = WeylOperator.x(1, 1)
    D = WeylOperator.d(1, 1)
    one = WeylOperator.constant(1, 1)
    assert D * x - x * D == one
    assert D * x == x * D + one


def test_normal_ordering_powers():
    x = WeylOperator.x(1, 1)
    D = WeylOperator.d(1, 1)
    # D^2 x^2 = x^2 D^2 + 4 x D + 2
    assert (D**2) * (x**2) == x**2 * D**2 + (x * D).scale(4) + WeylOperator.constant(1, 2)
    # D^3 x^3 = x^3 D^3 + 9 x^2 D^2 + 18 x D + 6
    expected = (
        x**3 * D**3
        + (x**2 * D**2).scale(9)
        + (x * D).scale(18)
        + WeylOperator.constant(1, 6)
    )
    assert (D**3) * (x**3) == expected


def test_cross_variable_generators_commute():
    n = 3
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            xi, xj = WeylOperator.x(n, i), WeylOperator.x(n, j)
            di, dj = WeylOperator.d(n, i), WeylOperator.d(n, j)
            assert xi * xj == xj * xi
            assert di * dj == dj * di
            if i != j:
                assert di * xj == xj * di


def test_graded_relations():
    n = 2
    t2 = HomogOperator.t(n, 2)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            xj = HomogOperator.x(n, j)
            di = HomogOperator.d(n, i)
            comm = di * xj - xj * di
            assert comm == (t2 if i == j else HomogOperator.zero(n))


def test_t_is_central():
    rng = random.Random(0)
    n = 2
    t = HomogOperator.t(n)
    for _ in range(20):
        h = HomogOperator(n, {tuple(rng.randint(0, 3) for _ in range(5)): rng.randint(-4, 4) for _ in range(3)})
        assert t * h == h * t


def test_zero_pruning_and_canonical_terms():
    x = WeylOperator.x(1, 1)
    z = x - x
    assert z.is_zero()
    assert z.terms == {}
    assert z.total_degree() == float("-inf")
    # int coefficients promote to Fraction on construction
    op = WeylOperator(1, {(1, 0): 2})
    assert op.terms[(1, 0)] == Fraction(2)
    assert isinstance(op.terms[(1, 0)], Fraction)
    # zero coefficients never stored
    assert WeylOperator(1, {(1, 0): 0}).is_zero()


def test_bad_exponents_rejected():
    with pytest.raises(ValueError):
        WeylOperator(1, {(1,): 1})
    with pytest.raises(ValueError):
        WeylOperator(1, {(1, -1): 1})
    with pytest.raises(ValueError):
        HomogOperator(1, {(1, 0): 1})
    with pytest.raises(ValueError):
        WeylOperator(0, {})


def test_power_of_zero_and_unit():
    x = WeylOperator.x(1, 1)
    assert x**0 == WeylOperator.constant(1, 1)
    assert WeylOperator.zero(1) ** 0 == WeylOperator.constant(1, 1)
    assert x**1 == x
    with pytest.raises(ValueError):
        x ** (-1)


def test_scalar_multiplication_is_central():
    rng = random.Random(1)
    for _ in range(20):
        a = random_weyl(rng, 2)
        assert a.scale(Fraction(3, 2)) == Fraction(3, 2) * a == a * Fraction(3, 2)
        assert a.scale(0).is_zero()


def test_action_matches_calculus():
    n = 1
    x = WeylOperator.x(n, 1)
    D = WeylOperator.d(n, 1)
    f = Polynomial.x(n, 1, power=3)  # x^3
    assert D.apply(f) == Polynomial.x(n, 1, power=2, coeff=3)
    assert x.apply(f) == Polynomial.x(n, 1, power=4)
    # (xD)(x^3) = 3 x^3
    assert (x * D).apply(f) == Polynomial.x(n, 1, power=3, coeff=3)
    # derivative of a constant
    assert D.apply(Polynomial.constant(n, 5)).is_zero()


def test_action_is_multiplicative_randomized():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 2)
        a = random_weyl(rng, n)
        b = random_weyl(rng, n)
        f = random_polynomial(rng, n)
        assert (a * b).apply(f) == a.apply(b.apply(f))


def test_associativity_randomized():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 2)
        a, b, c = (random_weyl(rng, n) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_ring_axioms_randomized():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 2)
        a, b, c = (random_weyl(rng, n) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a
        assert a - b == -(b - a)


def test_mixed_variable_count_rejected():
    with pytest.raises(ValueError):
        WeylOperator.x(1, 1) * WeylOperator.x(2, 1)
    with pytest.raises(ValueError):
        WeylOperator.x(1, 1) + WeylOperator.x(2, 1)
    with pytest.raises(ValueError):
        WeylOperator.x(2, 1).apply(Polynomial.x(1, 1))


def test_operators_carry_their_field():
    f7 = PrimeField(7)
    # taken from the coefficients, with int coefficients coerced into it
    op = WeylOperator(1, {(1, 0): FpElement(3, 7), (0, 0): 9})
    assert op.field == f7
    assert op.terms[(0, 0)] == FpElement(2, 7)
    assert WeylOperator(1, {(1, 0): 2}).field == QQ
    # inherited by derived values, including empty ones and unit powers
    zero = op - op
    assert zero.is_zero() and zero.field == f7
    assert zero**0 == WeylOperator.constant(1, 1, f7)
    assert (op * op).field == f7
    assert HomogOperator.t(1, field=f7).t_shift(1).field == f7
    assert op.apply(Polynomial.x(1, 1, field=f7)).field == f7
    # an int scalar is read in the field, so a multiple of p scales to zero
    assert op.scale(14).is_zero() and (7 * op).is_zero() and (7 * op).field == f7
    assert op.scale(8) == op


def test_mixed_fields_rejected():
    f7 = PrimeField(7)
    with pytest.raises(ValueError, match="field"):
        WeylOperator.x(1, 1) + WeylOperator.d(1, 1, field=f7)
    with pytest.raises(ValueError, match="field"):
        WeylOperator.x(1, 1) * WeylOperator.x(1, 1, field=f7)
    with pytest.raises(ValueError, match="field"):
        HomogOperator.zero(1) - HomogOperator.t(1, field=f7)
    with pytest.raises(ValueError, match="field"):
        WeylOperator.d(1, 1, field=f7).apply(Polynomial.x(1, 1))
    assert WeylOperator.zero(1) != WeylOperator.zero(1, f7)


def test_repr_is_deterministic():
    op = WeylOperator(2, {(1, 0, 0, 1): Fraction(-1, 2), (0, 0, 0, 0): 3})
    assert str(op) == "-1/2*x1*D2 + 3"
    assert str(WeylOperator.zero(2)) == "0"
    h = HomogOperator(1, {(2, 0, 0): 1, (0, 1, 1): 1})
    assert str(h) == "t^2 + x1*D1"
