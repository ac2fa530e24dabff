"""Core operator arithmetic."""

import random
from fractions import Fraction

import pytest

from weylstd import (
    QQ,
    FpElement,
    HomogOperator,
    Polynomial,
    PrimeField,
    WeylOperator,
    homogenize,
    parse_operator,
)
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
    # a bool is not a natural exponent
    with pytest.raises(ValueError):
        WeylOperator(1, {(True, False): 3})
    with pytest.raises(ValueError):
        HomogOperator(1, {(0, 1, True): 3})


def test_power_of_zero_and_unit():
    x = WeylOperator.x(1, 1)
    assert x**0 == WeylOperator.constant(1, 1)
    assert WeylOperator.zero(1) ** 0 == WeylOperator.constant(1, 1)
    assert x**1 == x
    with pytest.raises(ValueError):
        x ** (-1)


def test_powers_and_t_shifts_take_only_natural_ints():
    # a float t shift used to store float exponents (printed t^2.5), and
    # a bool power passed as 1
    x, D = WeylOperator.x(1, 1), WeylOperator.d(1, 1)
    for bad in (0.5, True, -1):
        with pytest.raises(ValueError, match="t powers must be natural numbers"):
            HomogOperator.t(1, 2).t_shift(bad)
        with pytest.raises(ValueError, match="operator powers must be natural numbers"):
            (x + D) ** bad
    assert HomogOperator.t(1, 2).t_shift(1) == HomogOperator.t(1, 3)


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


@pytest.mark.parametrize(
    "fld", [pytest.param(QQ, id="QQ"), pytest.param(PrimeField(7), id="F_7")]
)
def test_action_is_multiplicative_randomized(fld):
    # act(ab, f) = act(a, act(b, f)) holds in every characteristic
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 2)
        a = random_weyl(rng, n, fld=fld)
        b = random_weyl(rng, n, fld=fld)
        f = random_polynomial(rng, n, fld=fld)
        assert f.field == fld
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


@pytest.mark.parametrize("p", [5, 7])
def test_vanishing_contraction_weights_mod_p(p):
    # C(p, v) and p! vanish mod p, so in F_p most contractions of D1^p
    # against x1^p have weight zero: the product drops those terms
    fld = PrimeField(p)
    pairs = [(f"D1^{p}", f"x1^{p}"), (f"D1^{p}*D2^2", f"x1^{p}*x2^3")]
    for left, right in pairs:
        for lift in (lambda op: op, homogenize):
            product = lift(parse_operator(left, 2, fld)) * lift(parse_operator(right, 2, fld))
            rational = lift(parse_operator(left, 2)) * lift(parse_operator(right, 2))
            reduced = {
                key: fld.from_int(c.numerator, c.denominator)
                for key, c in rational.terms.items()
            }
            assert len(reduced) > len(product.terms)
            assert product.terms == {key: c for key, c in reduced.items() if c != 0}
            assert all(c != 0 for c in product.terms.values())


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


FOREIGN_SCALARS = {
    "QQ": [1.5, True, FpElement(2, 7)],
    "F_7": [0.5, True, Fraction(1, 2), FpElement(2, 11)],
}


@pytest.mark.parametrize("name, fld", [("QQ", QQ), ("F_7", PrimeField(7))])
@pytest.mark.parametrize("cls", [WeylOperator, HomogOperator, Polynomial])
def test_every_scalar_door_rejects_foreign_values(cls, name, fld):
    one = cls.constant(1, 1, fld)
    for c in FOREIGN_SCALARS[name]:
        with pytest.raises(ValueError, match="is not in"):
            cls(1, {(0,) * cls._width(1): c}, fld)
        with pytest.raises(ValueError, match="is not in"):
            one.scale(c)
        with pytest.raises(ValueError, match="is not in"):
            c * one
        if cls is not Polynomial:  # a polynomial has no right product
            with pytest.raises(ValueError, match="is not in"):
                one * c
    # the field taken from the coefficients holds every one of them
    with pytest.raises(ValueError, match="is not in"):
        cls(1, {(0,) * cls._width(1): 1.5})
    with pytest.raises(ValueError, match="Fraction is not in PrimeField"):
        cls(1, {(0,) * cls._width(1): FpElement(2, 7), (1,) * cls._width(1): Fraction(1, 2)})
