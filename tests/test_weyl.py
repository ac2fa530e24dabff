"""Core operator arithmetic."""

import random
from fractions import Fraction

import pytest

from weylstd import (
    QQ,
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


def test_powers_square_and_multiply(monkeypatch):
    # x1^1000 takes 9 squarings and 5 more products, not 999 products
    calls = []
    mul = WeylOperator.__mul__

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(WeylOperator, "__mul__", counting)
    assert WeylOperator.x(1, 1) ** 1000 == WeylOperator.monomial(1, (1000, 0))
    assert len(calls) <= 20


@pytest.mark.parametrize("fld", [QQ, PrimeField(7)], ids=["QQ", "F_7"])
@pytest.mark.parametrize("cls", [WeylOperator, HomogOperator])
def test_powers_equal_repeated_products(cls, fld):
    a = cls.x(1, 1, field=fld) + cls.d(1, 1, field=fld)
    acc = cls.constant(1, fld.one(), fld)
    for k in range(13):
        assert a**k == acc
        acc = acc * a


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


def test_apply_takes_only_polynomials():
    # an operator of the same n used to pass the algebra check, and its
    # keys were then read as polynomial exponents: D1 applied to the graded
    # x1 gave 0, and applied to x1*D1 gave 1
    D1 = WeylOperator.d(1, 1)
    for f in (HomogOperator.x(1, 1), WeylOperator.x(1, 1) * D1, D1):
        with pytest.raises(ValueError, match=f"apply takes a Polynomial, not {type(f).__name__}"):
            D1.apply(f)
    assert D1.apply(Polynomial.x(1, 1)) == Polynomial.constant(1, 1)


def test_operators_carry_their_field():
    f7 = PrimeField(7)
    # given, never read off the coefficients: an int is a residue in F_7
    # and a rational without field=
    op = WeylOperator(1, {(1, 0): 3, (0, 0): 9}, f7)
    assert op.field == f7
    assert op.terms == {(1, 0): 3, (0, 0): 2}
    assert WeylOperator(1, {(1, 0): 3, (0, 0): 9}).field == QQ
    # the field's one is the int 1, which names no field
    assert WeylOperator.x(1, 1, f7.one()).field == QQ
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


@pytest.mark.parametrize("p", [2, 3, 7])
def test_pth_powers_are_central_only_in_characteristic_p(p):
    # [D_i, x_i^p] = p*x_i^(p-1), times t^2 in the graded algebra, and
    # likewise [D_i^p, x_i]: over F_p the p-th powers of the generators
    # commute with every generator, over QQ they do not
    fld = PrimeField(p)
    for lift in (lambda op: op, homogenize):
        gens = [lift(parse_operator(v, 2, fld)) for v in ("x1", "x2", "D1", "D2")]
        for power in (g**p for g in gens):
            assert all(g * power == power * g for g in gens)
        x1, D1 = (lift(parse_operator(v, 2)) for v in ("x1", "D1"))
        assert D1 * x1**p != x1**p * D1


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
    "QQ": [1.5, True, "2"],
    "F_7": [0.5, True, Fraction(1, 2), Fraction(2)],
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
    # without field= a value is over QQ, whatever its coefficients
    with pytest.raises(ValueError, match="float is not in RationalField"):
        cls(1, {(0,) * cls._width(1): 1.5})
    assert cls(1, {(0,) * cls._width(1): 2}).terms == {(0,) * cls._width(1): Fraction(2)}


def _flat_key(cls, n, position, power=1):
    key = [0] * cls._width(n)
    key[position] = power
    return tuple(key)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("cls", [WeylOperator, HomogOperator, Polynomial])
def test_variable_rule_refuses_indices_outside_one_to_n(cls, n):
    # x(1, 0) used to give D1 for a WeylOperator, t for a HomogOperator and
    # x1 for a Polynomial, and x(1, 5) an IndexError
    for i in (0, n + 1, -1, True):
        with pytest.raises(ValueError, match="has no variable"):
            cls.x(n, i)
        with pytest.raises(ValueError, match="has no variable"):
            cls.d(n, i)
    if cls is Polynomial:
        with pytest.raises(ValueError, match="Polynomial has no variable D_1"):
            Polynomial.d(n, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generators_sit_at_their_flat_positions(n):
    # x_i at t + i - 1 and D_i at t + n + i - 1, with t = 1 in graded keys
    for i in range(1, n + 1):
        for cls in (WeylOperator, HomogOperator):
            t = cls._SHAPE[1]
            assert cls.x(n, i, 3).terms == {_flat_key(cls, n, t + i - 1): 3}
            assert cls.d(n, i, 3).terms == {_flat_key(cls, n, t + n + i - 1): 3}
        assert Polynomial.x(n, i, power=4, coeff=3).terms == {_flat_key(Polynomial, n, i - 1, 4): 3}
    assert HomogOperator.t(n, 5, 3).terms == {_flat_key(HomogOperator, n, 0, 5): 3}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_parsed_symbols_are_the_generators(n):
    for i in range(1, n + 1):
        assert parse_operator(f"x{i}", n) == WeylOperator.x(n, i)
        for name in (f"D{i}", f"d{i}"):
            assert parse_operator(name, n) == WeylOperator.d(n, i)
        assert parse_operator(f"D{i}", n, PrimeField(7)) == WeylOperator.d(n, i, field=PrimeField(7))
