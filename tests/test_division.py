"""Division with remainder in the graded algebra."""

import random

import pytest

from weylstd import (
    HomogOperator,
    InvariantViolation,
    LinearForm,
    OrderContext,
    PrimeField,
    RegionPartition,
    WeylOperator,
    divide,
    homogenize,
    leading_term,
    reduces_to_zero,
)
from weylstd.oracle import random_homog, random_homogeneous, random_linear_form, random_tiebreak
from weylstd.weyl import vec_add


def _ctx(n=1):
    return OrderContext(LinearForm.order(n))


def test_region_partition_first_match():
    part = RegionPartition(((0, 1, 0), (0, 0, 1)))
    assert part.classify((0, 1, 0)) == 0
    assert part.classify((0, 1, 1)) == 0  # first match wins over the second region
    assert part.classify((0, 0, 1)) == 1
    assert part.classify((2, 0, 0)) is None


def test_worked_division():
    ctx = _ctx()
    x, D = WeylOperator.x(1, 1), WeylOperator.d(1, 1)
    xh, Dh = homogenize(x), homogenize(D)
    # D*x = x*D + t^2: dividing by D leaves the commutator as remainder
    res = divide(ctx, Dh * xh, [Dh])
    assert res.quotients == (xh,)
    assert res.remainder == HomogOperator.t(1, 2)
    # t^2 is reduced against both generators
    res = divide(ctx, HomogOperator.t(1, 2), [xh, Dh])
    assert all(q.is_zero() for q in res.quotients)
    assert res.remainder == HomogOperator.t(1, 2)
    # a left multiple reduces to zero
    assert reduces_to_zero(ctx, Dh * xh, [xh])
    # but x*D is not a left multiple of x here
    assert not reduces_to_zero(ctx, xh * Dh, [xh])


def test_division_by_nothing_and_zero():
    ctx = _ctx()
    h = homogenize(WeylOperator.x(1, 1))
    res = divide(ctx, h, [])
    assert res.quotients == () and res.remainder == h
    with pytest.raises(ValueError):
        divide(ctx, h, [HomogOperator.zero(1)])
    res = divide(ctx, HomogOperator.zero(1), [h])
    assert res.remainder.is_zero() and res.quotients[0].is_zero()


def test_divisors_from_another_algebra_are_refused():
    # a divisor over F_7 used to fail deep in the arithmetic with a TypeError
    ctx = _ctx()
    h = homogenize(WeylOperator.x(1, 1) * WeylOperator.d(1, 1))
    with pytest.raises(ValueError, match="field mismatch"):
        divide(ctx, h, [homogenize(WeylOperator.d(1, 1, field=PrimeField(7)))])
    with pytest.raises(ValueError, match="variable count mismatch: 1 and 2"):
        divide(ctx, h, [homogenize(WeylOperator.d(2, 1))])


def test_remainder_supports_and_reconstruction_randomized():
    rng = random.Random(11)
    done = 0
    while done < 120:
        n = rng.randint(1, 2)
        ctx = OrderContext(random_linear_form(rng, n), random_tiebreak(rng, n))
        divisors = [
            g
            for g in (
                random_homogeneous(rng, n, rng.randint(0, 3)) for _ in range(rng.randint(1, 3))
            )
            if not g.is_zero()
        ]
        if not divisors:
            continue
        done += 1
        h = random_homog(rng, n)
        res = divide(ctx, h, divisors)  # internal certificates re-checked per call
        total = res.remainder
        for q, d in zip(res.quotients, divisors):
            total = total + q * d
        assert total == h
        part = RegionPartition(tuple(leading_term(ctx, d).exponent for d in divisors))
        assert all(part.classify(m) is None for m in res.remainder.terms)
        for i, q in enumerate(res.quotients):
            lead = leading_term(ctx, divisors[i]).exponent
            assert all(part.classify(vec_add(lead, m)) == i for m in q.terms)
        # deterministic: same inputs, same output
        again = divide(ctx, h, divisors)
        assert again.quotients == res.quotients and again.remainder == res.remainder


def test_left_multiples_of_one_divisor_reduce_to_zero():
    # leading exponents are additive, so a single element is a standard
    # basis of the left ideal it generates
    rng = random.Random(12)
    done = 0
    while done < 60:
        n = rng.randint(1, 2)
        ctx = OrderContext(random_linear_form(rng, n), random_tiebreak(rng, n))
        g = random_homogeneous(rng, n, rng.randint(0, 3))
        q = random_homog(rng, n)
        if g.is_zero() or q.is_zero():
            continue
        done += 1
        assert reduces_to_zero(ctx, q * g, [g])


def test_invariant_violation_is_loud(monkeypatch):
    # sabotage the internal check hook to prove it actually runs
    import weylstd.division as division

    called = {}
    original = division._check_division

    def spy(*args, **kwargs):
        called["yes"] = True
        return original(*args, **kwargs)

    monkeypatch.setattr(division, "_check_division", spy)
    ctx = _ctx()
    divide(ctx, homogenize(WeylOperator.x(1, 1)), [homogenize(WeylOperator.d(1, 1))])
    assert called.get("yes")
    assert issubclass(InvariantViolation, Exception)


@pytest.mark.parametrize(
    "fault, message",
    [
        # the quotient records a coefficient the subtraction did not use
        ("quotient", "reconstruction"),
        # the subtracted multiple does not cancel the term being eliminated
        ("piece", "did not cancel"),
    ],
)
def test_injected_elimination_fault_is_caught(monkeypatch, fault, message):
    import weylstd.division as division

    original = division._eliminate

    def faulty(quotient, m, c, lead, divisor, field):
        piece = original(quotient, m, c, lead, divisor, field)
        if fault == "quotient":
            offset = next(iter(quotient))
            quotient[offset] = quotient[offset] + 1
            return piece
        return piece.scale(2)

    monkeypatch.setattr(division, "_eliminate", faulty)
    ctx = _ctx()
    xh, Dh = homogenize(WeylOperator.x(1, 1)), homogenize(WeylOperator.d(1, 1))
    with pytest.raises(InvariantViolation, match=message):
        divide(ctx, Dh * xh, [Dh])
