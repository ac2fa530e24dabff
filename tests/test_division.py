"""Division with remainder in the graded algebra."""

import random
from fractions import Fraction

import pytest

from weylstd import (
    QQ,
    HomogOperator,
    InvariantViolation,
    LinearForm,
    OrderContext,
    PrimeField,
    WeylOperator,
    divide,
    homogenize,
    leading_term,
    parse_operator,
    region,
)
import weylstd.division as division
from weylstd.scalars import RationalField
from weylstd.oracle import random_homog, random_homogeneous, random_linear_form, random_tiebreak
from weylstd.weyl import vec_add


def _ctx(n=1):
    return OrderContext(LinearForm.order(n))


def test_region_partition_first_match():
    leads = ((0, 1, 0), (0, 0, 1))
    assert region(leads, (0, 1, 0)) == 0
    assert region(leads, (0, 1, 1)) == 0  # first match wins over the second region
    assert region(leads, (0, 0, 1)) == 1
    assert region(leads, (2, 0, 0)) is None


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
    assert divide(ctx, Dh * xh, [xh]).remainder.is_zero()
    # but x*D is not a left multiple of x here
    assert not divide(ctx, xh * Dh, [xh]).remainder.is_zero()
    # a divisor with denominators: the fraction-free division scales its
    # working terms by 2 and turns each coefficient back into a Fraction
    ctx, h, d = _fractional_division()
    res = divide(ctx, h, [d])
    assert res.quotients == (HomogOperator.x(1, 1, Fraction(1, 3)),)
    assert res.remainder == HomogOperator.monomial(1, (2, 1, 0), Fraction(1, 2))


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


def test_divide_takes_only_graded_operators():
    # a plain dividend used to end in "division reconstruction failed",
    # an InvariantViolation that blamed the library for the caller's input
    ctx = _ctx()
    x, D = WeylOperator.x(1, 1), WeylOperator.d(1, 1)
    message = "divide takes HomogOperators, not WeylOperator"
    with pytest.raises(ValueError, match=message):
        divide(ctx, D * x, [homogenize(D)])
    with pytest.raises(ValueError, match=message):
        divide(ctx, homogenize(D * x), [homogenize(x), D])
    with pytest.raises(ValueError, match=message):
        divide(ctx, D * x, [])


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
        leads = [leading_term(ctx, d).exponent for d in divisors]
        assert all(region(leads, m) is None for m in res.remainder.terms)
        for i, q in enumerate(res.quotients):
            assert all(region(leads, vec_add(leads[i], m)) == i for m in q.terms)
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
        assert divide(ctx, q * g, [g]).remainder.is_zero()


def test_invariant_violation_is_loud(monkeypatch):
    # sabotage the internal check hook to prove it actually runs
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
    original = division._eliminate

    def faulty(quotient, offset, f, form, den, n, field):
        piece = original(quotient, offset, f, form, den, n, field)
        if fault == "quotient":
            quotient[offset] = quotient[offset] + 1
            return piece
        return {k: 2 * v for k, v in piece.items()}

    monkeypatch.setattr(division, "_eliminate", faulty)
    ctx = _ctx()
    xh, Dh = homogenize(WeylOperator.x(1, 1)), homogenize(WeylOperator.d(1, 1))
    with pytest.raises(InvariantViolation, match=message):
        divide(ctx, Dh * xh, [Dh])


def _fractional_division():
    # (x1^2*D1 + 2/3*x1) / (3*x1*D1 + 1/2): quotient 1/3*x1, remainder 1/2*x1*t^2
    h, d = (homogenize(parse_operator(text, 1)) for text in ("x1^2*D1 + 2/3*x1", "3*x1*D1 + 1/2"))
    return _ctx(), h, d


def test_injected_content_factor_fault_is_caught(monkeypatch):
    # An integer form that drops its content factor, T = the numerators
    # instead of d * the coefficients, divides the wrong operators.  With
    # its check made a no-op the division returns a wrong result; with
    # the check it refuses.
    ctx, h, d = _fractional_division()
    right = divide(ctx, h, [d])
    original = RationalField.integer_form

    def without_content(self, terms):
        den, _ = original(self, terms)
        return den, {k: c.numerator for k, c in terms.items()}

    monkeypatch.setattr(RationalField, "integer_form", without_content)
    with monkeypatch.context() as unchecked:
        unchecked.setattr(division, "_check_division", lambda *args: None)
        ctx, h, d = _fractional_division()
        assert divide(ctx, h, [d]) != right
    ctx, h, d = _fractional_division()
    with pytest.raises(InvariantViolation, match="division reconstruction failed"):
        divide(ctx, h, [d])


def test_integer_form_is_cached_per_operator(monkeypatch):
    _, h, d = _fractional_division()
    form = d.integer_form()
    assert form == (2, {(0, 1, 1): 6, (2, 0, 0): 1})
    assert d.integer_form() is form
    assert h.integer_form() == (3, {(0, 2, 1): 3, (2, 1, 0): 2})
    # values the arithmetic makes start without one (the division's check
    # reads the forms of its output, so it is a no-op here)
    monkeypatch.setattr(division, "_check_division", lambda *args: None)
    out = divide(_ctx(), h, [d])
    made = [d * d, d + h, d - h, -d, d.scale(3), d.t_shift(1), out.remainder, *out.quotients]
    assert all(op._int is None for op in made)
    # over F_p the form is the term map itself
    g = homogenize(parse_operator("3*x1*D1 + 1/2", 1, PrimeField(7)))
    assert g.integer_form() == (1, g.terms) and g.integer_form()[1] is g.terms
    assert QQ.integer_form({}) == (1, {})
