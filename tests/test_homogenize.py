"""Lifting to the graded algebra and coming back."""

import random

import pytest

from weylstd import (
    HomogOperator,
    LinearForm,
    OrderContext,
    WeylOperator,
    compute_standard_basis,
    dehomogenize,
    graded_degree,
    homogenize,
    is_homogeneous,
    project_exponent,
)
from weylstd.oracle import random_homogeneous, random_weyl


def test_homogenize_pads_to_total_degree():
    # 1 + x^2 D has total degree 3: the constant picks up t^3
    P = WeylOperator(1, {(0, 0): 1, (2, 1): 1})
    h = homogenize(P)
    assert h.terms == {(3, 0, 0): 1, (0, 2, 1): 1}
    assert graded_degree(h) == 3
    assert is_homogeneous(h)
    with pytest.raises(ValueError):
        homogenize(WeylOperator.zero(1))


def test_dehomogenize_merges_t_powers():
    # t^2 x + x collapses to 2x; t^2 x - x collapses to zero
    h = HomogOperator(1, {(2, 1, 0): 1, (0, 1, 0): 1})
    assert dehomogenize(h) == WeylOperator(1, {(1, 0): 2})
    h = HomogOperator(1, {(2, 1, 0): 1, (0, 1, 0): -1})
    assert dehomogenize(h).is_zero()


def test_homogenize_takes_only_plain_operators():
    # a graded operator used to fail with an AttributeError, here and in
    # completion, which homogenizes its inputs
    h = homogenize(WeylOperator.x(1, 1))
    message = "homogenize takes a WeylOperator, not HomogOperator"
    with pytest.raises(ValueError, match=message):
        homogenize(h)
    with pytest.raises(ValueError, match=message):
        compute_standard_basis(OrderContext(LinearForm.order(1)), [h])


def test_dehomogenize_takes_only_graded_operators():
    # x1*D1 + x1 used to come back as "x1 + 1", with keys one entry wide
    op = WeylOperator(1, {(1, 1): 1, (1, 0): 1})
    with pytest.raises(ValueError, match="dehomogenize takes a HomogOperator, not WeylOperator"):
        dehomogenize(op)


def test_graded_degree_requires_homogeneous():
    with pytest.raises(ValueError):
        graded_degree(HomogOperator.zero(1))
    with pytest.raises(ValueError):
        graded_degree(HomogOperator(1, {(1, 0, 0): 1, (0, 0, 0): 1}))
    assert is_homogeneous(HomogOperator.zero(1))
    assert not is_homogeneous(HomogOperator(1, {(1, 0, 0): 1, (0, 0, 0): 1}))


def test_round_trips_randomized():
    rng = random.Random(8)
    done = 0
    while done < 80:
        n = rng.randint(1, 2)
        p = random_weyl(rng, n)
        if p.is_zero():
            continue
        done += 1
        assert dehomogenize(homogenize(p)) == p
        # a homogeneous element is recovered from its t = 1 image by a t power
        d = rng.randint(0, 4)
        g = random_homogeneous(rng, n, d)
        if g.is_zero():
            continue
        down = dehomogenize(g)
        assert not down.is_zero()
        assert homogenize(down).t_shift(d - down.total_degree()) == g


def test_multiplicativity_randomized():
    rng = random.Random(9)
    done = 0
    while done < 80:
        n = rng.randint(1, 2)
        p, q = random_weyl(rng, n), random_weyl(rng, n)
        if p.is_zero() or q.is_zero():
            continue
        done += 1
        assert homogenize(p * q) == homogenize(p) * homogenize(q)


def test_sum_law_randomized():
    rng = random.Random(10)
    done = 0
    while done < 60:
        n = rng.randint(1, 2)
        p, q = random_weyl(rng, n), random_weyl(rng, n)
        s = p + q
        if p.is_zero() or q.is_zero() or s.is_zero():
            continue
        done += 1
        b, c, d = p.total_degree(), q.total_degree(), s.total_degree()
        e = max(b, c)
        assert homogenize(s).t_shift(e - d) == homogenize(p).t_shift(e - b) + homogenize(q).t_shift(e - c)


def test_projection_drops_t():
    assert project_exponent((2, 1, 0)) == (1, 0)
    assert project_exponent((0, 3, 1, 4, 1)) == (3, 1, 4, 1)
