"""Weight forms, tiebreaks, leading terms."""

import random

import pytest

from weylstd import (
    QQ,
    HomogOperator,
    LinearForm,
    OrderContext,
    PrimeField,
    TieBreak,
    WeylOperator,
    homogenize,
    is_graded_commutative,
    leading_term,
    parse_operator,
    principal_symbol,
)
from weylstd.oracle import random_linear_form, random_tiebreak, random_weyl


def test_admissibility_enforced():
    LinearForm((0,), (0,))  # p + q = 0 is allowed
    LinearForm((-1,), (1,))
    with pytest.raises(ValueError):
        LinearForm((-1,), (0,))
    with pytest.raises(ValueError):
        LinearForm((0, 0), (1,))
    with pytest.raises(ValueError):
        LinearForm((), ())


def test_standard_forms():
    order = LinearForm.order(2)
    assert order.value((5, 7, 1, 2)) == 3  # |beta| only
    bern = LinearForm.bernstein(2)
    assert bern.value((5, 7, 1, 2)) == 15  # |alpha| + |beta|
    v = LinearForm.v_form(2)
    assert v.value((5, 7, 1, 2)) == 2 - 7  # b_n - a_n
    # mixed form: r*|beta| + s*(b_n - a_n)
    l11 = LinearForm.l_form(2, 1, 1)
    assert l11.p == (0, -1) and l11.q == (1, 2)
    assert l11.value((0, 1, 1, 1)) == 1 + 2 - 1


def test_weight_of_operator():
    form = LinearForm.v_form(1)
    P = WeylOperator(1, {(0, 0): 1, (2, 1): 1})  # 1 + x^2 D
    assert form.weight(P) == 0
    assert form.weight(WeylOperator.zero(1)) == float("-inf")


def test_tiebreak_lex():
    tb = TieBreak("lex", (0, 1, 2))
    # variables v0 < v1 < v2; lex compares the largest variable first
    assert tb.key((1, 0, 0)) < tb.key((0, 1, 0)) < tb.key((0, 0, 1))
    assert tb.key((0, 0, 1)) > tb.key((5, 5, 0))


def test_tiebreak_deglex_and_degrevlex_disagree():
    # classic example: with v0 < v1 < v2, compare v2*v0 against v1^2
    u, w = (1, 0, 1), (0, 2, 0)
    deglex = TieBreak("deglex", (0, 1, 2))
    degrevlex = TieBreak("degrevlex", (0, 1, 2))
    assert deglex.key(u) > deglex.key(w)
    assert degrevlex.key(u) < degrevlex.key(w)


def test_tiebreak_permutation_changes_order():
    a, b = (1, 0), (0, 1)
    assert TieBreak("lex", (0, 1)).key(a) < TieBreak("lex", (0, 1)).key(b)
    assert TieBreak("lex", (1, 0)).key(a) > TieBreak("lex", (1, 0)).key(b)
    with pytest.raises(ValueError):
        TieBreak("lex", (0, 0))
    with pytest.raises(ValueError):
        TieBreak("grlex", (0, 1))


def test_keys_are_injective_and_translation_invariant():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 3)
        ctx = OrderContext(random_linear_form(rng, n), random_tiebreak(rng, n))
        u = tuple(rng.randint(0, 4) for _ in range(2 * n))
        v = tuple(rng.randint(0, 4) for _ in range(2 * n))
        w = tuple(rng.randint(0, 4) for _ in range(2 * n))
        assert (ctx.weighted_key(u) == ctx.weighted_key(v)) == (u == v)
        shifted_u = ctx.weighted_key(tuple(a + s for a, s in zip(u, w)))
        shifted_v = ctx.weighted_key(tuple(a + s for a, s in zip(v, w)))
        assert (ctx.weighted_key(u) < ctx.weighted_key(v)) == (shifted_u < shifted_v)
        assert (ctx.weighted_key(u) == ctx.weighted_key(v)) == (shifted_u == shifted_v)


def test_graded_key_is_a_well_order_on_bounded_degree():
    rng = random.Random(6)
    ctx = OrderContext(random_linear_form(rng, 2), random_tiebreak(rng, 2))
    exps = [
        (k, a1, a2, b1, b2)
        for k in range(3)
        for a1 in range(3)
        for a2 in range(3)
        for b1 in range(3)
        for b2 in range(3)
    ]
    keys = [ctx.graded_key(m) for m in exps]
    assert len(set(keys)) == len(exps)  # total
    bottom = min(exps, key=ctx.graded_key)
    assert bottom == (0, 0, 0, 0, 0)  # unit monomial is minimal
    # degree dominates
    assert ctx.graded_key((2, 0, 0, 0, 0)) > ctx.graded_key((0, 0, 1, 0, 0))


def test_weighted_order_need_not_be_well_founded():
    # V-form weights make x strictly negative: an infinite descending chain
    ctx = OrderContext(LinearForm.v_form(1))
    keys = [ctx.weighted_key((a, 0)) for a in range(6)]
    assert keys == sorted(keys, reverse=True)


def test_leading_term_dispatch():
    ctx = OrderContext(LinearForm.order(1))
    P = WeylOperator(1, {(3, 2): 2, (0, 5): 7})
    lt = leading_term(ctx, P)
    assert lt.exponent == (0, 5) and lt.coefficient == 7
    from weylstd import HomogOperator, homogenize

    h = homogenize(P)
    assert leading_term(ctx, h).exponent == (0, 0, 5)
    with pytest.raises(ValueError):
        leading_term(ctx, WeylOperator.zero(1))
    with pytest.raises(ValueError):
        leading_term(ctx, HomogOperator.zero(1))


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "F7"])
@pytest.mark.parametrize(
    "text, ctx_a, ctx_b",
    [
        # x1^3*D1^2 leads under the order form, D1 under the hyperplane form
        ("x1^3*D1^2 + D1", OrderContext(LinearForm.order(1)), OrderContext(LinearForm.v_form(1))),
        # zero weights: lex puts D1 above x1^5, degrevlex the other way round
        (
            "x1^5 + D1",
            OrderContext(LinearForm((0,), (0,)), TieBreak("lex", (0, 1))),
            OrderContext(LinearForm((0,), (0,)), TieBreak("degrevlex", (0, 1))),
        ),
    ],
    ids=["order-v_form", "lex-degrevlex"],
)
def test_leading_term_memo_is_per_context(field, text, ctx_a, ctx_b):
    op = parse_operator(text, 1, field)
    hop = homogenize(op)

    def fresh(ctx, target):
        key = ctx.graded_key if isinstance(target, HomogOperator) else ctx.weighted_key
        m = max(target.terms, key=key)
        return (m, target.terms[m])

    for target in (op, hop):
        assert fresh(ctx_a, target) != fresh(ctx_b, target)
    for ctx in (ctx_a, ctx_b, ctx_a, ctx_a, ctx_b, ctx_b, ctx_a):
        for target in (op, hop):
            assert tuple(leading_term(ctx, target)) == fresh(ctx, target)


def test_principal_symbol_examples():
    # the order form keeps only highest D-degree terms
    ctx = OrderContext(LinearForm.order(1))
    P = WeylOperator(1, {(0, 0): 1, (2, 1): 1})  # 1 + x^2 D
    assert principal_symbol(ctx, P) == WeylOperator(1, {(2, 1): 1})
    # the hyperplane form drops that term instead: weights 0 vs -1
    vctx = OrderContext(LinearForm.v_form(1))
    assert principal_symbol(vctx, P) == WeylOperator.constant(1, 1)
    with pytest.raises(ValueError):
        principal_symbol(ctx, WeylOperator.zero(1))


def test_symbol_multiplicativity_randomized():
    rng = random.Random(7)
    done = 0
    while done < 60:
        n = rng.randint(1, 2)
        ctx = OrderContext(random_linear_form(rng, n), random_tiebreak(rng, n))
        p, q = random_weyl(rng, n), random_weyl(rng, n)
        if p.is_zero() or q.is_zero():
            continue
        done += 1
        prod = p * q
        assert ctx.form.weight(prod) == ctx.form.weight(p) + ctx.form.weight(q)
        sp, sq = principal_symbol(ctx, p), principal_symbol(ctx, q)
        assert principal_symbol(ctx, prod) == principal_symbol(ctx, sp * sq)


def test_graded_commutativity_predicate():
    assert is_graded_commutative(LinearForm.bernstein(3))
    assert is_graded_commutative(LinearForm.order(2))
    assert not is_graded_commutative(LinearForm.v_form(2))
    assert not is_graded_commutative(LinearForm((0,), (0,)))


def test_compare_graded_consistency():
    ctx = OrderContext(LinearForm.order(1))
    assert ctx.graded_key((0, 0, 0)) < ctx.graded_key((1, 0, 0))
    assert ctx.graded_key((1, 0, 0)) < ctx.graded_key((0, 1, 0))  # then weight and tiebreak
    assert ctx.graded_key((0, 0, 1)) < ctx.graded_key((2, 0, 0))  # degree decides first


def test_context_validates_tiebreak_width():
    with pytest.raises(ValueError):
        OrderContext(LinearForm.order(2), TieBreak.default(1))
