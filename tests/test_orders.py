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
    buchberger,
    compute_standard_basis,
    divide,
    format_operator,
    homogenize,
    is_graded_commutative,
    leading_term,
    operator_to_obj,
    parse_operator,
    principal_symbol,
    truncation_witness,
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


def test_weights_must_be_integers():
    # a float weight is refused, not truncated to a different form
    with pytest.raises(ValueError, match="integers"):
        LinearForm((1.5,), (0,))
    with pytest.raises(ValueError, match="integers"):
        LinearForm((0,), (0.7,))
    # nor is a bool an integer weight, as it is no exponent
    with pytest.raises(ValueError, match="integers"):
        LinearForm((True,), (0,))


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
    # one position: no context has n = 1/2, and the key's picker needs two
    with pytest.raises(ValueError, match="at least two"):
        TieBreak("lex", (0,))


def _reference_weighted_key(ctx, m):
    """The weighted key as written before keys were built per context."""
    value = sum(w * e for w, e in zip(ctx.form.p + ctx.form.q, m))
    w = tuple(m[i] for i in ctx.tiebreak.perm)
    if ctx.tiebreak.kind == "lex":
        tie = tuple(reversed(w))
    elif ctx.tiebreak.kind == "deglex":
        tie = (sum(w),) + tuple(reversed(w))
    else:
        tie = (sum(w),) + tuple(-e for e in w)
    return (value,) + tie


def test_keys_equal_the_reference_formulas():
    rng = random.Random(41)
    for n in range(1, 5):
        for kind in ("lex", "deglex", "degrevlex"):
            for _ in range(10):
                perm = list(range(2 * n))
                rng.shuffle(perm)
                ctx = OrderContext(random_linear_form(rng, n), TieBreak(kind, tuple(perm)))
                for _ in range(20):
                    m = tuple(rng.randint(0, 6) for _ in range(2 * n + 1))
                    assert ctx.weighted_key(m[1:]) == _reference_weighted_key(ctx, m[1:])
                    assert ctx.graded_key(m) == (sum(m),) + _reference_weighted_key(ctx, m[1:])


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


def test_principal_symbol_refuses_graded_operators():
    ctx = OrderContext(LinearForm.order(1))
    graded = homogenize(parse_operator("x1*D1 + 1", 1))
    with pytest.raises(ValueError, match="plain operators.*dehomogenize"):
        principal_symbol(ctx, graded)


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


# every entry point where an order context meets operators, called with
# the context and plain operators of one n
DOORS = {
    "leading_term": lambda ctx, ops: leading_term(ctx, ops[0]),
    "principal_symbol": lambda ctx, ops: principal_symbol(ctx, ops[0]),
    "divide": lambda ctx, ops: divide(ctx, homogenize(ops[0]), [homogenize(ops[1])]),
    "buchberger": lambda ctx, ops: buchberger(ctx, [homogenize(op) for op in ops]),
    "compute_standard_basis": lambda ctx, ops: compute_standard_basis(ctx, ops),
    "truncation_witness": lambda ctx, ops: truncation_witness(ctx, ops, 6),
    "format_operator": lambda ctx, ops: format_operator(ops[0], ctx),
    "operator_to_obj": lambda ctx, ops: operator_to_obj(homogenize(ops[0]), ctx),
}


@pytest.mark.parametrize("door", sorted(DOORS))
@pytest.mark.parametrize("ctx_n, op_n", [(1, 2), (2, 1)])
def test_context_of_another_n_is_refused(door, ctx_n, op_n):
    # unchecked, n = 1 against n = 2 keys read a garbled order (a certified
    # but wrong staircase), and the other way round they index past the key
    texts = ("x2^5 + D2", "x1*D1 - 1") if op_n == 2 else ("x1^5 + D1", "x1*D1 - 1")
    ops = [parse_operator(t, op_n) for t in texts]
    with pytest.raises(ValueError, match=f"context has n = {ctx_n} but the operator has n = {op_n}"):
        DOORS[door](OrderContext(LinearForm.order(ctx_n)), ops)
