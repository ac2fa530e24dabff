"""Expression grammar, printer, and their round trip."""

import random
from fractions import Fraction

import pytest

from weylstd import (
    FpElement,
    LinearForm,
    OrderContext,
    ParseError,
    Polynomial,
    PrimeField,
    TieBreak,
    WeylOperator,
    format_operator,
    homogenize,
    operator_to_obj,
    parse_operator,
)
from weylstd.oracle import random_weyl


def test_commutation_through_parser():
    assert parse_operator("D1*x1", 1) == WeylOperator(1, {(1, 1): 1, (0, 0): 1})
    assert parse_operator("x1^2*D1 + 1", 1) == WeylOperator(1, {(2, 1): 1, (0, 0): 1})
    assert parse_operator("D1*x1 - x1*D1", 1) == WeylOperator.constant(1, 1)


def test_precedence_and_associativity():
    # ^ binds tighter than *, * tighter than +/-
    assert parse_operator("2*x1^2", 1) == WeylOperator(1, {(2, 0): 2})
    assert parse_operator("-x1^2", 1) == WeylOperator(1, {(2, 0): -1})
    assert parse_operator("(D1*x1)^2", 1) == parse_operator("D1*x1", 1) ** 2
    # products evaluate left to right: D1*x1*D1 = (D1*x1)*D1
    both = parse_operator("D1*x1*D1", 1)
    assert both == parse_operator("(D1*x1)*D1", 1) == parse_operator("D1*(x1*D1)", 1)


def test_rational_coefficients():
    op = parse_operator("1/3*x1 - 2/6*D1", 1)
    assert op == WeylOperator(1, {(1, 0): Fraction(1, 3), (0, 1): Fraction(-1, 3)})


def test_lowercase_d_alias():
    assert parse_operator("d1", 1) == parse_operator("D1", 1)
    assert parse_operator("d2*x2", 2) == parse_operator("D2*x2", 2)


def test_whitespace_and_newlines():
    assert parse_operator("x1 +\n  D1", 1) == parse_operator("x1+D1", 1)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_operator("x1 + y2", 1)
    assert "unknown symbol 'y2'" in str(info.value)
    assert info.value.line == 1 and info.value.column == 6

    with pytest.raises(ParseError) as info:
        parse_operator("x1 +\n x9", 3)
    assert "out of range" in str(info.value)
    assert info.value.line == 2

    for text, frag in [
        ("x1 + ", "expected"),
        ("(x1", "unbalanced"),
        ("x1 ^ -1", "expected INT"),
        ("1/0", "division by zero"),
        ("x1 ~ D1", "unexpected character"),
        ("x1 x1", "trailing"),
        ("", "expected"),
        ("x", "unknown symbol"),
        ("t", "unknown symbol"),
        ("1" * 5000, "too long"),
        ("x" + "1" * 5000, "too long"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_operator(text, 2)
        assert frag in str(info.value), text


def test_prime_field_coefficients():
    field = PrimeField(5)
    op = parse_operator("1/2*x1 + 7", 1, field)
    # 1/2 = 3 and 7 = 2 in F_5
    assert format_operator(op) == "3*x1 + 2"
    with pytest.raises(ParseError):
        parse_operator("1/5", 1, field)


def test_zero_power_keeps_the_field():
    field = PrimeField(7)
    op = parse_operator("(0*x1)^0", 1, field)
    assert op.field == field
    assert op.terms == {(0, 0): field.one()}
    assert all(isinstance(c, FpElement) for c in op.terms.values())


def test_print_parse_round_trip_randomized():
    rng = random.Random(14)
    for _ in range(200):
        n = rng.randint(1, 3)
        op = random_weyl(rng, n, terms=4, degree=4, coeff=9)
        for ctx in (None, OrderContext(LinearForm.order(n)), OrderContext(LinearForm.v_form(n))):
            assert parse_operator(format_operator(op, ctx), n) == op


def test_print_parse_round_trip_prime_field():
    rng = random.Random(15)
    field = PrimeField(7)
    for _ in range(100):
        op = random_weyl(rng, 2, terms=4, degree=3, coeff=13, fld=field)
        assert parse_operator(format_operator(op), 2, field) == op


def test_printer_is_order_aware():
    ctx = OrderContext(LinearForm.order(1))
    vctx = OrderContext(LinearForm.v_form(1))
    P = parse_operator("1 + x1^2*D1", 1)
    assert format_operator(P, ctx) == "x1^2*D1 + 1"
    assert format_operator(P, vctx) == "1 + x1^2*D1"


def test_printer_handles_graded_operators():
    h = homogenize(parse_operator("1 + x1*D1", 1))
    assert format_operator(h) == "t^2 + x1*D1"
    ctx = OrderContext(LinearForm.order(1))
    assert format_operator(h, ctx) == "x1*D1 + t^2"


def test_printer_edge_cases():
    assert format_operator(WeylOperator.zero(2)) == "0"
    assert format_operator(WeylOperator.constant(1, -1)) == "-1"
    assert format_operator(parse_operator("-x1 - 1", 1)) == "-x1 - 1"
    assert format_operator(parse_operator("x1 - D1", 1)) == "x1 - D1"


_PIN_CTX = OrderContext(LinearForm((0, -1), (0, 1)), TieBreak("deglex", (1, 3, 0, 2)))
_PIN_TEXT = "x2^2*D1 - 3/2*x1*D2^2 + D1*x1 - 7"


@pytest.mark.parametrize(
    "op, ctx, text, ordered, obj, ordered_obj",
    [
        (
            Polynomial(2, {(2, 1): Fraction(-3, 2), (0, 3): 1, (1, 0): 5, (0, 0): -1}),
            None,  # the orders rank operator keys, not polynomial ones
            "-3/2*x1^2*x2 + x2^3 + 5*x1 - 1",
            "-3/2*x1^2*x2 + x2^3 + 5*x1 - 1",
            [([2, 1], [], "-3/2"), ([0, 3], [], "1"), ([1, 0], [], "5"), ([0, 0], [], "-1")],
            [([2, 1], [], "-3/2"), ([0, 3], [], "1"), ([1, 0], [], "5"), ([0, 0], [], "-1")],
        ),
        (
            # with a context a polynomial keeps the degree-lex order
            # (this raised IndexError when the weighted key was used)
            Polynomial(2, {(1, 2): 1, (0, 0): 3}),
            OrderContext(LinearForm.order(2)),
            "x1*x2^2 + 3",
            "x1*x2^2 + 3",
            [([1, 2], [], "1"), ([0, 0], [], "3")],
            [([1, 2], [], "1"), ([0, 0], [], "3")],
        ),
        (
            parse_operator(_PIN_TEXT, 2),
            _PIN_CTX,
            "-3/2*x1*D2^2 + x2^2*D1 + x1*D1 - 6",
            "-3/2*x1*D2^2 + x1*D1 - 6 + x2^2*D1",
            [([1, 0], [0, 2], "-3/2"), ([0, 2], [1, 0], "1"), ([1, 0], [1, 0], "1"),
             ([0, 0], [0, 0], "-6")],
            [([1, 0], [0, 2], "-3/2"), ([1, 0], [1, 0], "1"), ([0, 0], [0, 0], "-6"),
             ([0, 2], [1, 0], "1")],
        ),
        (
            homogenize(parse_operator(_PIN_TEXT, 2)),
            _PIN_CTX,
            "-6*t^3 + t*x1*D1 - 3/2*x1*D2^2 + x2^2*D1",
            "-3/2*x1*D2^2 + t*x1*D1 - 6*t^3 + x2^2*D1",
            [(3, [0, 0], [0, 0], "-6"), (1, [1, 0], [1, 0], "1"), (0, [1, 0], [0, 2], "-3/2"),
             (0, [0, 2], [1, 0], "1")],
            [(0, [1, 0], [0, 2], "-3/2"), (1, [1, 0], [1, 0], "1"), (3, [0, 0], [0, 0], "-6"),
             (0, [0, 2], [1, 0], "1")],
        ),
    ],
    ids=["polynomial", "polynomial-in-context", "weyl", "homog"],
)
def test_printers_and_json_writer_pinned(op, ctx, text, ordered, obj, ordered_obj):
    # the printers and the JSON writer cut every key into (k, alpha, beta)
    # the same way for each class; the literals pin what they print
    def terms(rows):
        names = ("k", "alpha", "beta", "coeff") if len(rows[0]) == 4 else ("alpha", "beta", "coeff")
        return {"n": 2, "terms": [dict(zip(names, row)) for row in rows]}

    assert str(op) == format_operator(op) == text
    assert format_operator(op, ctx) == ordered
    assert operator_to_obj(op) == terms(obj)
    assert operator_to_obj(op, ctx) == terms(ordered_obj)
