"""JSON interchange round trips."""

import json
import random

import pytest

from weylstd import (
    LinearForm,
    OrderContext,
    PrimeField,
    QQ,
    homog_from_obj,
    homogenize,
    operator_to_obj,
    parse_operator,
    weyl_from_obj,
)
from weylstd.oracle import random_homog, random_weyl


def test_plain_operator_round_trip():
    op = parse_operator("x1^2*D1 + 1/2", 1)
    obj = operator_to_obj(op)
    assert obj["n"] == 1
    assert {"alpha": [2], "beta": [1], "coeff": "1"} in obj["terms"]
    assert {"alpha": [0], "beta": [0], "coeff": "1/2"} in obj["terms"]
    assert weyl_from_obj(obj, 1) == op
    # and through an actual JSON string
    assert weyl_from_obj(json.loads(json.dumps(obj)), 1) == op


def test_graded_operator_round_trip():
    h = homogenize(parse_operator("1 + x1*D1", 1))
    obj = operator_to_obj(h)
    assert {"k": 2, "alpha": [0], "beta": [0], "coeff": "1"} in obj["terms"]
    assert homog_from_obj(obj, 1) == h


def test_term_order_follows_context():
    ctx = OrderContext(LinearForm.order(1))
    op = parse_operator("1 + x1^2*D1", 1)
    obj = operator_to_obj(op, ctx)
    assert obj["terms"][0] == {"alpha": [2], "beta": [1], "coeff": "1"}
    vctx = OrderContext(LinearForm.v_form(1))
    assert operator_to_obj(op, vctx)["terms"][0]["alpha"] == [0]


def test_round_trip_randomized():
    rng = random.Random(16)
    for _ in range(100):
        n = rng.randint(1, 3)
        op = random_weyl(rng, n, terms=4, degree=4, coeff=9)
        assert weyl_from_obj(operator_to_obj(op), n) == op
        h = random_homog(rng, n, terms=4, degree=4, coeff=9)
        assert homog_from_obj(operator_to_obj(h), n) == h


def test_prime_field_round_trip():
    field = PrimeField(7)
    rng = random.Random(17)
    for _ in range(40):
        op = random_weyl(rng, 2, fld=field)
        assert weyl_from_obj(operator_to_obj(op), 2, field) == op


def test_duplicate_terms_accumulate():
    obj = {
        "n": 1,
        "terms": [
            {"alpha": [1], "beta": [0], "coeff": "1"},
            {"alpha": [1], "beta": [0], "coeff": "2"},
        ],
    }
    assert weyl_from_obj(obj, 1) == parse_operator("3*x1", 1)


def test_integer_coefficients_accepted():
    obj = {"n": 1, "terms": [{"alpha": [0], "beta": [1], "coeff": 4}]}
    assert weyl_from_obj(obj, 1) == parse_operator("4*D1", 1)


def test_shape_errors():
    with pytest.raises(ValueError):
        weyl_from_obj({"n": 2, "terms": []}, 1)
    with pytest.raises(ValueError):
        weyl_from_obj({"terms": [{"alpha": [1], "beta": [0, 0], "coeff": "1"}]}, 1)
    with pytest.raises(ValueError):
        weyl_from_obj([], 1)
    # JSON true is no exponent, though Python reads it as 1, also where it
    # repeats an exponent written as 1
    with pytest.raises(ValueError):
        weyl_from_obj({"n": 1, "terms": [{"alpha": [True], "beta": [0], "coeff": 1}]}, 1)
    ones = [{"alpha": [1], "beta": [0], "coeff": 1}, {"alpha": [True], "beta": [0], "coeff": 1}]
    with pytest.raises(ValueError):
        weyl_from_obj({"n": 1, "terms": ones}, 1)
    with pytest.raises(ValueError):
        homog_from_obj({"n": 1, "terms": [{"k": True, "alpha": [0], "beta": [0], "coeff": 1}]}, 1)


TERM = {"alpha": [0], "beta": [1], "coeff": "1"}


@pytest.mark.parametrize(
    "reader, terms",
    [
        (weyl_from_obj, {"alpha": [0], "beta": [1]}),
        (weyl_from_obj, {"alpha": [0], "coeff": "1"}),
        (homog_from_obj, {"k": 0, "beta": [1], "coeff": "1"}),
        (weyl_from_obj, [TERM, "x1"]),
        (weyl_from_obj, "x1"),
        (weyl_from_obj, {"alpha": 0, "beta": [1], "coeff": "1"}),
        (homog_from_obj, {"k": 0, "alpha": [0], "beta": "1", "coeff": "1"}),
        # a plain reader refuses a t power instead of merging it away
        (weyl_from_obj, dict(TERM, k=1)),
        (weyl_from_obj, dict(TERM, k=-1)),
        (homog_from_obj, dict(TERM, k=-1)),
        (weyl_from_obj, dict(TERM, note="")),
    ],
)
def test_malformed_terms_are_value_errors(reader, terms):
    with pytest.raises(ValueError):
        reader({"n": 1, "terms": terms if isinstance(terms, (list, str)) else [terms]}, 1)


@pytest.mark.parametrize("reader", [weyl_from_obj, homog_from_obj])
@pytest.mark.parametrize("declared", [True, 1.0, "1", None, [1]])
def test_declared_n_must_be_an_int(reader, declared):
    # JSON true and 1.0 compare equal to 1 in Python; neither declares n = 1
    with pytest.raises(ValueError, match="declares n="):
        reader({"n": declared, "terms": [TERM]}, 1)
    assert reader({"n": 1, "terms": [TERM]}, 1) == reader({"terms": [TERM]}, 1)


FOREIGN_COEFFS = [1.5, True, None, [1], "1.5", "1e2", "1_0", "3/-2", "1/0"]


@pytest.mark.parametrize("reader", [weyl_from_obj, homog_from_obj])
def test_coefficient_of_too_many_digits_says_so(reader):
    obj = {"n": 1, "terms": [{"alpha": [0], "beta": [1], "coeff": "1" * 5000}]}
    with pytest.raises(ValueError, match="^number of 5000 digits is too long$"):
        reader(obj, 1)


@pytest.mark.parametrize("reader", [weyl_from_obj, homog_from_obj])
@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "F_7"])
def test_coefficients_enter_through_the_field(reader, field):
    for coeff in FOREIGN_COEFFS:
        obj = {"n": 1, "terms": [{"alpha": [0], "beta": [1], "coeff": coeff}]}
        with pytest.raises(ValueError):
            reader(obj, 1, field)
    obj = {"n": 1, "terms": [{"alpha": [0], "beta": [1], "coeff": " -3/2 "}]}
    assert reader(obj, 1, field).terms.popitem()[1] == field.from_int(-3, 2)
