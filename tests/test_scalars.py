"""Coefficient fields: the intake rule, the numeral grammar, the modulus check."""

import re
import time
from fractions import Fraction
from math import isqrt

import pytest

from weylstd import QQ, ConfigError, FpElement, PrimeField, WeylOperator
from weylstd.scalars import MODULUS_LIMIT, _is_prime, field_of

F7 = PrimeField(7)

# values outside each field: a float, a bool, an element of another field
FOREIGN = {
    "QQ": [1.5, True, FpElement(2, 7)],
    "F_7": [1.5, False, Fraction(1, 2), FpElement(2, 11)],
}


@pytest.mark.parametrize("fld", [QQ, F7], ids=["QQ", "F_7"])
def test_coerce_keeps_elements_and_reads_ints(fld):
    half = fld.from_int(1, 2)
    assert fld.coerce(half) is half
    assert fld.coerce(-3) == fld.from_int(-3)
    assert fld.coerce(-3) in fld
    assert fld.coerce(0) == 0


@pytest.mark.parametrize("fld", [QQ, F7], ids=["QQ", "F_7"])
def test_coerce_rejects_foreign_values(fld):
    for c in FOREIGN["QQ" if fld is QQ else "F_7"]:
        with pytest.raises(ValueError, match=re.escape(f"{type(c).__name__} is not in {fld!r}")):
            fld.coerce(c)


@pytest.mark.parametrize("fld", [QQ, F7], ids=["QQ", "F_7"])
def test_both_fields_parse_one_grammar(fld):
    assert fld.parse(" -3/2 ") == fld.from_int(-3, 2)
    assert fld.parse("+4") == fld.from_int(4)
    assert fld.parse("0/5") == 0
    for text in ["1.5", "1e2", "1_0", "3/-2", "3/+2", "", "/2", "1/", "١", "0x10", "1 /2"]:
        with pytest.raises(ValueError, match="num or num/den"):
            fld.parse(text)
    for text in ["1/0", "-5/00"]:
        with pytest.raises(ValueError, match="zero denominator"):
            fld.parse(text)


def test_parse_rejects_denominators_vanishing_mod_p():
    with pytest.raises(ValueError, match="zero denominator"):
        F7.parse("1/14")
    assert QQ.parse("1/14") == Fraction(1, 14)


def _trial_division(k):
    return k >= 2 and all(k % f for f in range(2, isqrt(k) + 1))


def test_primality_agrees_with_trial_division():
    assert [k for k in range(10**5) if _is_prime(k)] == [
        k for k in range(10**5) if _trial_division(k)
    ]


def test_pseudoprimes_rejected():
    # a Carmichael number; the least strong pseudoprime to bases 2, 3, 5, 7;
    # ... to the first nine prime bases; ... to the first twelve
    for n in [561, 3215031751, 3825123056546413051, 318665857834031151167461]:
        assert not _is_prime(n)
        with pytest.raises(ConfigError, match="not prime"):
            PrimeField(n)


def test_large_prime_modulus_is_fast_and_limited():
    start = time.perf_counter()
    fld = PrimeField(2**61 - 1)
    assert time.perf_counter() - start < 0.5
    assert fld.from_int(1, 3) * 3 == fld.one()
    with pytest.raises(ConfigError, match="too large"):
        PrimeField(MODULUS_LIMIT)
    with pytest.raises(ConfigError, match="too large"):
        PrimeField(10**30 + 57)


def test_field_of_builds_through_the_constructor():
    assert field_of([Fraction(1), FpElement(3, 7)]) == F7
    assert field_of([Fraction(1), 2]) is QQ
    # an element of a nonprime modulus yields no "field" F_8, where 1/2 == 0
    with pytest.raises(ConfigError, match="8 is not prime"):
        WeylOperator(1, {(0, 0): FpElement(2, 8), (1, 0): 1})


def test_fp_element_takes_only_int_values():
    # a float value used to be kept (FpElement(1.5, 7).value == 1.5), and
    # the field's coerce then accepted it as a member
    for bad in (1.5, True, Fraction(1, 2)):
        with pytest.raises(ValueError, match=f"{type(bad).__name__} is not an int"):
            FpElement(bad, 7)


def test_fp_arithmetic_with_int_operands():
    e = FpElement(3, 7)
    assert (3 * e, e * 3, e / 2, 2 / e, 1 - e, e - 1, e + 4) == tuple(
        FpElement(v, 7) for v in (2, 2, 5, 3, 5, 2, 0)
    )
    assert e == 3 and e != 10 and e != 4 and -e == 4
    assert all(type(r.value) is int for r in (3 * e, e / 2, 2 / e, 1 - e))
    for zero in (7, FpElement(0, 7)):
        with pytest.raises(ZeroDivisionError):
            e / zero
    with pytest.raises(ZeroDivisionError):
        1 / FpElement(14, 7)


def test_fp_hash_agrees_with_equality():
    # an element equals its canonical int residue, so it must hash like it
    assert {1: "a"}.get(FpElement(1, 7)) == "a"
    assert len({FpElement(3, 7), 3}) == 1
    assert hash(FpElement(10, 7)) == hash(FpElement(3, 7)) == hash(3)
    # an int congruent to it but out of range is a different key
    assert len({FpElement(3, 7), 10}) == 2
    assert {8: "a"}.get(FpElement(1, 7)) is None


def test_fp_arithmetic_refuses_bools_and_other_moduli():
    e = FpElement(3, 7)
    for bad in (True, 1.5):
        with pytest.raises(TypeError):
            e * bad
        with pytest.raises(TypeError):
            bad + e
    with pytest.raises(TypeError, match="mixed prime moduli"):
        e + FpElement(3, 11)
    with pytest.raises(TypeError, match="mixed prime moduli"):
        FpElement(3, 11) / e
