"""Coefficient fields: the intake rule, the numeral grammar, the modulus check."""

import re
import time
from fractions import Fraction
from math import isqrt

import pytest

from weylstd import QQ, ConfigError, PrimeField
from weylstd.scalars import MODULUS_LIMIT, _is_prime

F7 = PrimeField(7)

# values outside each field: a float, a bool, a value of another type
FOREIGN = {
    "QQ": [1.5, True, "2"],
    "F_7": [1.5, False, Fraction(1, 2), Fraction(2)],
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
    # int() refuses more than 4300 digits with a message about
    # sys.set_int_max_str_digits; the one digit reader says what is wrong
    for text in ["1" * 5000, "-" + "1" * 5000, "1/" + "1" * 5000]:
        with pytest.raises(ValueError, match="^number of 5000 digits is too long$"):
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
    assert fld.div(1, 3) * 3 % fld.characteristic == fld.one()
    with pytest.raises(ConfigError, match="too large"):
        PrimeField(MODULUS_LIMIT)
    with pytest.raises(ConfigError, match="too large"):
        PrimeField(10**30 + 57)
    # named by its size: a modulus with more digits than an int formats
    with pytest.raises(ConfigError, match="^modulus of 16610 bits is too large"):
        PrimeField(10**5000)


def test_prime_field_elements_are_canonical_residues():
    assert F7.characteristic == 7 and QQ.characteristic == 0
    assert [c in F7 for c in (0, 6, 7, -1, True, Fraction(3))] == [True, True, False, False, False, False]
    assert F7.coerce(10) == 3 and F7.coerce(-1) == 6
    assert F7.one() == 1 and type(F7.one()) is int
    # div is the one division: the result reduced to [0, p)
    assert (F7.div(3, 2), F7.div(1, 6), F7.div(0, 5)) == (5, 6, 0)
    assert all(F7.div(a, b) in F7 and F7.div(a, b) * b % 7 == a for a in range(7) for b in range(1, 7))
    assert QQ.div(Fraction(3), Fraction(2)) == Fraction(3, 2)
    for zero in (0, 7, 14):
        with pytest.raises(ZeroDivisionError, match="F_7"):
            F7.div(3, zero)
