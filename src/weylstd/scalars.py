"""Exact coefficient fields: rationals (default) and prime fields.

Over QQ a coefficient is a ``fractions.Fraction``; over F_p it is a plain
``int`` in [0, p), its canonical residue.  The arithmetic adds, subtracts
and multiplies coefficients with Python's own operators.  A field adds
what those lack: its ``characteristic`` (0 for QQ, p for F_p), modulo
which the arithmetic reduces, and ``div``, the one division.  Residues
are reduced at exactly three places: ``weyl.add_terms``, which every sum
of terms and every scaling goes through, the working-term update of
``division.divide``, and ``div``.  Integer combinatorial
weights (binomials, factorials) are computed in arbitrary-precision
``int`` and reduced only once multiplied into a coefficient, so they
stay correct in characteristic p even when p divides them.

The products, the division and its check run on integer forms, and
each field holds the one place where they differ, so none of them
branches on the characteristic.  ``integer_form`` turns a term map into
(d, T) with ``int`` values, T = d times the map: over QQ d is the lcm of
the coefficient denominators, over F_p d = 1 and T is the map itself.
``from_scaled(v, d)`` turns an int back into the element v/d (over F_p
the residue v, unchanged) and ``from_integer_form`` a whole map.
``cancelling_pair(w, lead)`` gives the ints (r, f) with r*w = f*lead by
which fraction-free division cancels w against a divisor's lead: over
QQ r = lead/g and f = w/g for g = gcd(w, lead), over F_p r = 1 and
f = w/lead.

Each field owns the intake of scalars from outside the arithmetic:
``coerce`` keeps an element of the field and reads a plain ``int``
through ``from_int``, and ``parse`` reads ``[+-]?[0-9]+(/[0-9]+)?``.
Anything else is a ``ValueError``, so operators hold only elements of
their field.  Since an ``int`` is read into either field, nothing infers
the field from coefficients: an operator is over QQ unless it is given
its field.  Every run of ASCII digits read from text, here and in the
expression and config readers, goes through ``read_natural``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import ConfigError


# Miller-Rabin on the first thirteen prime bases is exact below this
# bound, the least strong pseudoprime to all of them (Sorenson and
# Webster, 2015); PrimeField takes no modulus at or above it.  Twelve
# bases are not enough: 318665857834031151167461 passes them.
MODULUS_LIMIT = 3_317_044_064_679_887_385_961_981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < ``MODULUS_LIMIT``."""
    if p < 2:
        return False
    for a in _BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def read_natural(digits: str) -> int:
    """The natural number a run of ASCII digits spells; one past the
    interpreter's limit on int digits is a ``ValueError`` that says so."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"number of {len(digits)} digits is too long") from None


_NUMERAL = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")


class _Field:
    """The intake rules both fields share; ``in`` is each field's own
    membership rule."""

    def coerce(self, c):
        """``c`` as an element of this field: an element is returned as
        is, a plain ``int`` (not a ``bool``) goes through ``from_int``."""
        if c in self:
            return c
        if type(c) is int:
            return self.from_int(c)
        raise ValueError(f"coefficient {c!r} of type {type(c).__name__} is not in {self!r}")

    def parse(self, text: str):
        """An element from ``num`` or ``num/den`` in ASCII digits, with an
        optional sign on ``num`` and whitespace around it."""
        m = _NUMERAL.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"coefficient {text!r} is not num or num/den")
        numer, denom = read_natural(m[2]), read_natural(m[3] or "1")
        try:
            return self.from_int(-numer if m[1] == "-" else numer, denom)
        except ZeroDivisionError:
            raise ValueError(f"coefficient {text!r} has a zero denominator in {self!r}") from None


class RationalField(_Field):
    """Field of exact rationals backed by ``fractions.Fraction``."""

    characteristic = 0

    def __contains__(self, c):
        return isinstance(c, Fraction)

    def one(self):
        return Fraction(1)

    def from_int(self, numer: int, denom: int = 1):
        return Fraction(numer, denom)

    def div(self, a, b):
        return a / b

    def integer_form(self, terms):
        """(d, T) for the term map ``terms``: d is the lcm of its
        coefficient denominators and T = d*terms has ``int`` values."""
        d = 1
        for c in terms.values():
            if c.denominator != 1:
                d = lcm(d, c.denominator)
        if d == 1:
            return 1, {k: c.numerator for k, c in terms.items()}
        return d, {k: c.numerator * (d // c.denominator) for k, c in terms.items()}

    def from_scaled(self, v, d):
        """The element v/d, for ints v and d."""
        return Fraction(v, d)

    def from_integer_form(self, d, terms):
        """The term map terms/d: the inverse of ``integer_form``."""
        if d == 1:
            return {k: Fraction(v) for k, v in terms.items()}
        return {k: Fraction(v, d) for k, v in terms.items()}

    def cancelling_pair(self, w, lead):
        """The cancelling pair of ints w and lead: r*w = f*lead, with
        r = lead/g and f = w/g for g = gcd(w, lead)."""
        g = gcd(w, lead)
        return lead // g, w // g

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"


class PrimeField(_Field):
    """Field with p elements for a prime p below ``MODULUS_LIMIT``; its
    elements are the ``int``s 0..p-1."""

    def __init__(self, p: int):
        if p >= MODULUS_LIMIT:
            raise ConfigError(f"modulus of {p.bit_length()} bits is too large: it must be below {MODULUS_LIMIT}")
        if not _is_prime(p):
            raise ConfigError(f"{p} is not prime")
        self.characteristic = p

    def __contains__(self, c):
        return type(c) is int and 0 <= c < self.characteristic

    def one(self):
        return 1

    def from_int(self, numer: int, denom: int = 1):
        return self.div(numer, denom)

    def div(self, a, b):
        """a/b reduced to [0, p), for ints a and b."""
        p = self.characteristic
        if b % p == 0:
            raise ZeroDivisionError(f"division by zero in F_{p}")
        return a * pow(b, -1, p) % p

    def integer_form(self, terms):
        """(1, terms): residues are already ints."""
        return 1, terms

    def from_scaled(self, v, d):
        """The residue v itself: an integer form over F_p has d = 1."""
        return v

    def from_integer_form(self, d, terms):
        """The term map itself: the inverse of ``integer_form``."""
        return terms

    def cancelling_pair(self, w, lead):
        """The cancelling pair of residues w and lead: (1, w/lead)."""
        return 1, self.div(w, lead)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.characteristic == self.characteristic

    def __hash__(self):
        return hash(("fp", self.characteristic))

    def __repr__(self):
        return f"PrimeField({self.characteristic})"


QQ = RationalField()
