"""Exact coefficient fields: rationals (default) and prime fields.

Operator term maps hold scalar values that must support +, -, *, / and
comparison with 0.  ``fractions.Fraction`` already does; ``FpElement``
provides the same surface for arithmetic modulo a prime.  Integer
combinatorial weights (binomials, factorials) are always computed in
arbitrary-precision ``int`` and only then multiplied into the scalar,
so they stay correct in characteristic p even when p divides them.

Each field owns the intake of scalars from outside the arithmetic:
``coerce`` keeps an element of the field and reads a plain ``int``
through ``from_int``, and ``parse`` reads ``[+-]?[0-9]+(/[0-9]+)?``.
Anything else is a ``ValueError``, so operators hold only elements of
their field.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ConfigError


class FpElement:
    """Residue class modulo a prime, stored canonically in [0, p) as an
    ``int``; arithmetic takes elements of the same field and ``int``s."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        if type(value) is not int:
            raise ValueError(f"FpElement value {value!r} of type {type(value).__name__} is not an int")
        self.value = value % p
        self.p = p

    def _lift(self, other):
        """``other`` (this field's element or an ``int``) as an ``int``, else None."""
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise TypeError("mixed prime moduli")
            return other.value
        if type(other) is int:
            return other
        return None

    def __add__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else FpElement(self.value + o, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else FpElement(self.value - o, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else FpElement(o - self.value, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else FpElement(self.value * o, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(self.value * pow(o, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else FpElement(o, self.p) / self

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        if type(other) is int:
            # the canonical residue only, so that equality is transitive
            # and agrees with the hash: FpElement(3, 7) != 10
            return self.value == other
        return NotImplemented

    def __hash__(self):
        # equal to its canonical int residue, so it must hash like that int
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"FpElement({self.value}, p={self.p})"


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


_NUMERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


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
        try:
            return self.from_int(int(m[1]), int(m[2] or 1))
        except ZeroDivisionError:
            raise ValueError(f"coefficient {text!r} has a zero denominator in {self!r}") from None


class RationalField(_Field):
    """Field of exact rationals backed by ``fractions.Fraction``."""

    def __contains__(self, c):
        return isinstance(c, Fraction)

    def one(self):
        return Fraction(1)

    def from_int(self, numer: int, denom: int = 1):
        return Fraction(numer, denom)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"


class PrimeField(_Field):
    """Field with p elements for a prime p below ``MODULUS_LIMIT``."""

    def __init__(self, p: int):
        if p >= MODULUS_LIMIT:
            raise ConfigError(f"modulus {p} is too large: it must be below {MODULUS_LIMIT}")
        if not _is_prime(p):
            raise ConfigError(f"{p} is not prime")
        self.p = p

    def __contains__(self, c):
        return isinstance(c, FpElement) and c.p == self.p

    def one(self):
        return FpElement(1, self.p)

    def from_int(self, numer: int, denom: int = 1):
        return FpElement(numer, self.p) / denom

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = RationalField()


def field_of(coefficients):
    """The field of a coefficient collection: F_p for the first
    ``FpElement`` among them, QQ when there is none."""
    for c in coefficients:
        if isinstance(c, FpElement):
            return PrimeField(c.p)
    return QQ
