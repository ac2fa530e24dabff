"""Exact coefficient fields: rationals (default) and prime fields.

Operator term maps hold scalar values that must support +, -, *, / and
comparison with 0.  ``fractions.Fraction`` already does; ``FpElement``
provides the same surface for arithmetic modulo a prime.  Integer
combinatorial weights (binomials, factorials) are always computed in
arbitrary-precision ``int`` and only then multiplied into the scalar,
so they stay correct in characteristic p even when p divides them.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConfigError


class FpElement:
    """Residue class modulo a prime, stored canonically in [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise TypeError("mixed prime moduli")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(self.value * pow(o.value, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"FpElement({self.value}, p={self.p})"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class RationalField:
    """Field of exact rationals backed by ``fractions.Fraction``."""

    def one(self):
        return Fraction(1)

    def from_int(self, numer: int, denom: int = 1):
        return Fraction(numer, denom)

    def parse(self, text: str):
        return Fraction(text)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """Field with p elements for a prime p."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ConfigError(f"{p} is not prime")
        self.p = p

    def one(self):
        return FpElement(1, self.p)

    def from_int(self, numer: int, denom: int = 1):
        if denom % self.p == 0:
            raise ZeroDivisionError(f"denominator {denom} vanishes in F_{self.p}")
        return FpElement(numer, self.p) / FpElement(denom, self.p)

    def parse(self, text: str):
        if "/" in text:
            numer, denom = text.split("/", 1)
            return self.from_int(int(numer), int(denom))
        return FpElement(int(text), self.p)

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
            # the modulus was checked when the element's field was built
            fld = object.__new__(PrimeField)
            fld.p = c.p
            return fld
    return QQ
