"""Sparse exact arithmetic for polynomial differential operators.

``HomogOperator`` is an element of the graded algebra with a central
variable t and D_i x_i = x_i D_i + t^2, stored in normal order
t^k x^alpha D^beta of graded degree k + |alpha| + |beta|.
``WeylOperator`` is an element of the plain algebra, where
D_i x_i = x_i D_i + 1: its image at t = 1.  So there is one Leibniz
kernel, ``_graded_product``; the plain product lifts both factors with
k = 0, multiplies there and sets t = 1.  ``Polynomial`` carries the
standard action (D_i = d/dx_i, x_i = multiplication), an independent
oracle for the noncommutative product.

All three share one sparse term-map core, ``_TermMap``, keyed by flat
exponent tuples: ``(a, b)`` plain, ``(k, a, b)`` graded, ``(a,)`` for
polynomials.  Term maps never hold zero coefficients, and values are
immutable.  The public constructor checks every key; values the
arithmetic builds itself skip that check (``_TermMap._trusted``).
Each value carries its scalar field in ``field``, taken from the
coefficients when not given (F_p for an ``FpElement``, QQ otherwise).
Integer coefficients are coerced into it, derived values inherit it,
and mixing fields raises ``ValueError``, as mixing n does.
"""

from __future__ import annotations

from itertools import product as iter_product
from math import comb, factorial, perm
from operator import add, le, sub

from .scalars import field_of

NEG_INF = float("-inf")


def vec_add(u, v):
    return tuple(map(add, u, v))


def vec_sub(u, v):
    return tuple(map(sub, u, v))


def vec_leq(u, v):
    """Componentwise <= (the divisibility order on exponents)."""
    return all(map(le, u, v))


def vec_max(u, v):
    """Componentwise max: the lcm exponent of two monomials."""
    return tuple(map(max, u, v))


def _graded_product(n, terms1, terms2):
    """Leibniz product of two graded term maps: the normal-ordered term
    map of their product, where each contraction of D_i against x_i
    costs a factor t^2."""
    right = [(key[0], key[1 : n + 1], key[n + 1 :], c) for key, c in terms2.items()]
    out = {}
    for key1, c1 in terms1.items():
        k1, alpha1, beta1 = key1[0], key1[1 : n + 1], key1[n + 1 :]
        for k2, gamma2, delta2, c2 in right:
            c = c1 * c2
            for nu in iter_product(*(range(min(b, g) + 1) for b, g in zip(beta1, gamma2))):
                w = 1
                for b, g, v in zip(beta1, gamma2, nu):
                    w *= comb(b, v) * comb(g, v) * factorial(v)
                key = (
                    (k1 + k2 + 2 * sum(nu),)
                    + vec_sub(vec_add(alpha1, gamma2), nu)
                    + vec_add(vec_sub(beta1, nu), delta2)
                )
                wc = c if w == 1 else w * c
                acc = out.get(key)
                s = wc if acc is None else acc + wc
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
    return out


def t_to_one(terms):
    """A graded term map at t = 1: keys that differ only in their t power merge."""
    out = {}
    for m, c in terms.items():
        key = m[1:]
        acc = out.get(key)
        s = c if acc is None else acc + c
        if s == 0:
            out.pop(key, None)
        else:
            out[key] = s
    return out


class _TermMap:
    """Sparse map from exponent keys of a fixed width to nonzero scalars
    of one field; the arithmetic shared by every value class here.

    ``_lead`` caches the leading term for the last order context that
    asked for it; ``orders.leading_term`` owns it.
    """

    __slots__ = ("n", "terms", "field", "_lead")

    def __init__(self, n: int, terms=None, field=None):
        if n < 1:
            raise ValueError("need at least one variable")
        terms = dict(terms or {})
        if field is None:
            field = field_of(terms.values())
        width = self._width(n)
        out = {}
        for key, coeff in terms.items():
            key = tuple(key)
            if len(key) != width or any((not isinstance(e, int)) or e < 0 for e in key):
                raise ValueError(
                    f"bad {type(self).__name__} exponent {key!r}: expected {width} naturals"
                )
            if isinstance(coeff, int):
                coeff = field.from_int(coeff)
            if coeff == 0:
                continue
            out[key] = coeff
        self.n = n
        self.terms = out
        self.field = field
        self._lead = None

    @classmethod
    def _trusted(cls, n, terms, field):
        """Wrap a term map the arithmetic built itself, without the checks
        of ``__init__``: every key must already be a tuple of ``_width(n)``
        naturals and every coefficient a nonzero element of ``field``.
        The randomized suite (``oracle.algebra_fuzz``) checks that the
        arithmetic keeps to this."""
        self = object.__new__(cls)
        self.n = n
        self.terms = terms
        self.field = field
        self._lead = None
        return self

    @classmethod
    def _width(cls, n):
        return cls._SHAPE[0] * n + cls._SHAPE[1]

    @classmethod
    def zero(cls, n, field=None):
        return cls(n, {}, field)

    @classmethod
    def constant(cls, n, c, field=None):
        return cls(n, {(0,) * cls._width(n): c}, field)

    @classmethod
    def monomial(cls, n, key, coeff=1, field=None):
        return cls(n, {tuple(key): coeff}, field)

    @classmethod
    def _generator(cls, n, position, coeff, field, power=1):
        key = [0] * cls._width(n)
        key[position] = power
        return cls.monomial(n, key, coeff, field)

    def is_zero(self):
        return not self.terms

    def _same_algebra(self, other):
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        if self.field is not other.field and self.field != other.field:
            raise ValueError(f"field mismatch: {self.field!r} and {other.field!r}")

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.n == other.n
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._same_algebra(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = out.get(key)
            s = coeff if acc is None else acc + coeff
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return type(self)._trusted(self.n, out, self.field)

    def __neg__(self):
        return type(self)._trusted(self.n, {k: -c for k, c in self.terms.items()}, self.field)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if isinstance(c, int):
            c = self.field.from_int(c)
        if c == 0:
            return type(self).zero(self.n, self.field)
        return type(self)._trusted(self.n, {k: c * v for k, v in self.terms.items()}, self.field)

    def __rmul__(self, other):
        # only scalars reach here; scalar multiplication is central
        return self.scale(other)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("operator powers must be natural numbers")
        if k == 0:
            return type(self).constant(self.n, self.field.one(), self.field)
        acc = self
        for _ in range(k - 1):
            acc = acc * self
        return acc

    def __str__(self):
        return format_terms(self.terms, self.n, homog=False)

    def __repr__(self):
        return f"<{type(self).__name__} n={self.n}: {self}>"


class WeylOperator(_TermMap):
    """Normal-ordered differential operator sum(c_{a,b} x^a D^b)."""

    __slots__ = ()
    _SHAPE = (2, 0)  # key width 2 * n

    @classmethod
    def x(cls, n, i, coeff=1, field=None):
        """The generator x_i (1-based i)."""
        return cls._generator(n, i - 1, coeff, field)

    @classmethod
    def d(cls, n, i, coeff=1, field=None):
        """The generator D_i (1-based i)."""
        return cls._generator(n, n + i - 1, coeff, field)

    def total_degree(self):
        """Max of |alpha|+|beta| over the support; -inf for the zero operator."""
        if not self.terms:
            return NEG_INF
        return max(sum(key) for key in self.terms)

    def __mul__(self, other):
        if not isinstance(other, WeylOperator):
            return self.scale(other)
        self._same_algebra(other)
        lifted = [{(0,) + key: c for key, c in op.terms.items()} for op in (self, other)]
        graded = _graded_product(self.n, *lifted)
        return WeylOperator._trusted(self.n, t_to_one(graded), self.field)

    def apply(self, f: "Polynomial") -> "Polynomial":
        """Act on a polynomial: D_i differentiates, x_i multiplies."""
        self._same_algebra(f)
        n = self.n
        out = {}
        for key, c in self.terms.items():
            alpha, beta = key[:n], key[n:]
            for mono, fc in f.terms.items():
                if not vec_leq(beta, mono):
                    continue
                w = 1
                for m, b in zip(mono, beta):
                    w *= perm(m, b)
                target = vec_add(vec_sub(mono, beta), alpha)
                acc = out.get(target)
                s = w * c * fc if acc is None else acc + w * c * fc
                if s == 0:
                    out.pop(target, None)
                else:
                    out[target] = s
        return Polynomial(n, out, self.field)


class HomogOperator(_TermMap):
    """Element of the graded algebra with central t and D_i x_i = x_i D_i + t^2."""

    __slots__ = ()
    _SHAPE = (2, 1)  # key width 2 * n + 1

    @classmethod
    def t(cls, n, k=1, coeff=1, field=None):
        return cls._generator(n, 0, coeff, field, power=k)

    @classmethod
    def x(cls, n, i, coeff=1, field=None):
        return cls._generator(n, i, coeff, field)

    @classmethod
    def d(cls, n, i, coeff=1, field=None):
        return cls._generator(n, n + i, coeff, field)

    def t_shift(self, j):
        """Multiply by t^j (t is central, so this just raises every k)."""
        if j < 0:
            raise ValueError("t powers are natural")
        shifted = {(k[0] + j,) + k[1:]: c for k, c in self.terms.items()}
        return HomogOperator._trusted(self.n, shifted, self.field)

    def __mul__(self, other):
        if not isinstance(other, HomogOperator):
            return self.scale(other)
        self._same_algebra(other)
        product = _graded_product(self.n, self.terms, other.terms)
        return HomogOperator._trusted(self.n, product, self.field)

    def __str__(self):
        return format_terms(self.terms, self.n, homog=True)


class Polynomial(_TermMap):
    """Sparse polynomial in x_1..x_n; the carrier of the operator action."""

    __slots__ = ()
    _SHAPE = (1, 0)  # key width n

    @classmethod
    def x(cls, n, i, power=1, coeff=1, field=None):
        return cls._generator(n, i - 1, coeff, field, power)


def format_terms(terms, n, homog, sort_key=None):
    """Render a term map in expression syntax, largest term first.

    ``sort_key`` maps an exponent key to a sortable value; the default is
    degree-then-lex, which is deterministic but ignores any weight order.
    A polynomial key prints as a plain key with an empty D part.
    """
    if sort_key is None:
        sort_key = lambda key: (sum(key), key)
    chunks = []
    for key in sorted(terms, key=sort_key, reverse=True):
        if homog:
            k, alpha, beta = key[0], key[1 : n + 1], key[n + 1 :]
        else:
            k, alpha, beta = 0, key[:n], key[n:]
        powers = [("t", k)]
        powers += [(f"x{i + 1}", e) for i, e in enumerate(alpha)]
        powers += [(f"D{i + 1}", e) for i, e in enumerate(beta)]
        body = "*".join(name + (f"^{e}" if e > 1 else "") for name, e in powers if e)
        coeff = str(terms[key])
        neg = coeff.startswith("-")
        mag = coeff[1:] if neg else coeff
        if body and mag == "1":
            text = body
        elif body:
            text = f"{mag}*{body}"
        else:
            text = mag
        if chunks:
            chunks.append(("- " if neg else "+ ") + text)
        else:
            chunks.append(("-" if neg else "") + text)
    return " ".join(chunks) if chunks else "0"
