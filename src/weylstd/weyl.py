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

The kernel works on the flat keys directly.  A pair of terms
t^k1 x^a1 D^b1 and t^k2 x^a2 D^b2 gives
sum_v (prod_i C(b1_i, v_i) C(a2_i, v_i) v_i!) t^(k1+k2+2|v|)
x^(a1+a2-v) D^(b1+b2-v), so its v = 0 term has the sum of the two keys
as its key.  Each pair costs one coefficient product and one key sum;
counts v_i are enumerated only at positions where the left term has a
D_i and the right one an x_i, with weights read from a table per
exponent pair (b, g) (``_ContractionWeights``), and each v_i > 0 moves
the summed key by k += 2 v_i, a_i -= v_i, b_i -= v_i.

All three share one sparse term-map core, ``_TermMap``, keyed by flat
exponent tuples: ``(a, b)`` plain, ``(k, a, b)`` graded, ``(a,)`` for
polynomials.  Three rules of that core each have one owner.  Term maps
never hold zero coefficients: every sum of terms, in the kernel, at
t = 1, in ``+``/``-``, in ``scale`` (negation too), in the action and
in the JSON reader, goes through ``add_terms``, which drops a key whose
sum is zero.  ``_TermMap.split`` alone cuts a flat key into
``(k, alpha, beta)``, for the action, the printers, the JSON writer and
the CLI.  And ``_TermMap._variable`` alone maps a variable to its flat
key position (x_i at t + i - 1 and D_i at t + n + i - 1, t being 1 in
graded keys and 0 otherwise), for ``x``, ``d`` and ``t`` of every
class; an index outside 1..n is a ValueError.  Values are immutable.
The public constructor checks every key; values the arithmetic builds
itself skip that check (``_TermMap._trusted``).
Each value carries its scalar field in ``field``, QQ unless given:
over F_p a coefficient is an ``int`` in [0, p), and ``add_terms``
reduces what it stores modulo the field's characteristic.
Every scalar from outside, in the constructor and in ``scale`` (so in
scalar ``*`` too), enters through ``field.coerce``, the one door: an
element of the field or a plain ``int``, anything else a ``ValueError``.
Derived values inherit the field, and mixing fields raises
``ValueError``, as mixing n does.

The graded product runs the kernel on ints.  Each value keeps one
integer form (d, T), T = d times its terms with ``int`` coefficients,
built by its field on first use (``_TermMap.integer_form``); values the
arithmetic builds start without one.  ``HomogOperator.__mul__`` hands
the two forms to ``_graded_product`` and turns the product back into
field elements once, over the denominator d1*d2
(``field.from_integer_form``).  Over F_p the form is the term map
itself, so nothing is converted.
"""

from __future__ import annotations

from math import comb, factorial, perm, prod
from operator import add, le, sub

from .scalars import QQ

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


class _ContractionWeights(dict):
    """(b, g) -> ((v, C(b, v) * C(g, v) * v!) for v = 0..min(b, g)): the
    ways v of b factors D_i can each meet a distinct one of g factors x_i.
    Rows are built on first use; the table holds one row per exponent
    pair met, so it stays within (largest exponent + 1)^2 rows."""

    def __missing__(self, bg):
        b, g = bg
        row = tuple((v, comb(b, v) * comb(g, v) * factorial(v)) for v in range(min(b, g) + 1))
        self[bg] = row
        return row


_WEIGHTS = _ContractionWeights()


def add_terms(out, pairs, p):
    """Add (key, coefficient) pairs into the term map ``out`` in place and
    return it.  In characteristic ``p`` > 0 each sum is reduced mod p.  A
    key whose sum is zero is dropped, also a new key whose coefficient is
    zero (a weight that vanishes mod p), so ``out`` never stores a zero."""
    for key, c in pairs:
        acc = out.get(key)
        s = c if acc is None else acc + c
        if p:
            s %= p
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _graded_product(n, p, terms1, terms2):
    """Leibniz product of two graded term maps: the normal-ordered term
    map of their product in characteristic ``p``, where each contraction
    of D_i against x_i costs a factor t^2.

    Without contractions the product key is the sum of the two keys.
    Only where a D_i of the left term meets an x_i of the right one are
    contraction counts v enumerated, each moving the summed key by
    k += 2v, a_i -= v, b_i -= v."""
    weights = _WEIGHTS
    right = list(terms2.items())
    out = {}
    for key1, c1 in terms1.items():
        ds = [(i, b) for i, b in enumerate(key1[n + 1 :], 1) if b]
        for key2, c2 in right:
            products = [(tuple(map(add, key1, key2)), c1 * c2)]
            for i, b in ds:
                g = key2[i]
                if g:
                    grown = []
                    for key, c in products:
                        for v, w in weights[b, g]:
                            if v:
                                moved = list(key)
                                moved[0] += 2 * v
                                moved[i] -= v
                                moved[n + i] -= v
                                grown.append((tuple(moved), w * c))
                            else:
                                grown.append((key, c))
                    products = grown
            add_terms(out, products, p)
    return out


def t_to_one(terms, p):
    """A graded term map at t = 1, in characteristic ``p``: keys that
    differ only in their t power merge."""
    return add_terms({}, ((m[1:], c) for m, c in terms.items()), p)


class _TermMap:
    """Sparse map from exponent keys of a fixed width to nonzero scalars
    of one field; the arithmetic shared by every value class here.

    ``_lead`` caches the leading term for the last order context that
    asked for it; ``orders.leading_term`` owns it.  ``_int`` caches the
    integer form; ``integer_form`` owns it.
    """

    __slots__ = ("n", "terms", "field", "_lead", "_int")

    def __init__(self, n: int, terms=None, field=QQ):
        if n < 1:
            raise ValueError("need at least one variable")
        out = {}
        for key, coeff in dict(terms or {}).items():
            key = self._key(n, key)
            coeff = field.coerce(coeff)
            if coeff == 0:
                continue
            out[key] = coeff
        self.n = n
        self.terms = out
        self.field = field
        self._lead = None
        self._int = None

    @classmethod
    def _trusted(cls, n, terms, field):
        """Wrap a term map the arithmetic built itself, without the checks
        of ``__init__``: every key must already be a tuple of ``_width(n)``
        naturals and every coefficient a nonzero element of ``field``.
        That holds because every scalar enters through ``field.coerce``
        and the arithmetic reduces what it stores mod the characteristic.
        The randomized suite (``oracle.algebra_fuzz``) checks that the
        arithmetic keeps to this, field membership included."""
        self = object.__new__(cls)
        self.n = n
        self.terms = terms
        self.field = field
        self._lead = None
        self._int = None
        return self

    @classmethod
    def _width(cls, n):
        return cls._SHAPE[0] * n + cls._SHAPE[1]

    @classmethod
    def _key(cls, n, key):
        """``key`` as a tuple, checked to be ``_width(n)`` naturals; a
        ``bool`` is not one."""
        key = tuple(key)
        width = cls._width(n)
        if len(key) != width or any(type(e) is not int or e < 0 for e in key):
            raise ValueError(f"bad {cls.__name__} exponent {key!r}: expected {width} naturals")
        return key

    @classmethod
    def zero(cls, n, field=QQ):
        return cls(n, {}, field)

    @classmethod
    def constant(cls, n, c, field=QQ):
        return cls(n, {(0,) * cls._width(n): c}, field)

    @classmethod
    def monomial(cls, n, key, coeff=1, field=QQ):
        return cls(n, {tuple(key): coeff}, field)

    @classmethod
    def _generator(cls, n, position, coeff=1, field=QQ, power=1):
        """coeff times the variable at flat key ``position``, to ``power``."""
        key = [0] * cls._width(n)
        key[position] = power
        return cls.monomial(n, key, coeff, field)

    @classmethod
    def _variable(cls, n, name, i, coeff, field, power=1):
        """coeff * v^power for the variable v named ``name`` ("t", "x" or
        "D") and ``i``: the one rule from a variable to its flat key
        position.  With t = 1 for HomogOperator and 0 otherwise, x_i is at
        t + i - 1 and D_i at t + n + i - 1; t itself, index 1, is at 0.
        An index that is not an ``int`` in 1..n, and a D for a class
        without D variables (Polynomial), is a ValueError."""
        if type(i) is not int or not 1 <= i <= n or name == "D" and cls._SHAPE[0] == 1:
            raise ValueError(f"{cls.__name__} has no variable {name}_{i!r} in {n} variable(s)")
        t = cls._SHAPE[1]
        return cls._generator(n, {"t": 0, "x": t, "D": t + n}[name] + i - 1, coeff, field, power)

    @classmethod
    def x(cls, n, i, coeff=1, field=QQ):
        """The generator x_i (1-based i)."""
        return cls._variable(n, "x", i, coeff, field)

    @classmethod
    def d(cls, n, i, coeff=1, field=QQ):
        """The generator D_i (1-based i)."""
        return cls._variable(n, "D", i, coeff, field)

    def is_zero(self):
        return not self.terms

    def integer_form(self):
        """(d, T) with ``int`` coefficients, T = d * this value, as the field
        builds it (``integer_form``): over QQ d is the lcm of the
        coefficient denominators, over F_p it is 1 and T is the term map
        itself.  Built on first use and kept, since values are immutable."""
        form = self._int
        if form is None:
            form = self._int = self.field.integer_form(self.terms)
        return form

    def _same_algebra(self, other):
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: {self.n} and {other.n}")
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

    def _plus(self, other, pairs):
        self._same_algebra(other)
        terms = add_terms(dict(self.terms), pairs, self.field.characteristic)
        return type(self)._trusted(self.n, terms, self.field)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._plus(other, other.terms.items())

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._plus(other, ((k, -c) for k, c in other.terms.items()))

    def scale(self, c):
        """This value times the scalar ``c``, reduced mod the characteristic."""
        c = self.field.coerce(c)
        terms = add_terms({}, ((k, c * v) for k, v in self.terms.items()), self.field.characteristic)
        return type(self)._trusted(self.n, terms, self.field)

    def __rmul__(self, other):
        # only scalars reach here; scalar multiplication is central
        return self.scale(other)

    def __pow__(self, k):
        if type(k) is not int or k < 0:
            raise ValueError(f"operator powers must be natural numbers, got {k!r}")
        if k == 0:
            return type(self).constant(self.n, self.field.one(), self.field)
        # square and multiply: fewer than 2*k.bit_length() products, and
        # every factor is a power of self, so their order does not matter
        acc, square = None, self
        while True:
            if k & 1:
                acc = square if acc is None else acc * square
            k >>= 1
            if not k:
                return acc
            square = square * square

    def split(self, key):
        """A key as (k, alpha, beta): its t power (0 where the class has
        no t), its x exponents and its D exponents (() for a polynomial)."""
        t = self._SHAPE[1]
        return (key[0] if t else 0), key[t : t + self.n], key[t + self.n :]

    def __str__(self):
        return format_terms(self)

    def __repr__(self):
        return f"<{type(self).__name__} n={self.n}: {self}>"


class WeylOperator(_TermMap):
    """Normal-ordered differential operator sum(c_{a,b} x^a D^b)."""

    __slots__ = ()
    _SHAPE = (2, 0)  # key width 2 * n

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
        p = self.field.characteristic
        graded = _graded_product(self.n, p, *lifted)
        return WeylOperator._trusted(self.n, t_to_one(graded, p), self.field)

    def apply(self, f: "Polynomial") -> "Polynomial":
        """Act on a polynomial: D_i differentiates, x_i multiplies."""
        if not isinstance(f, Polynomial):
            raise ValueError(f"apply takes a Polynomial, not {type(f).__name__}")
        self._same_algebra(f)
        out = {}
        for key, c in self.terms.items():
            _, alpha, beta = self.split(key)
            add_terms(out, (
                (vec_add(vec_sub(mono, beta), alpha), prod(map(perm, mono, beta)) * c * fc)
                for mono, fc in f.terms.items()
                if vec_leq(beta, mono)
            ), self.field.characteristic)
        return Polynomial(self.n, out, self.field)


class HomogOperator(_TermMap):
    """Element of the graded algebra with central t and D_i x_i = x_i D_i + t^2."""

    __slots__ = ()
    _SHAPE = (2, 1)  # key width 2 * n + 1

    @classmethod
    def t(cls, n, k=1, coeff=1, field=QQ):
        return cls._variable(n, "t", 1, coeff, field, k)

    def t_shift(self, j):
        """Multiply by t^j (t is central, so this just raises every k)."""
        if type(j) is not int or j < 0:
            raise ValueError(f"t powers must be natural numbers, got {j!r}")
        shifted = {(k[0] + j,) + k[1:]: c for k, c in self.terms.items()}
        return HomogOperator._trusted(self.n, shifted, self.field)

    def __mul__(self, other):
        if not isinstance(other, HomogOperator):
            return self.scale(other)
        self._same_algebra(other)
        field = self.field
        d1, t1 = self.integer_form()
        d2, t2 = other.integer_form()
        product = _graded_product(self.n, field.characteristic, t1, t2)
        return HomogOperator._trusted(self.n, field.from_integer_form(d1 * d2, product), field)


class Polynomial(_TermMap):
    """Sparse polynomial in x_1..x_n; the carrier of the operator action."""

    __slots__ = ()
    _SHAPE = (1, 0)  # key width n

    @classmethod
    def x(cls, n, i, power=1, coeff=1, field=QQ):
        return cls._variable(n, "x", i, coeff, field, power)


def degree_lex_key(key):
    """Degree-then-lex sort key for an exponent key: deterministic, but
    blind to any weight order.  Terms are ordered by it when no order
    context is given (``orders.term_key``)."""
    return (sum(key), key)


def format_terms(op, sort_key=degree_lex_key):
    """Render the terms of ``op`` in expression syntax, largest term first.

    ``sort_key`` maps an exponent key to a sortable value.
    """
    chunks = []
    for key in sorted(op.terms, key=sort_key, reverse=True):
        k, alpha, beta = op.split(key)
        powers = [("t", k)]
        powers += [(f"x{i + 1}", e) for i, e in enumerate(alpha)]
        powers += [(f"D{i + 1}", e) for i, e in enumerate(beta)]
        body = "*".join(name + (f"^{e}" if e > 1 else "") for name, e in powers if e)
        coeff = str(op.terms[key])
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
