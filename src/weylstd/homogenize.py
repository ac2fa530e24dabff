"""Moving operators into and out of the graded companion algebra.

Homogenization pads every term of an operator with the power of t that
lifts it to the total degree of the whole operator, producing a graded
element.  Setting t = 1 undoes it, up to the t power that was common to
all terms.  Both maps are exact on term dicts, no arithmetic involved.
"""

from __future__ import annotations

from .weyl import HomogOperator, WeylOperator, t_to_one


def homogenize(op: WeylOperator) -> HomogOperator:
    """Lift to the graded algebra: each term x^a D^b of an operator of
    total degree d becomes t^(d - |a| - |b|) x^a D^b."""
    if not isinstance(op, WeylOperator):
        raise ValueError(f"homogenize takes a WeylOperator, not {type(op).__name__}")
    if op.is_zero():
        raise ValueError("cannot homogenize the zero operator")
    d = op.total_degree()
    return HomogOperator(op.n, {(d - sum(m),) + m: c for m, c in op.terms.items()}, op.field)


def dehomogenize(h: HomogOperator) -> WeylOperator:
    """Set t = 1.  Terms that differed only in their t power merge, so the
    result can have fewer terms, and is zero only if they all cancel."""
    if not isinstance(h, HomogOperator):
        raise ValueError(f"dehomogenize takes a HomogOperator, not {type(h).__name__}")
    return WeylOperator._trusted(h.n, t_to_one(h.terms, h.field.characteristic), h.field)


def graded_degree(h: HomogOperator) -> int:
    """Common degree k + |a| + |b| of all terms.  Raises if the element is
    zero (every degree fits) or mixed (no degree fits)."""
    degrees = {sum(m) for m in h.terms}
    if len(degrees) != 1:
        raise ValueError(f"not homogeneous of a single degree: {sorted(degrees)}")
    return degrees.pop()


def is_homogeneous(h: HomogOperator) -> bool:
    return len({sum(m) for m in h.terms}) <= 1


def project_exponent(m):
    """Forget the t exponent of a flat (k, a, b) key."""
    return m[1:]
