"""JSON interchange for operators.

Terms serialize as ``{"alpha": [...], "beta": [...], "coeff": "num/den"}``
with a leading ``"k"`` entry for graded elements.  Coefficients travel as
exact strings, never floats, so a round trip is bit-identical; the reader
takes a string through ``field.parse`` and anything else through
``field.coerce``, so only an int or ``num``/``num/den`` gets in.  Term
order in the output follows the active order descending when a context
is given, matching the text printer.
"""

from __future__ import annotations

from .orders import term_key
from .scalars import QQ
from .weyl import HomogOperator, WeylOperator, add_terms


def operator_to_obj(op, ctx=None):
    terms = []
    for m in sorted(op.terms, key=term_key(ctx, op), reverse=True):
        k, alpha, beta = op.split(m)
        entry = {"k": k} if isinstance(op, HomogOperator) else {}
        entry.update(alpha=list(alpha), beta=list(beta), coeff=str(op.terms[m]))
        terms.append(entry)
    return {"n": op.n, "terms": terms}


def _from_obj(cls, data, n, field):
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
        raise ValueError("expected an object with a 'terms' array")
    if "n" in data and data["n"] != n:
        raise ValueError(f"operator declares n={data['n']}, context has n={n}")
    graded = cls is HomogOperator
    needed = {"alpha", "beta", "coeff"}
    allowed = needed | {"k"} if graded else needed
    pairs = []
    for entry in data["terms"]:
        # a plain operator has no t, so a "k" there is refused, not dropped
        if not isinstance(entry, dict) or not needed <= entry.keys() <= allowed:
            optional = " and an optional k" if graded else ""
            raise ValueError(f"a term must be an object with keys alpha, beta and coeff{optional}")
        alpha, beta = entry["alpha"], entry["beta"]
        if not isinstance(alpha, list) or not isinstance(beta, list):
            raise ValueError("term exponents alpha and beta must be arrays")
        if len(alpha) != n or len(beta) != n:
            raise ValueError(f"term has {len(alpha)}+{len(beta)} exponents, expected {n}+{n}")
        coeff = entry["coeff"]
        coeff = field.parse(coeff) if isinstance(coeff, str) else field.coerce(coeff)
        k = [entry.get("k", 0)] if graded else []
        # checked before add_terms merges it, as (1,) and (True,) are one dict key
        pairs.append((cls._key(n, k + alpha + beta), coeff))
    return cls(n, add_terms({}, pairs, field.characteristic), field)


def weyl_from_obj(data, n, field=QQ) -> WeylOperator:
    return _from_obj(WeylOperator, data, n, field)


def homog_from_obj(data, n, field=QQ) -> HomogOperator:
    return _from_obj(HomogOperator, data, n, field)
