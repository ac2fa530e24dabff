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
    if not isinstance(data, dict) or "terms" not in data:
        raise ValueError("expected an object with a 'terms' array")
    if "n" in data and data["n"] != n:
        raise ValueError(f"operator declares n={data['n']}, context has n={n}")
    pairs = []
    for entry in data["terms"]:
        alpha = tuple(entry["alpha"])
        beta = tuple(entry["beta"])
        if len(alpha) != n or len(beta) != n:
            raise ValueError(f"term has {len(alpha)}+{len(beta)} exponents, expected {n}+{n}")
        coeff = entry["coeff"]
        coeff = field.parse(coeff) if isinstance(coeff, str) else field.coerce(coeff)
        k = (entry.get("k", 0),) if cls is HomogOperator else ()
        # checked before add_terms merges it, as (1,) and (True,) are one dict key
        pairs.append((cls._key(n, k + alpha + beta), coeff))
    return cls(n, add_terms({}, pairs), field)


def weyl_from_obj(data, n, field=QQ) -> WeylOperator:
    return _from_obj(WeylOperator, data, n, field)


def homog_from_obj(data, n, field=QQ) -> HomogOperator:
    return _from_obj(HomogOperator, data, n, field)
