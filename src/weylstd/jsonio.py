"""JSON interchange for operators.

Terms serialize as ``{"alpha": [...], "beta": [...], "coeff": "num/den"}``
with a leading ``"k"`` entry for graded elements.  Coefficients travel as
exact strings, never floats, so a round trip is bit-identical.  Term
order in the output follows the active order descending when a context
is given, matching the text printer.
"""

from __future__ import annotations

from .orders import term_key
from .scalars import QQ
from .weyl import HomogOperator, WeylOperator


def operator_to_obj(op, ctx=None):
    homog = isinstance(op, HomogOperator)
    n = op.n
    terms = []
    for m in sorted(op.terms, key=term_key(ctx, op), reverse=True):
        entry = {}
        if homog:
            entry["k"] = m[0]
            alpha, beta = m[1 : n + 1], m[n + 1 :]
        else:
            alpha, beta = m[:n], m[n:]
        entry["alpha"] = list(alpha)
        entry["beta"] = list(beta)
        entry["coeff"] = str(op.terms[m])
        terms.append(entry)
    return {"n": n, "terms": terms}


def _read_terms(data, n, field, homog):
    if not isinstance(data, dict) or "terms" not in data:
        raise ValueError("expected an object with a 'terms' array")
    if "n" in data and data["n"] != n:
        raise ValueError(f"operator declares n={data['n']}, context has n={n}")
    out = {}
    for entry in data["terms"]:
        alpha = tuple(entry["alpha"])
        beta = tuple(entry["beta"])
        if len(alpha) != n or len(beta) != n:
            raise ValueError(f"term has {len(alpha)}+{len(beta)} exponents, expected {n}+{n}")
        coeff = entry["coeff"]
        coeff = field.parse(coeff) if isinstance(coeff, str) else field.from_int(coeff)
        key = ((entry.get("k", 0),) if homog else ()) + alpha + beta
        acc = out.get(key)
        total = coeff if acc is None else acc + coeff
        if total == 0:
            out.pop(key, None)
        else:
            out[key] = total
    return out


def weyl_from_obj(data, n, field=QQ) -> WeylOperator:
    return WeylOperator(n, _read_terms(data, n, field, homog=False), field)


def homog_from_obj(data, n, field=QQ) -> HomogOperator:
    return HomogOperator(n, _read_terms(data, n, field, homog=True), field)
