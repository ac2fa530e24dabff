"""Outside-in span tracer for the weylstd layers.

The benchmark wraps calls into each module's functions from outside the
package: nothing under ``src/`` knows it is being traced.  A wrapped
call opens a span (name, parent span, start, end) and, when it returns,
adds its duration to the per-name totals.  Self time is a span's
duration minus the time its child spans cover, so the self times of a
whole span tree add up to the duration of its root.

Functions the package imports by name (``from .division import divide``)
are rebound in every ``weylstd`` module that holds them; methods are
wrapped on their class.  :func:`plan` finds every place a wrapper goes,
and its ``enable`` and ``disable`` switch the wrappers in and out.

Spans stay in memory, in flat arrays, and are written out once at the
end of a run by :meth:`Tracer.write`.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = []  # indices of the spans now open, innermost last
        self._child = []  # child time covered so far, one slot per open span
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self.maxima = {}

    def name_id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def call(self, name_id, fn, *args, **kwargs):
        """Run ``fn`` inside a span named by ``name_id``."""
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_end.append(0.0)
        self._open.append(index)
        self._child.append(0.0)
        start = perf_counter()
        self.span_start.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.span_end[index] = end
            self._open.pop()
            dur = end - start
            self.calls[name_id] += 1
            self.self_s[name_id] += dur - self._child.pop()
            self.total_s[name_id] += dur
            if self._child:
                self._child[-1] += dur

    def span(self, name, fn, *args, **kwargs):
        return self.call(self.name_id(name), fn, *args, **kwargs)

    def parent_is(self, name):
        """Whether the innermost open span is named ``name``."""
        return bool(self._open) and self.names[self.span_name[self._open[-1]]] == name

    def maximum(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def by_name(self, table, name):
        i = self._ids.get(name)
        return table.get(i, 0) if i is not None else 0

    def self_sum(self):
        return sum(self.self_s.values())

    def write(self, path, extra=None):
        """Write every span plus the per-name totals as gzipped JSON."""
        doc = {
            "names": self.names,
            "spans": {
                "name": list(self.span_name),
                "parent": list(self.span_parent),
                "start": list(self.span_start),
                "end": list(self.span_end),
            },
            "calls": {self.names[i]: c for i, c in self.calls.items()},
            "self_s": {self.names[i]: s for i, s in self.self_s.items()},
            "total_s": {self.names[i]: s for i, s in self.total_s.items()},
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }
        if extra:
            doc.update(extra)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _span_wrapper(tracer, name, fn, before=None, after=None):
    name_id = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer, args)
        out = tracer.call(name_id, fn, *args, **kwargs)
        if after is not None:
            after(tracer, args, out)
        return out

    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def _counting_wrapper(tracer, name, fn):
    counts = tracer.counts

    def wrapper(*args):
        counts[name] += 1
        return fn(*args)

    wrapper.__wrapped__ = fn
    return wrapper


# Hooks that record counts at the layer boundaries.  They read only the
# arguments and results, never call back into wrapped code.


def _before_mul(tracer, args):
    a, b = args
    if hasattr(b, "terms"):
        tracer.counts["weyl.mul.term_pairs"] += len(a.terms) * len(b.terms)
    # A product made directly inside the truncation witness is one of its
    # rows (monomial times generator); the row count is read off the calls
    # the witness makes, not worked out from its inputs.
    if tracer.parent_is("oracle.witness"):
        tracer.counts["oracle.witness.rows"] += 1


def _after_divide(tracer, args, out):
    tracer.counts["division.steps"] += sum(len(q.terms) for q in out.quotients)
    if out.remainder.is_zero():
        tracer.counts["division.zero_remainders"] += 1


def _after_buchberger(tracer, args, out):
    tracer.counts["standard_basis.pairs"] += out.stats.s_pairs_processed
    tracer.counts["standard_basis.zero_reductions"] += out.stats.reductions_to_zero
    tracer.maximum("standard_basis.max_degree", out.stats.max_degree)


def _after_report(tracer, args, out):
    tracer.counts["standard_basis.basis_size"] += len(out.homog_basis)
    tracer.maximum("scalars.coeff_bits_max", coeff_bits(out.homog_basis))


def _after_witness(tracer, args, out):
    tracer.counts["oracle.witness.rank"] += out.matrix_rank


def coeff_bits(operators):
    """Largest numerator or denominator bit length over the operators."""
    bits = 0
    for op in operators:
        for c in op.terms.values():
            num = getattr(c, "numerator", None)
            if num is None:  # prime-field element: its residue
                num, den = c.value, 1
            else:
                den = c.denominator
            bits = max(bits, abs(num).bit_length(), den.bit_length())
    return bits


# (span name, module, function name, before hook, after hook)
FUNCTION_SPANS = (
    ("orders.leading_term", "orders", "leading_term", None, None),
    ("division.divide", "division", "divide", None, _after_divide),
    ("division.check", "division", "_check_division", None, None),
    ("standard_basis.semisyzygy", "standard_basis", "semisyzygy", None, None),
    ("standard_basis.loop", "standard_basis", "buchberger", None, _after_buchberger),
    ("standard_basis.interreduce", "standard_basis", "_interreduce", None, None),
    ("standard_basis.certificate", "standard_basis", "_check_completion", None, None),
    ("standard_basis.report", "standard_basis", "compute_standard_basis", None, _after_report),
    ("oracle.witness", "oracle", "truncation_witness", None, _after_witness),
    ("oracle.agree", "oracle", "oracle_pipeline_agree", None, None),
    ("homogenize", "homogenize", "homogenize", None, None),
    ("homogenize", "homogenize", "dehomogenize", None, None),
    ("expressions.parse", "expressions", "parse_operator", None, None),
    ("jsonio.to_obj", "jsonio", "operator_to_obj", None, None),
)

# (span name, module, class, method, before hook)
METHOD_SPANS = (
    ("weyl.mul", "weyl", "HomogOperator", "__mul__", _before_mul),
    ("weyl.add", "weyl", "HomogOperator", "__add__", None),
)

# (counter name, module, class, method): counted, not timed, because
# they run hundreds of thousands of times per op set and a span each
# would swamp the run.
METHOD_COUNTS = (("orders.graded_key.calls", "orders", "OrderContext", "graded_key"),)


def _package_modules(package):
    prefix = package + "."
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(prefix))
    ]


class Installation:
    """Where each wrapper goes and what it replaces.

    ``enable`` puts the wrappers in place, ``disable`` restores the
    originals; both only rebind names, so toggling is cheap.
    """

    def __init__(self):
        self._plan = []  # (target, attribute, original, wrapper)

    def add(self, target, attr, wrapper):
        self._plan.append((target, attr, getattr(target, attr), wrapper))

    def enable(self):
        for target, attr, _, wrapper in self._plan:
            setattr(target, attr, wrapper)

    def disable(self):
        for target, attr, original, _ in reversed(self._plan):
            setattr(target, attr, original)


def plan(tracer, package="weylstd"):
    """Plan wrappers for every traced function and method of an imported
    package.  Nothing is rebound until the plan's ``enable`` is called."""
    modules = _package_modules(package)
    by_name = {m.__name__: m for m in modules}
    inst = Installation()
    for span, mod_name, fn_name, before, after in FUNCTION_SPANS:
        original = getattr(by_name[f"{package}.{mod_name}"], fn_name)
        wrapper = _span_wrapper(tracer, span, original, before, after)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    inst.add(module, attr, wrapper)
    for span, mod_name, cls_name, method, before in METHOD_SPANS:
        cls = getattr(by_name[f"{package}.{mod_name}"], cls_name)
        inst.add(cls, method, _span_wrapper(tracer, span, getattr(cls, method), before))
    for counter, mod_name, cls_name, method in METHOD_COUNTS:
        cls = getattr(by_name[f"{package}.{mod_name}"], cls_name)
        inst.add(cls, method, _counting_wrapper(tracer, counter, getattr(cls, method)))
    return inst
