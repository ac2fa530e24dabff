"""One benchmark worker process: set up, then measure or trace.

Usage: ``python3 perfbench/worker.py setup|measure|trace`` with the run
description as JSON on standard input (``workloads.make_inputs`` output
plus ``seconds``).  Prints one JSON object on standard output.

``setup`` times importing ``weylstd``, building the order contexts and
parsing the operator texts, and stops.  ``measure`` then runs ops in a
closed loop, one thread, until their summed wall time reaches
``seconds``, and checks each op's output outside its timed region.
``trace`` runs each op of a fixed set untraced, traced, then untraced
again, so counts repeat exactly on a seed.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Ops in the fixed set of a traced run.
TRACE_OPS = {"gkz-complete": 1, "oracle-witness": 4, "small-ideals": 324}


def _rss_mb():
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _setup(payload):
    """Import the package and prepare the session; returns (session, seconds)."""
    sys.path.insert(0, str(HERE))
    from workloads import Session

    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import weylstd

    session = Session(weylstd, payload)
    session.setup()
    return session, perf_counter() - start


class Outcome:
    """Op times, failures and the first few problems of a run."""

    def __init__(self):
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, index, elapsed, problems):
        self.attempted += 1
        self.times.append(elapsed)
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append({"ideal": index, "problems": problems})


def _attempt(session, index, run=None):
    """Run one op, timed, then check it untimed; returns (op seconds, problems)."""
    run = session.run_op if run is None else run
    start = perf_counter()
    try:
        result = run(index)
    except Exception as exc:  # any failure of the program counts against it
        return perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    elapsed = perf_counter() - start
    return elapsed, session.check(index, result)


def measure(payload):
    session, setup_s = _setup(payload)
    setup_rss_mb = _rss_mb()
    seconds = payload["seconds"]
    round_size = session.workload.round_size
    pool = len(session.ideals)
    out = Outcome()
    busy = 0.0
    i = 0
    while busy < seconds or i % round_size:
        index = i % pool
        elapsed, problems = _attempt(session, index)
        busy += elapsed
        out.record(index, elapsed, problems)
        i += 1
    return {
        "setup_s": setup_s,
        "times": out.times,
        "busy_s": busy,
        "attempted": out.attempted,
        "failed": out.failed,
        "problems": out.problems,
        "setup_rss_mb": setup_rss_mb,
        "peak_rss_mb": _rss_mb(),
    }


def trace(payload):
    import tracer as tracing

    session, _ = _setup(payload)
    count = TRACE_OPS[session.workload.name]
    indices = [i % len(session.ideals) for i in range(count)]

    tr = tracing.Tracer()
    wrappers = tracing.plan(tr)
    root = tr.name_id("op")

    def run_traced(index):
        wrappers.enable()
        try:
            return tr.call(root, session.run_op, index)
        finally:
            wrappers.disable()

    # Each traced op sits between two untraced runs of the same op, so a
    # drift in machine speed cancels out of the overhead ratio.
    untraced, traced = Outcome(), Outcome()
    for index in indices:
        untraced.record(index, *_attempt(session, index))
        traced.record(index, *_attempt(session, index, run_traced))
        untraced.record(index, *_attempt(session, index))

    spans_file = payload.get("spans_file")
    if spans_file:
        tr.write(spans_file, {"workload": session.workload.name, "seed": payload["seed"]})
    return {
        "untraced_s": sum(untraced.times) / 2,
        "traced_s": sum(traced.times),
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "problems": untraced.problems + traced.problems,
        "layers": layer_metrics(tr),
    }


def layer_metrics(tr):
    """Per-layer totals of a traced run, keyed by metric name."""
    root = tr.name_id("op")
    calls = lambda name: tr.by_name(tr.calls, name)
    self_s = lambda name: tr.by_name(tr.self_s, name)
    total_s = lambda name: tr.by_name(tr.total_s, name)
    counts = tr.counts
    pairs = counts["standard_basis.pairs"]
    zeros = counts["standard_basis.zero_reductions"]
    divides = calls("division.divide")
    return {
        "weyl.mul.calls": calls("weyl.mul"),
        "weyl.mul.self_s": self_s("weyl.mul"),
        "weyl.mul.term_pairs": counts["weyl.mul.term_pairs"],
        "weyl.add.calls": calls("weyl.add"),
        "weyl.add.self_s": self_s("weyl.add"),
        "orders.leading_term.calls": calls("orders.leading_term"),
        "orders.leading_term.self_s": self_s("orders.leading_term"),
        "orders.graded_key.calls": counts["orders.graded_key.calls"],
        "division.divide.calls": divides,
        "division.divide.self_s": self_s("division.divide"),
        "division.steps": counts["division.steps"],
        "division.check.self_s": self_s("division.check"),
        "division.check.total_s": total_s("division.check"),
        "division.zero_remainder_ratio": counts["division.zero_remainders"] / divides if divides else 0.0,
        "standard_basis.pairs": pairs,
        "standard_basis.zero_reductions": zeros,
        "standard_basis.useful_pair_ratio": (pairs - zeros) / pairs if pairs else 0.0,
        "standard_basis.basis_size": counts["standard_basis.basis_size"],
        "standard_basis.max_degree": tr.maxima.get("standard_basis.max_degree", 0),
        "standard_basis.semisyzygy.self_s": self_s("standard_basis.semisyzygy"),
        "standard_basis.loop.self_s": self_s("standard_basis.loop"),
        "standard_basis.interreduce.self_s": self_s("standard_basis.interreduce"),
        "standard_basis.certificate.total_s": total_s("standard_basis.certificate"),
        "standard_basis.report.self_s": self_s("standard_basis.report"),
        "oracle.witness.self_s": self_s("oracle.witness"),
        "oracle.witness.rows": counts["oracle.witness.rows"],
        "oracle.witness.rank": counts["oracle.witness.rank"],
        "oracle.agree.self_s": self_s("oracle.agree"),
        "homogenize.self_s": self_s("homogenize"),
        "expressions.parse.self_s": self_s("expressions.parse"),
        "jsonio.to_obj.self_s": self_s("jsonio.to_obj"),
        "scalars.coeff_bits_max": tr.maxima.get("scalars.coeff_bits_max", 0),
        "op.self_s": self_s("op"),
        "trace.self_sum_s": tr.self_sum(),
        "trace.spans": len(tr.span_name),
        "trace.orphan_spans": sum(
            1 for name, parent in zip(tr.span_name, tr.span_parent) if parent < 0 and name != root
        ),
    }


def setup(payload):
    return {"setup_s": _setup(payload)[1]}


MODES = {"setup": setup, "measure": measure, "trace": trace}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0] not in MODES:
        print(f"usage: worker.py {'|'.join(MODES)} < run.json", file=sys.stderr)
        return 2
    payload = json.load(sys.stdin)
    try:
        result = MODES[argv[0]](payload)
    except Exception:
        traceback.print_exc()
        return 1
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
