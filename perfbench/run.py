"""Benchmark runner for weylstd.

    python3 perfbench/run.py --workload gkz-complete --seed 0 --seconds 30 --trace 0

Makes the workload's inputs from the seed, and runs one worker that
measures ops in a closed loop and checks every output.  Fresh worker
processes, before and after it, time set-up.  With ``--trace 1`` it instead runs a
fixed op set untraced and traced, and reports per-layer numbers; the
spans go to ``perfbench/out/``.

Prints a readable report, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 0 only
when every op succeeded and passed its checks.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, make_inputs  # noqa: E402

SETUP_SAMPLES = 9  # fresh set-up processes per run, besides the measuring one
WORKER_TIMEOUT_S = 170

# End-to-end metrics in the result line.  The report also prints
# ops_per_s, op_s_tail and fail_ratio: the first two swing with the few
# slow ideals a run happens to draw, and fail_ratio is 0 on a good run.
END_TO_END = ("setup_s", "op_s_p50", "peak_rss_mb")
UNITS = {"setup_s": "s", "op_s_p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

# Per-layer metrics every workload reports, with their units.  The traced
# run also prints the rest of ``worker.layer_metrics``.
PER_LAYER = {
    "weyl.mul.calls": "count",
    "weyl.mul.self_s": "s",
    "weyl.mul.term_pairs": "count",
    "weyl.add.calls": "count",
    "weyl.add.self_s": "s",
    "orders.leading_term.calls": "count",
    "orders.leading_term.self_s": "s",
    "orders.graded_key.calls": "count",
    "division.divide.calls": "count",
    "division.divide.self_s": "s",
    "division.steps": "count",
    "division.check.self_s": "s",
    "division.zero_remainder_ratio": "ratio",
    "standard_basis.pairs": "count",
    "standard_basis.zero_reductions": "count",
    "standard_basis.useful_pair_ratio": "ratio",
    "standard_basis.basis_size": "count",
    "standard_basis.max_degree": "count",
    "standard_basis.semisyzygy.self_s": "s",
    "standard_basis.loop.self_s": "s",
    "standard_basis.interreduce.self_s": "s",
    "standard_basis.certificate.total_s": "s",
    "standard_basis.report.self_s": "s",
    "oracle.witness.rows": "count",
    "oracle.witness.rank": "count",
    "homogenize.self_s": "s",
    "expressions.parse.self_s": "s",
    "jsonio.to_obj.self_s": "s",
    "scalars.coeff_bits_max": "bits",
    "trace.overhead_ratio": "ratio",
}

# The self times of the span trees must add up to the traced wall time, as
# read by the worker's own timer around each traced op.
SELF_SUM_TOLERANCE = 0.05


class WorkerError(RuntimeError):
    pass


def run_worker(mode, payload):
    """Run ``worker.py <mode>`` in a fresh process and return its JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode],
        input=json.dumps(payload),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise WorkerError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(times):
    """(label, value) of the highest listed percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    for p in (99.9, 99.5, 99, 95, 90, 75, 50):
        rank = math.ceil(n * p / 100)  # nearest rank: samples at or below it
        if rank >= 1 and n - rank >= 10:
            return f"p{p:g}", ordered[rank - 1]
    return None


def metric(name, value, unit):
    return name, {"value": value, "unit": unit}


def run_measured(payload):
    # Set-up samples straddle the measuring worker, so that they see the
    # machine in the same state as the ops do.
    def setup_samples(count):
        return [run_worker("setup", payload)["setup_s"] for _ in range(count)]

    setups = setup_samples(SETUP_SAMPLES // 2)
    res = run_worker("measure", payload)
    setups += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2) + [res["setup_s"]]
    times = res["times"]
    completed = len(times)
    values = {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(times),
        "ops_per_s": completed / res["busy_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    lines = [f"{name:<14}{value:>14.6g} {UNITS[name]}" for name, value in values.items()]
    lines[0] += f"  (median of {len(setups)} fresh set-ups)"
    lines[1] += f"  (n={completed})"
    lines[2] += f"  (over {res['busy_s']:.3f} s of ops)"
    growth = res["peak_rss_mb"] - res["setup_rss_mb"]
    lines[3] += f"  ({res['setup_rss_mb']:.3f} MB after set-up, ops and checks add {growth:.3f} MB)"
    tail = tail_percentile(times)
    if tail is None:
        lines.append(f"{'op_s_tail':<14}{'-':>14}    (n={completed}: under 20 ops, undefined)")
    else:
        label, value = tail
        lines.append(f"{'op_s_tail':<14}{value:>14.6g} s  ({label}, n={completed})")
    fail_ratio = res["failed"] / res["attempted"]
    lines.append(f"{'fail_ratio':<14}{fail_ratio:>14.6g}    ({res['failed']}/{res['attempted']})")
    metrics = dict(metric(name, values[name], UNITS[name]) for name in END_TO_END)
    return res, metrics, lines


def run_traced(payload, seed):
    OUT.mkdir(exist_ok=True)
    payload = dict(payload, spans_file=str(OUT / f"spans-{payload['workload']}-{seed}.json.gz"))
    res = run_worker("trace", payload)
    layers = dict(res["layers"])
    layers["trace.overhead_ratio"] = res["traced_s"] / res["untraced_s"]
    layers["trace.self_sum_ratio"] = layers["trace.self_sum_s"] / res["traced_s"]
    # Nested self times sum to their root's duration by construction, so
    # the ratio catches only time outside the root spans (wrapper
    # switching, or spans left open outside an op).  A wrapped call outside
    # every op span means the wrappers leaked out of the traced region.
    if abs(layers["trace.self_sum_ratio"] - 1) > SELF_SUM_TOLERANCE:
        res["failed"] += 1
        res["problems"].append({"problems": ["span self times do not add up to traced wall time"]})
    if layers["trace.orphan_spans"]:
        res["failed"] += 1
        res["problems"].append({"problems": ["wrapped calls ran outside every op span"]})
    lines = [f"{name:<38}{value:>16.6g}" for name, value in layers.items()]
    lines.append(f"spans written to {payload['spans_file']}")
    metrics = dict(metric(name, layers[name], unit) for name, unit in PER_LAYER.items())
    return res, metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "weylstd" / "__init__.py").is_file():
        print(f"run.py: no weylstd package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    payload = dict(make_inputs(args.workload, args.seed), seconds=args.seconds)
    try:
        if args.trace:
            res, metrics, lines = run_traced(payload, args.seed)
        else:
            res, metrics, lines = run_measured(payload)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print("  " + line)
    for problem in res["problems"]:
        print(f"  FAILED {problem}")
    correct = res["failed"] == 0 and res["attempted"] >= 1
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
