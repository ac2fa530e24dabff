"""Command-line front end.

Every subcommand takes operators as positional arguments; an argument
naming an existing file is read instead (one expression per line, ``#``
comments).  The weight configuration comes from ``--config``; without
one the order filtration on a single variable pair is assumed.

Exit codes: 0 success, 2 parse, configuration or usage error, 3 degree
cap reached, 4 internal invariant violation (including verify failures) or
any other unexpected internal error, which is reported in one line
rather than as a traceback.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from dataclasses import replace

from .config import RunConfig, load_config
from .division import divide
from .errors import (
    ConfigError,
    DegreeCapExceeded,
    InvariantViolation,
    OracleSizeError,
    ParseError,
)
from .expressions import format_operator, parse_operator
from .homogenize import homogenize
from .jsonio import operator_to_obj
from .oracle import algebra_fuzz, oracle_pipeline_agree
from .orders import leading_term, principal_symbol
from .standard_basis import compute_standard_basis

_ERROR_CODES = {
    ParseError: ("parse-error", 2),
    ConfigError: ("config-error", 2),
    OracleSizeError: ("oracle-size", 2),
    DegreeCapExceeded: ("degree-cap", 3),
    InvariantViolation: ("invariant-violation", 4),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    output = getattr(args, "output", None)
    try:
        config_path = getattr(args, "config", None)
        cfg = load_config(config_path) if config_path else RunConfig(n=1)
        output = output or cfg.output
        # flags override the file through the dataclass, so they are
        # validated exactly as the file's own values are
        flags = {key: getattr(args, key) for key in ("output", "degree_cap") if hasattr(args, key)}
        cfg = replace(cfg, **flags)
        return _dispatch(args, cfg)
    except tuple(_ERROR_CODES) as e:
        code, status = _ERROR_CODES[type(e)]
        _emit_error(output or "text", code, str(e))
        return status
    except ValueError as e:  # operands the command cannot take, e.g. too few or zero
        _emit_error(output or "text", "usage-error", str(e))
        return 2
    except Exception as e:  # the last boundary before the user
        _emit_error(output or "text", "internal-error", f"internal error: {type(e).__name__}: {e}")
        return 4


def _build_parser():
    # the shared flags live on a parent parser with SUPPRESS defaults so
    # they may appear either before or after the subcommand; whichever
    # position the user filled wins and absent flags leave no attribute
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", metavar="PATH", help="key = value configuration file")
    common.add_argument("--output", choices=("text", "json"), help="override the output mode")
    common.add_argument("--degree-cap", type=int, metavar="N", help="override the completion degree cap")
    common.add_argument("--seed", type=int, metavar="N", help="seed for verify")
    parser = argparse.ArgumentParser(
        prog="weylstd",
        parents=[common],
        description="Standard bases of left ideals of differential operators "
        "for admissible weight filtrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, operands="operators"):
        p = sub.add_parser(name, help=help_text, parents=[common])
        if operands:
            p.add_argument("operands", nargs="+", metavar="EXPR|FILE", help=operands)
        return p

    command("normalize", "normal-order operator expressions")
    command("mul", "product of the operands, left to right")
    command("exp", "leading exponent under the configured weights", "one operator")
    command("symbol", "principal symbol under the configured weights", "one operator")
    command("homogenize", "lift an operator to the graded algebra", "one operator")
    command("divide", "divide the first operand by the rest in the graded algebra",
            "dividend, then divisors")
    command("std-basis", "compute a standard basis and report every artifact")
    command("gr-gens", "generators of the associated graded ideal")
    command("staircase", "minimal staircase of the ideal's leading exponents")
    sub.add_parser("verify", help="run the randomized self-checks and the brute-force oracle",
                   parents=[common])
    return parser


def _dispatch(args, cfg):
    ctx = cfg.order_context()
    fld = cfg.scalar_field()
    if args.command == "verify":
        return _run_verify(getattr(args, "seed", 0), cfg, ctx, fld)

    ops = _read_operands(args.operands, cfg.n, fld)
    doc, text = _run_command(args.command, ops, ctx, cfg.degree_cap)
    if cfg.output == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(text)
    return 0


def _run_command(command, ops, ctx, cap):
    if command == "normalize":
        return (
            {"operators": [operator_to_obj(op, ctx) for op in ops]},
            "\n".join(format_operator(op, ctx) for op in ops),
        )
    if command == "mul":
        if not ops:
            raise ValueError("mul needs at least one operator")
        acc = ops[0]
        for op in ops[1:]:
            acc = acc * op
        return {"operator": operator_to_obj(acc, ctx)}, format_operator(acc, ctx)
    if command == "exp":
        _expect_single(ops, "exp")
        m = leading_term(ctx, ops[0]).exponent
        _, alpha, beta = ops[0].split(m)
        return {"alpha": list(alpha), "beta": list(beta)}, str(tuple(m))
    if command == "symbol":
        _expect_single(ops, "symbol")
        sym = principal_symbol(ctx, ops[0])
        return {"operator": operator_to_obj(sym, ctx)}, format_operator(sym, ctx)
    if command == "homogenize":
        _expect_single(ops, "homogenize")
        h = homogenize(ops[0])
        return {"operator": operator_to_obj(h, ctx)}, format_operator(h, ctx)
    if command == "divide":
        if len(ops) < 2:
            raise ValueError("divide needs a dividend and at least one divisor")
        dividend, divisors = homogenize(ops[0]), [homogenize(op) for op in ops[1:]]
        res = divide(ctx, dividend, divisors)
        doc = {
            "quotients": [operator_to_obj(q, ctx) for q in res.quotients],
            "remainder": operator_to_obj(res.remainder, ctx),
        }
        lines = [
            f"quotient {i + 1}: {format_operator(q, ctx)}"
            for i, q in enumerate(res.quotients)
        ]
        lines.append(f"remainder: {format_operator(res.remainder, ctx)}")
        return doc, "\n".join(lines)

    report = compute_standard_basis(ctx, ops, degree_cap=cap)
    if command == "gr-gens":
        return (
            {"symbols": [operator_to_obj(s, ctx) for s in report.symbols]},
            "\n".join(format_operator(s, ctx) for s in report.symbols),
        )
    if command == "staircase":
        doc = {"staircase": [list(m) for m in report.staircase]}
        if not report.staircase:
            return doc, "(empty staircase: zero ideal)"
        lines = [str(tuple(m)) for m in report.staircase]
        if ctx.n == 1:
            lines.append(_staircase_grid(report.staircase))
        return doc, "\n".join(lines)
    return _report_doc(report, ctx), _report_text(report, ctx)


def _expect_single(ops, name):
    if len(ops) != 1:
        raise ValueError(f"{name} takes exactly one operator, got {len(ops)}")


def _report_doc(report, ctx):
    return {
        "homog_basis": [operator_to_obj(g, ctx) for g in report.homog_basis],
        "delta_basis": [operator_to_obj(g, ctx) for g in report.delta_basis],
        "symbols": [operator_to_obj(s, ctx) for s in report.symbols],
        "staircase": [list(m) for m in report.staircase],
        "cofactors": [
            [operator_to_obj(c, ctx) for c in row] for row in report.cofactors
        ],
        "stats": dict(vars(report.stats)),
    }


def _report_text(report, ctx):
    lines = [f"standard basis with {len(report.delta_basis)} element(s)"]
    lines.append("graded basis:")
    lines.extend(f"  {format_operator(g, ctx)}" for g in report.homog_basis)
    lines.append("basis at t = 1:")
    lines.extend(f"  {format_operator(g, ctx)}" for g in report.delta_basis)
    lines.append("graded ideal generators:")
    lines.extend(f"  {format_operator(s, ctx)}" for s in report.symbols)
    lines.append("staircase: " + ", ".join(str(tuple(m)) for m in report.staircase))
    s = report.stats
    lines.append(
        f"pairs processed: {s.s_pairs_processed}, reductions to zero: "
        f"{s.reductions_to_zero}, max degree: {s.max_degree}"
    )
    return "\n".join(lines)


def _staircase_grid(corners):
    """Plain-text picture of the upper set of a nonempty staircase in one
    variable pair: columns are x powers, rows are D powers, 'o' marks a
    corner."""
    amax = max(m[0] for m in corners) + 2
    bmax = max(m[1] for m in corners) + 2
    rows = []
    for b in range(bmax, -1, -1):
        cells = []
        for a in range(amax + 1):
            if (a, b) in corners:
                cells.append("o")
            elif any(c[0] <= a and c[1] <= b for c in corners):
                cells.append("#")
            else:
                cells.append(".")
        rows.append(f"D^{b:<2} " + " ".join(cells))
    rows.append("     " + " ".join(f"{a}" for a in range(amax + 1)) + "  (x power)")
    return "\n".join(rows)


def _read_operands(tokens, n, fld):
    ops = []
    for token in tokens:
        if not os.path.isfile(token):
            ops.append(parse_operator(token, n, fld))
            continue
        with open(token, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            before = data[: e.start].decode("utf-8")
            line, column = before.count("\n") + 1, len(before) - before.rfind("\n")
            raise ParseError(f"{token}: not valid UTF-8", line, column) from None
        # universal newlines, as a file opened in text mode reads them
        for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            try:
                ops.append(parse_operator(body, n, fld))
            except ParseError as e:
                raise ParseError(f"{token}: {e.bare_message}", lineno, e.column) from None
    return ops


def _run_verify(seed, cfg, ctx, fld):
    fuzz = algebra_fuzz(seed, trials=60)
    corpus = _verify_corpus(cfg.n)
    agreements = []
    for gens in corpus:
        ops = [parse_operator(g, cfg.n, fld) for g in gens]
        report = compute_standard_basis(ctx, ops, degree_cap=cfg.degree_cap)
        agreement = oracle_pipeline_agree(ctx, ops, report, degree_bound=6)
        agreements.append((gens, agreement))

    ok = fuzz.ok and all(a.ok for _, a in agreements)
    doc = {
        "checks": fuzz.checks,
        "failures": [list(f) for f in fuzz.failures],
        "oracle_cases": [
            {"generators": list(gens), "ok": a.ok, "window": a.window}
            for gens, a in agreements
        ],
        "ok": ok,
    }
    lines = [f"randomized checks: {fuzz.checks}, failures: {len(fuzz.failures)}"]
    for f in fuzz.failures:
        lines.append(f"  FAIL {f[0]}: " + "; ".join(f[1:]))
    for gens, a in agreements:
        status = "agrees" if a.ok else "MISMATCH"
        lines.append(f"oracle on {', '.join(gens)}: {status} (window {a.window})")
    lines.append("verify: " + ("ok" if ok else "FAILED"))
    if cfg.output == "json":
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(lines))
    return 0 if ok else 4


def _verify_corpus(n):
    if n == 1:
        return [
            ("x1", "D1"),
            ("x1^2",),
            ("1 + x1^2*D1",),
            ("x1^3", "x1*D1 + 2"),
        ]
    return [
        ("D1", f"D{n}"),
        (f"x{n}", f"D{n}"),
        (f"x1*D{n}",),
    ]


def _emit_error(output, code, message):
    if output == "json":
        print(json.dumps({"error": {"code": code, "message": message}}))
    else:
        print(f"weylstd: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
