"""Acceptance gate: ten criteria, all exact, with the stated time bounds.

Each test prints one ``criterion N ... PASS`` line (visible with -s, and
in the captured output otherwise).  Every assertion is an equality over
exact arithmetic; there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from weylstd import (
    QQ,
    HomogOperator,
    LinearForm,
    OrderContext,
    Polynomial,
    PrimeField,
    WeylOperator,
    compute_standard_basis,
    dehomogenize,
    divide,
    homogenize,
    leading_term,
    oracle_pipeline_agree,
    parse_operator,
    principal_symbol,
    project_exponent,
    semisyzygy,
)
from weylstd.division import region
from weylstd.oracle import random_homog, random_homogeneous, random_polynomial
from weylstd.weyl import vec_add

_REPORTED = {}


def _report(num, label, detail, elapsed, bound=None):
    note = f", bound {bound}s" if bound is not None else ""
    print(f"criterion {num:2d} [{label}]: PASS ({detail}; {elapsed:.2f}s{note})")
    if bound is not None:
        assert elapsed < bound, f"criterion {num} exceeded its {bound}s bound: {elapsed:.2f}s"


def _random_operator(rng, n, max_degree, terms=3, coeff=4):
    """Random operator whose every monomial has total degree <= max_degree."""
    out = {}
    for _ in range(rng.randint(1, terms)):
        total = rng.randint(0, max_degree)
        cuts = sorted(rng.randint(0, total) for _ in range(2 * n - 1))
        m = []
        prev = 0
        for c in cuts:
            m.append(c - prev)
            prev = c
        m.append(total - prev)
        out[tuple(m)] = Fraction(rng.randint(-coeff, coeff))
    return WeylOperator(n, out)


def _nonzero(make):
    while True:
        op = make()
        if not op.is_zero():
            return op


# the shared ideal corpus: (n, order context, generator expressions, oracle bound)
_CORPUS = [
    (1, OrderContext(LinearForm.order(1)), ("x1", "D1"), 8),
    (1, OrderContext(LinearForm.order(1)), ("x1^2",), 8),
    (1, OrderContext(LinearForm.v_form(1)), ("1 + x1^2*D1",), 8),
    (1, OrderContext(LinearForm.bernstein(1)), ("x1^3", "x1*D1 + 2"), 8),
    (1, OrderContext(LinearForm.l_form(1, 1, 1)), ("x1^3", "x1*D1 + 2"), 8),
    (2, OrderContext(LinearForm.order(2)), ("D1", "D2"), 6),
    (2, OrderContext(LinearForm.bernstein(2)), ("x2", "D2"), 6),
    (2, OrderContext(LinearForm.v_form(2)), ("x1*D2",), 6),
]


def _corpus_runs():
    """Each corpus ideal completed over QQ and over F_32003."""
    if "runs" not in _REPORTED:
        runs = []
        for fld in (QQ, PrimeField(32003)):
            for n, ctx, texts, bound in _CORPUS:
                gens = [parse_operator(t, n, fld) for t in texts]
                runs.append((n, ctx, gens, bound, compute_standard_basis(ctx, gens)))
        _REPORTED["runs"] = runs
    return _REPORTED["runs"]


def test_criterion_01_defining_relations():
    start = time.perf_counter()
    checked = 0
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                delta = WeylOperator.constant(n, 1 if i == j else 0)
                di, xj = WeylOperator.d(n, i), WeylOperator.x(n, j)
                assert di * xj - xj * di == delta
                hdelta = HomogOperator.t(n, 2) if i == j else HomogOperator.zero(n)
                hdi, hxj = HomogOperator.d(n, i), HomogOperator.x(n, j)
                assert hdi * hxj - hxj * hdi == hdelta
                checked += 2
    _report(1, "defining relations", f"{checked} commutators, n <= 3", time.perf_counter() - start, bound=1.0)


def test_criterion_02_action_oracle():
    start = time.perf_counter()
    rng = random.Random(20_001)
    trials = 200
    for _ in range(trials):
        n = rng.randint(1, 2)
        p = _random_operator(rng, n, 4)
        q = _random_operator(rng, n, 4)
        f = random_polynomial(rng, n, terms=3, degree=3)
        assert (p * q).apply(f) == p.apply(q.apply(f))
    _report(2, "action oracle", f"{trials} triples, ord <= 4", time.perf_counter() - start, bound=10.0)


def test_criterion_03_homogenization_laws():
    start = time.perf_counter()
    rng = random.Random(20_002)
    pairs = 200
    for _ in range(pairs):
        n = rng.randint(1, 2)
        p = _nonzero(lambda: _random_operator(rng, n, 3))
        q = _nonzero(lambda: _random_operator(rng, n, 3))
        assert homogenize(p * q) == homogenize(p) * homogenize(q)
        assert dehomogenize(homogenize(p)) == p
        assert dehomogenize(homogenize(q)) == q
    sums = 0
    while sums < 100:
        n = rng.randint(1, 2)
        p = _nonzero(lambda: _random_operator(rng, n, 3))
        q = _nonzero(lambda: _random_operator(rng, n, 3))
        s = p + q
        if s.is_zero():
            continue
        sums += 1
        b, c, d = p.total_degree(), q.total_degree(), s.total_degree()
        e = max(b, c)
        assert homogenize(s).t_shift(e - d) == homogenize(p).t_shift(e - b) + homogenize(q).t_shift(e - c)
    _report(
        3,
        "homogenization laws",
        f"{pairs} product/round-trip pairs, {sums} sum triples",
        time.perf_counter() - start,
        bound=10.0,
    )


def test_criterion_04_exponent_projection():
    start = time.perf_counter()
    rng = random.Random(20_003)
    trials = 200
    per_form = {"order": 0, "hyperplane": 0, "mixed": 0}
    for _ in range(trials):
        n = rng.randint(1, 2)
        contexts = {
            "order": OrderContext(LinearForm.order(n)),
            "hyperplane": OrderContext(LinearForm.v_form(n)),
            "mixed": OrderContext(LinearForm.l_form(n, 1, 1)),
        }
        p = _nonzero(lambda: _random_operator(rng, n, 4))
        for name, ctx in contexts.items():
            lifted = leading_term(ctx, homogenize(p)).exponent
            assert project_exponent(lifted) == leading_term(ctx, p).exponent
            per_form[name] += 1
    assert all(count >= 200 for count in per_form.values())
    _report(4, "exponent projection", f"{trials} operators x 3 weight forms", time.perf_counter() - start)


def test_criterion_05_division():
    start = time.perf_counter()
    rng = random.Random(20_004)
    instances = 0
    probes = 0
    while instances < 100 or probes < 100:
        n = rng.randint(1, 2)
        ctx = OrderContext(LinearForm.order(n) if rng.random() < 0.5 else LinearForm.bernstein(n))
        divisors = [
            g
            for g in (random_homogeneous(rng, n, rng.randint(0, 3)) for _ in range(rng.randint(1, 3)))
            if not g.is_zero()
        ]
        if not divisors:
            continue
        leads = [leading_term(ctx, d).exponent for d in divisors]

        if instances < 100:
            instances += 1
            h = random_homog(rng, n)
            res = divide(ctx, h, divisors)
            total = res.remainder
            for qu, dv in zip(res.quotients, divisors):
                total = total + qu * dv
            assert total == h
            assert all(region(leads, m) is None for m in res.remainder.terms)
            for i, qu in enumerate(res.quotients):
                assert all(region(leads, vec_add(leads[i], m)) == i for m in qu.terms)
            rerun = divide(ctx, h, divisors)
            assert rerun.quotients == res.quotients and rerun.remainder == res.remainder

        if probes < 100:
            probes += 1
            # manufacture a decomposition that already satisfies the support
            # conditions, then demand divide return it verbatim
            quotients = []
            for i in range(len(divisors)):
                raw = random_homog(rng, n)
                kept = {m: c for m, c in raw.terms.items() if region(leads, vec_add(leads[i], m)) == i}
                quotients.append(HomogOperator(n, kept))
            remainder = divide(ctx, random_homog(rng, n), divisors).remainder
            built = remainder
            for qu, dv in zip(quotients, divisors):
                built = built + qu * dv
            redo = divide(ctx, built, divisors)
            assert redo.quotients == tuple(quotients)
            assert redo.remainder == remainder
    _report(5, "division certificates", f"{instances} divisions, {probes} uniqueness probes", time.perf_counter() - start)


def test_criterion_06_pair_criterion_on_corpus():
    start = time.perf_counter()
    pairs = 0
    for n, ctx, gens, bound, report in _corpus_runs():
        basis = report.homog_basis
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = semisyzygy(ctx, basis[i], basis[j])
                assert s.is_zero() or divide(ctx, s, basis).remainder.is_zero()
                pairs += 1
        for g in gens:
            assert divide(ctx, homogenize(g), basis).remainder.is_zero()
    _report(6, "pair criterion", f"{pairs} semisyzygies across {len(_CORPUS)} ideals, over QQ and F_32003", time.perf_counter() - start)


def test_criterion_07_whole_algebra_worked_example():
    start = time.perf_counter()
    ctx = OrderContext(LinearForm.order(1))
    report = compute_standard_basis(ctx, [parse_operator("x1", 1), parse_operator("D1", 1)])
    assert HomogOperator.t(1, 2) in report.homog_basis
    assert WeylOperator.constant(1, 1) in report.symbols
    assert report.staircase == ((0, 0),)
    _report(7, "worked example <x, D>", "t^2 in basis, unit symbol, origin staircase", time.perf_counter() - start, bound=1.0)


def test_criterion_08_hyperplane_form_example():
    start = time.perf_counter()
    ctx = OrderContext(LinearForm.v_form(1))
    p = parse_operator("1 + x1^2*D1", 1)
    assert principal_symbol(ctx, p) == WeylOperator.constant(1, 1)
    report = compute_standard_basis(ctx, [p])
    assert report.symbols == (WeylOperator.constant(1, 1),)
    assert report.staircase == ((0, 0),)
    _report(8, "hyperplane-form example", "symbol 1, origin staircase", time.perf_counter() - start, bound=1.0)


def test_criterion_09_oracle_agreement():
    start = time.perf_counter()
    for n, ctx, gens, bound, report in _corpus_runs():
        agreement = oracle_pipeline_agree(ctx, gens, report, bound)
        assert agreement.ok, (gens, agreement.mismatches)
    _report(9, "oracle agreement", f"{len(_CORPUS)} ideals over QQ and F_32003, bounds <= 8", time.perf_counter() - start, bound=60.0)


def test_criterion_10_graded_commutativity():
    start = time.perf_counter()
    rng = random.Random(20_010)
    trials = 200
    for _ in range(trials):
        n = rng.randint(1, 2)
        form = LinearForm.bernstein(n)
        p = _nonzero(lambda: _random_operator(rng, n, 3))
        q = _nonzero(lambda: _random_operator(rng, n, 3))
        comm = p * q - q * p
        assert comm.is_zero() or form.weight(comm) < form.weight(p) + form.weight(q)
    _report(10, "graded commutativity", f"{trials} pairs, total-degree weights", time.perf_counter() - start)
