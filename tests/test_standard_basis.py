"""Completion, inter-reduction, cofactors, staircases."""

import json
import random
from pathlib import Path

import pytest

from weylstd import (
    CompletionStats,
    DegreeCapExceeded,
    HomogOperator,
    InvariantViolation,
    LinearForm,
    OrderContext,
    PrimeField,
    QQ,
    TieBreak,
    WeylOperator,
    buchberger,
    compute_standard_basis,
    graded_degree,
    homog_from_obj,
    homogenize,
    leading_term,
    minimal_staircase,
    oracle_pipeline_agree,
    parse_operator,
    reduces_to_zero,
    semisyzygy,
)
import weylstd.standard_basis as standard_basis
from weylstd.oracle import random_tiebreak, random_weyl
from weylstd.standard_basis import CompletionResult
from weylstd.weyl import vec_leq, vec_max


def _ctx(n=1, form=None):
    return OrderContext(form or LinearForm.order(n))


def test_semisyzygy_cancels_leads():
    ctx = _ctx()
    xh = homogenize(WeylOperator.x(1, 1))
    Dh = homogenize(WeylOperator.d(1, 1))
    s = semisyzygy(ctx, xh, Dh)
    # lcm exponent is (0,1,1); D*x - x*D = t^2 up to sign
    assert s in (HomogOperator.t(1, 2), -HomogOperator.t(1, 2))
    # an element against itself cancels completely
    assert semisyzygy(ctx, xh, xh).is_zero()


def test_whole_algebra_ideal():
    # <x, D> contains 1 after completion: t^2 joins the basis
    ctx = _ctx()
    report = compute_standard_basis(ctx, [WeylOperator.x(1, 1), WeylOperator.d(1, 1)])
    assert report.staircase == ((0, 0),)
    assert HomogOperator.t(1, 2) in report.homog_basis
    assert WeylOperator.constant(1, 1) in report.symbols


def test_single_generator_is_its_own_basis():
    ctx = _ctx()
    P = WeylOperator(1, {(3, 0): 1})
    report = compute_standard_basis(ctx, [P])
    assert report.delta_basis == (P,)
    assert report.staircase == ((3, 0),)
    assert report.stats.s_pairs_processed == 0


def test_annihilator_style_ideal_bernstein():
    # [x^3, xD + 2] under total-degree weights: completion finds x^2
    ctx = _ctx(form=LinearForm.bernstein(1))
    x = WeylOperator.x(1, 1)
    gens = [x**3, x * WeylOperator.d(1, 1) + WeylOperator.constant(1, 2)]
    report = compute_standard_basis(ctx, gens)
    assert set(report.staircase) == {(2, 0), (1, 1)}
    assert WeylOperator(1, {(2, 0): 1}) in report.delta_basis
    # explicit membership: x^2 = D*x^3 - x^2*(xD + 2)
    D = WeylOperator.d(1, 1)
    assert D * gens[0] - x**2 * gens[1] == x**2


def test_cofactors_reproduce_basis():
    ctx = _ctx(form=LinearForm.bernstein(1))
    x, D = WeylOperator.x(1, 1), WeylOperator.d(1, 1)
    gens = [x**3, x * D + WeylOperator.constant(1, 2)]
    hgens = [homogenize(g) for g in gens]
    report = compute_standard_basis(ctx, gens)
    for b, row in zip(report.homog_basis, report.cofactors):
        total = HomogOperator.zero(1)
        for c, g in zip(row, hgens):
            total = total + c * g
        assert total == b


def test_basis_is_reduced():
    rng = random.Random(13)
    cases = 0
    while cases < 8:
        n = rng.randint(1, 2)
        ctx = _ctx(n, LinearForm.order(n))
        gens = [g for g in (random_weyl(rng, n, terms=2, degree=2, coeff=3) for _ in range(2)) if not g.is_zero()]
        if not gens:
            continue
        try:
            report = compute_standard_basis(ctx, gens, degree_cap=12)
        except DegreeCapExceeded:
            continue
        cases += 1
        leads = [leading_term(ctx, g).exponent for g in report.homog_basis]
        for i, a in enumerate(leads):
            # leads pairwise incomparable and elements monic
            assert leading_term(ctx, report.homog_basis[i]).coefficient == 1
            for j, b in enumerate(leads):
                if i != j:
                    assert not vec_leq(a, b)
        # every non-lead monomial is irreducible against the other leads
        for i, g in enumerate(report.homog_basis):
            for m in g.terms:
                if m == leads[i]:
                    continue
                assert not any(vec_leq(lead, m) for lead in leads)


def test_every_pair_reduces_to_zero_on_final_basis():
    ctx = _ctx(form=LinearForm.bernstein(1))
    x, D = WeylOperator.x(1, 1), WeylOperator.d(1, 1)
    report = compute_standard_basis(ctx, [x**3, x * D + WeylOperator.constant(1, 2)])
    assert _every_pair_reduces(ctx, report.homog_basis)


def test_degree_cap_raises():
    ctx = _ctx()
    x, D = WeylOperator.x(1, 1), WeylOperator.d(1, 1)
    with pytest.raises(DegreeCapExceeded) as info:
        compute_standard_basis(ctx, [x, D], degree_cap=1)
    assert info.value.cap == 1
    assert info.value.degree > 1


def test_buchberger_rejects_bad_input():
    ctx = _ctx()
    with pytest.raises(ValueError):
        buchberger(ctx, [HomogOperator.zero(1)])
    with pytest.raises(ValueError):
        buchberger(ctx, [HomogOperator(1, {(1, 0, 0): 1, (0, 0, 0): 1})])


def test_zero_ideal():
    ctx = _ctx()
    report = compute_standard_basis(ctx, [WeylOperator.zero(1)])
    assert report.homog_basis == ()
    assert report.staircase == ()
    report = compute_standard_basis(ctx, [])
    assert report.delta_basis == ()


def test_prime_field_run():
    # same ideal as the Bernstein case but over F_5
    field = PrimeField(5)
    ctx = _ctx(form=LinearForm.bernstein(1))
    x = WeylOperator.x(1, 1, field=field)
    D = WeylOperator.d(1, 1, field=field)
    gens = [x**3, x * D + WeylOperator.constant(1, 7, field)]  # 7 = 2 in F_5
    report = compute_standard_basis(ctx, gens)
    assert set(report.staircase) == {(2, 0), (1, 1)}
    for g in report.delta_basis:
        assert g.field == field
        assert all(type(c) is int and 0 <= c < 5 for c in g.terms.values())


TWO_GENERATORS = ("x1^2*D1 - 1", "D1^2 + x1")

# GKZ system H_A(beta) for A = [[1,1,1],[0,1,2]], beta = (3/5, 7/11)
GKZ3 = ("D1*D3 - D2^2", "x1*D1 + x2*D2 + x3*D3 - 3/5", "x2*D2 + 2*x3*D3 - 7/11")


@pytest.mark.parametrize("p", [32003, 7])
def test_gkz_system_over_prime_field(p):
    field = PrimeField(p)
    ctx = _ctx(3)
    ops = [parse_operator(text, 3, field) for text in GKZ3]
    report = compute_standard_basis(ctx, ops)
    rational = compute_standard_basis(ctx, [parse_operator(text, 3, QQ) for text in GKZ3])
    assert report.staircase == rational.staircase
    # the pair criteria read only leads, so the counts agree across fields
    assert report.stats == rational.stats == CompletionStats(11, 7, 6)
    assert all(g.field == field for g in report.homog_basis + report.delta_basis)
    assert oracle_pipeline_agree(ctx, ops, report, degree_bound=6).ok


# GKZ system for A = [[1,1,1,1],[0,1,3,4]], beta = (15/13, 19/11): the
# benchmark's seed-0 system
GKZ4 = (
    "D2*D3 - D1*D4",
    "D3^3 - D2*D4^2",
    "D1*D3^2 - D2^2*D4",
    "D2^3 - D1^2*D3",
    "x1*D1 + x2*D2 + x3*D3 + x4*D4 - 15/13",
    "x2*D2 + 3*x3*D3 + 4*x4*D4 - 19/11",
)


def test_gkz4_pair_counts_are_pinned():
    ctx = _ctx(4)
    report = compute_standard_basis(ctx, [parse_operator(text, 4) for text in GKZ4])
    assert report.stats == CompletionStats(80, 62, 10)
    # the certificate reduces 79 of the final basis's 253 pairs
    leads = [leading_term(ctx, b).exponent for b in report.homog_basis]
    assert len(standard_basis._minimal_pairs(leads)) == 79


def test_gkz4_lex_pair_counts_are_pinned():
    ctx = OrderContext(LinearForm.order(4), TieBreak("lex", tuple(range(8))))
    report = compute_standard_basis(ctx, [parse_operator(text, 4) for text in GKZ4])
    assert report.stats == CompletionStats(142, 111, 13)


F32003 = PrimeField(32003)


@pytest.mark.parametrize("seed", range(20))
def test_staircase_is_the_same_over_qq_and_f32003(seed):
    # Away from unlucky primes the staircase does not depend on the field
    # (Arnold, "Modular algorithms for computing Groebner bases", 2003):
    # two to three operators in n <= 2 variables with coefficients in
    # [-5, 5], under the order or the Bernstein form and a random tiebreak.
    rng = random.Random(seed)
    n = rng.randint(1, 2)
    ctx = OrderContext(rng.choice((LinearForm.order, LinearForm.bernstein))(n), random_tiebreak(rng, n))
    ops = [random_weyl(rng, n, terms=4, degree=1, coeff=5) for _ in range(rng.randint(2, 3))]
    rational = compute_standard_basis(ctx, ops).staircase
    same_ops = [WeylOperator(n, {k: c.numerator for k, c in op.terms.items()}, F32003) for op in ops]
    modular = compute_standard_basis(ctx, same_ops).staircase
    assert rational == modular, f"seed {seed}: {rational} over QQ, {modular} over F_32003"


def test_gkz4_staircase_is_the_same_over_qq_and_f32003():
    ctx = _ctx(4)
    rational = compute_standard_basis(ctx, [parse_operator(text, 4) for text in GKZ4])
    modular = compute_standard_basis(ctx, [parse_operator(text, 4, F32003) for text in GKZ4])
    assert rational.staircase == modular.staircase
    assert len(rational.homog_basis) == len(modular.homog_basis) == 23


def test_gkz5_certificate_pair_count_is_pinned():
    # the 31 leads of the recorded GKZ5 basis: 136 of their 465 pairs kept
    doc = json.loads((Path(__file__).parent / "data" / "gkz5_std_basis.json").read_text(encoding="utf-8"))
    ctx = _ctx(5)
    basis = [homog_from_obj(obj, 5, PrimeField(32003)) for obj in doc["homog_basis"]]
    leads = [leading_term(ctx, b).exponent for b in basis]
    assert len(leads) == 31
    assert len(standard_basis._minimal_pairs(leads)) == 136


def _loop_pairs(monkeypatch, ctx, gens):
    """Run ``buchberger`` on ``gens`` and return the (lcm degree, i, j) of
    each pair its loop reduced, in order, where i and j count the
    elements in the order they entered the basis."""
    entered, reduced, in_loop = [], [], [True]
    monic, pair_factors, interreduce = (
        standard_basis._monic, standard_basis._pair_factors, standard_basis._interreduce
    )

    def entering(ctx, h, row):
        out = monic(ctx, h, row)
        if in_loop:
            entered.append(out[0])
        return out

    def recording(ctx, h1, h2):
        out = pair_factors(ctx, h1, h2)
        if in_loop:
            i, j = (next(k for k, e in enumerate(entered) if e is h) for h in (h1, h2))
            reduced.append((sum(out[0]), i, j))
        return out

    def leaving(*args):
        in_loop.clear()
        return interreduce(*args)

    monkeypatch.setattr(standard_basis, "_monic", entering)
    monkeypatch.setattr(standard_basis, "_pair_factors", recording)
    monkeypatch.setattr(standard_basis, "_interreduce", leaving)
    buchberger(ctx, gens)
    return reduced


def test_loop_reduces_forest_pairs_by_degree_then_arrival(monkeypatch):
    # within a degree the forest pairs go by their later element, then
    # their earlier one: the order in which the pairs arose
    gens = [homogenize(parse_operator(t, 1)) for t in TWO_GENERATORS]
    assert _loop_pairs(monkeypatch, _ctx(), gens) == [
        (4, 0, 1), (5, 0, 2), (5, 1, 2), (6, 1, 3), (6, 2, 3), (6, 0, 4),
        (7, 0, 5), (7, 4, 5), (7, 2, 6), (8, 5, 6), (8, 3, 7), (8, 6, 7),
    ]
    gens = [homogenize(parse_operator(t, 3)) for t in GKZ3]
    assert _loop_pairs(monkeypatch, _ctx(3), gens) == [
        (2, 1, 2), (3, 0, 3), (4, 0, 1), (4, 1, 3), (4, 1, 4), (4, 3, 4),
        (5, 0, 5), (5, 1, 5), (5, 3, 5), (6, 3, 6), (6, 4, 6),
    ]


def test_dehomogenized_basis_keeps_leads():
    ctx = _ctx(form=LinearForm.v_form(1))
    P = WeylOperator.constant(1, 1) + WeylOperator.x(1, 1) ** 2 * WeylOperator.d(1, 1)
    report = compute_standard_basis(ctx, [P])
    assert len(report.delta_basis) == 1
    assert leading_term(ctx, report.delta_basis[0]).exponent == (0, 0)
    assert report.symbols == (WeylOperator.constant(1, 1),)


def test_minimal_staircase():
    assert minimal_staircase([(2, 0), (1, 1), (3, 0), (2, 1)]) == ((1, 1), (2, 0))
    assert minimal_staircase([]) == ()
    assert minimal_staircase([(0, 0), (5, 5)]) == ((0, 0),)
    assert minimal_staircase([(1, 2, 3), (1, 2, 3)]) == ((1, 2, 3),)


def test_stats_are_recorded():
    ctx = _ctx()
    report = compute_standard_basis(ctx, [WeylOperator.x(1, 1), WeylOperator.d(1, 1)])
    assert report.stats.s_pairs_processed >= 1
    assert report.stats.max_degree >= 2
    assert report.stats.reductions_to_zero >= 0


def test_injected_cofactor_fault_is_caught(monkeypatch):
    # drop one nonzero quotient's row from what a reduction took off; the
    # final cofactor check must notice the broken certificate
    original = standard_basis._reduce
    fired = []

    def dropping_reduce(ctx, h, divisors, rows):
        quotients = standard_basis.divide(ctx, h, divisors).quotients
        hit = next((i for i, q in enumerate(quotients) if not q.is_zero()), None)
        if hit is not None:
            fired.append(hit)
            rows = list(rows)
            rows[hit] = (HomogOperator.zero(h.n, h.field),) * len(rows[hit])
        return original(ctx, h, divisors, rows)

    monkeypatch.setattr(standard_basis, "_reduce", dropping_reduce)
    ctx = _ctx()
    gens = [homogenize(parse_operator(t, 1)) for t in TWO_GENERATORS]
    with pytest.raises(InvariantViolation, match="cofactor bookkeeping"):
        buchberger(ctx, gens)
    assert fired


def test_wrong_cached_form_on_a_cofactor_entry_is_refused():
    # the certificate sums the rows in ints, so it must compare each form
    # it reads with its operator: a row entry whose cached form is twice
    # its operator fails there
    ctx = _ctx()
    gens = [homogenize(parse_operator(t, 1)) for t in TWO_GENERATORS]
    result = buchberger(ctx, gens)
    entry = next(c for row in result.cofactors for c in row if not c.is_zero())
    d, terms = entry.integer_form()
    entry._int = (d, {k: 2 * v for k, v in terms.items()})
    with pytest.raises(InvariantViolation, match="cofactor bookkeeping does not reproduce the basis: an integer form"):
        standard_basis._check_completion(ctx, gens, result)


def _passes_pair_criterion(ctx, basis):
    """The certificate's pair-criterion verdict on ``basis`` alone, which
    need not be reduced."""
    try:
        standard_basis._check_pairs(ctx, tuple(basis))
    except InvariantViolation as exc:
        assert "fails the pair criterion" in str(exc)
        return False
    return True


def _every_pair_reduces(ctx, basis):
    """Reference for the certificate: reduce every pair, none skipped."""
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = semisyzygy(ctx, basis[i], basis[j])
            if not (s.is_zero() or reduces_to_zero(ctx, s, basis)):
                return False
    return True


def test_injected_dropped_pair_is_caught(monkeypatch):
    # the loop loses the pair (0, 4), whose semisyzygy adds a basis
    # element; the certificate, which reads the rule afresh from the final
    # leads, must reject what is left
    original = standard_basis._forest_pairs
    fired = []

    def dropping_once(leads, lcm, by_lcm):
        pairs = original(leads, lcm, by_lcm)
        if not fired and (0, 4) in pairs:
            fired.append(True)
            pairs.remove((0, 4))
        return pairs

    monkeypatch.setattr(standard_basis, "_forest_pairs", dropping_once)
    gens = [homogenize(parse_operator(t, 1)) for t in TWO_GENERATORS]
    with pytest.raises(InvariantViolation, match="fails the pair criterion"):
        buchberger(_ctx(), gens)
    assert fired


def test_a_fault_in_the_shared_pair_rule_is_caught_outside_the_certificate(monkeypatch):
    # the loop and the certificate both take their pairs from
    # ``_forest_pairs``, so a rule that drops the first pair it keeps at
    # every call skips the same pairs in both.  The slow forest of the
    # tests below and the truncation oracle must catch what the
    # certificate may pass.
    original = standard_basis._forest_pairs
    monkeypatch.setattr(standard_basis, "_forest_pairs", lambda *args: original(*args)[1:])
    ctx = _ctx()
    ops = [parse_operator(t, 1) for t in TWO_GENERATORS]
    verdict = oracle_pipeline_agree(ctx, ops, compute_standard_basis(ctx, ops), degree_bound=6)
    assert not verdict.ok
    assert ("witness lead is no multiple of a basis lead", (1, 4, 0)) in verdict.mismatches
    with pytest.raises(InvariantViolation, match="an input generator does not reduce to zero"):
        compute_standard_basis(_ctx(3), [parse_operator(t, 3) for t in GKZ3])
    leads = [(1, 0, 0), (0, 1, 0), (1, 1, 1)]
    assert standard_basis._minimal_pairs(leads) != _forest_pairs(leads)


# The completion divides through ``divide_unchecked``; only the final
# certificate proves its output.  Each fault below is injected where
# ``_reduce`` calls that core, and must be caught by one certificate part.
def _complete_with_faulty_core(monkeypatch, fault):
    """Run ``buchberger`` on ``TWO_GENERATORS`` with ``fault`` applied to
    the core's (quotients, remainder) at every call, and return the
    exception it raised and how often the fault fired."""
    original = standard_basis.divide_unchecked
    state = {"interreducing": False, "fired": 0}

    def faulty_core(ctx, h, divisors):
        partition, quotients, remainder = original(ctx, h, divisors)
        out = fault(state, tuple(divisors), quotients, remainder)
        if out is None:
            return partition, quotients, remainder
        state["fired"] += 1
        return (partition,) + out

    interreduce = standard_basis._interreduce

    def tracking_interreduce(*args):
        state["interreducing"] = True
        return interreduce(*args)

    monkeypatch.setattr(standard_basis, "divide_unchecked", faulty_core)
    monkeypatch.setattr(standard_basis, "_interreduce", tracking_interreduce)
    gens = [homogenize(parse_operator(t, 1)) for t in TWO_GENERATORS]
    with pytest.raises(InvariantViolation) as info:
        buchberger(_ctx(), gens)
    return str(info.value), state["fired"]


def test_injected_loop_remainder_fault_is_caught(monkeypatch):
    # the first nonzero loop remainder gets one term, the smallest monomial
    # of its degree, that h - sum Q_i*P_i does not have
    def add_a_term(state, divisors, quotients, remainder):
        if state["fired"] or state["interreducing"] or remainder.is_zero():
            return None
        t_power = (graded_degree(remainder), 0, 0)
        assert t_power not in remainder.terms
        return quotients, remainder + HomogOperator.monomial(1, t_power)

    message, fired = _complete_with_faulty_core(monkeypatch, add_a_term)
    assert fired == 1
    assert "cofactor bookkeeping" in message


def test_injected_zero_remainder_fault_is_caught(monkeypatch):
    # the first nonzero loop remainder comes back as zero, so the pair
    # that needed it adds nothing to the basis
    def drop_the_remainder(state, divisors, quotients, remainder):
        if state["fired"] or state["interreducing"] or remainder.is_zero():
            return None
        return quotients, HomogOperator.zero(1)

    message, fired = _complete_with_faulty_core(monkeypatch, drop_the_remainder)
    assert fired == 1
    assert "fails the pair criterion" in message or "does not reduce to zero" in message


def test_injected_interreduction_fault_is_caught(monkeypatch):
    # the first interreduction step that took something off undoes one of
    # its eliminations: h = sum Q_i*P_i + R still holds, the lead and the
    # cofactors are still right, but R keeps a term a lead divides
    def undo_an_elimination(state, divisors, quotients, remainder):
        hit = next((i for i, q in enumerate(quotients) if not q.is_zero()), None)
        if state["fired"] or not state["interreducing"] or hit is None:
            return None
        offset, coeff = next(iter(quotients[hit].terms.items()))
        back = HomogOperator.monomial(1, offset, coeff)
        quotients = quotients[:hit] + (quotients[hit] - back,) + quotients[hit + 1 :]
        return quotients, remainder + back * divisors[hit]

    message, fired = _complete_with_faulty_core(monkeypatch, undo_an_elimination)
    assert fired == 1
    assert "is not reduced" in message and "divisible by a lead" in message


def test_gkz3_certificate_rejects_incomplete_bases():
    ctx = _ctx(3)
    gens = [homogenize(parse_operator(text, 3)) for text in GKZ3]
    basis = buchberger(ctx, gens).basis
    assert _passes_pair_criterion(ctx, basis)
    drop_ones = [basis[:i] + basis[i + 1 :] for i in range(len(basis))]
    monic = [g.scale(1 / leading_term(ctx, g).coefficient) for g in gens]
    for candidate in drop_ones + [monic]:
        assert not _passes_pair_criterion(ctx, candidate)


def _monomial_basis(*keys):
    return [HomogOperator.monomial(1, key) for key in keys]


# x*D, t*D and t*x meet pairwise at t*x*D, so one lcm keeps two of their
# three pairs.  The semisyzygy of (x*D, t*D) is zero and the other two
# are +-t^3, which none of the three divides: a certificate that keeps the
# zero pair alone at that lcm passes a basis that is not one.  In the
# second order the zero pair comes second instead of first.
MONOMIAL_TRIANGLES = (
    _monomial_basis((0, 1, 1), (1, 0, 1), (1, 1, 0)),
    _monomial_basis((0, 1, 1), (1, 1, 0), (1, 0, 1)),
)


@pytest.mark.parametrize(
    "basis, element, fault",
    [
        # 2*D alone: no pair to fail
        ([HomogOperator.monomial(1, (0, 0, 1), 2)], 0, "is not monic"),
        # t*D divides t^2*D
        (_monomial_basis((1, 0, 1), (2, 0, 1)), 1, "has a lead divisible by another lead"),
        # the lead of D^2 + t*D is D^2, and the lead t*D of the other divides its tail
        (
            [HomogOperator(1, {(0, 0, 2): 1, (1, 0, 1): 1}), HomogOperator.monomial(1, (1, 0, 1))],
            0,
            "has a term other than its lead divisible by a lead",
        ),
    ],
)
def test_certificate_refuses_bases_that_are_not_reduced(basis, element, fault):
    with pytest.raises(InvariantViolation, match=f"is not reduced: element {element} {fault}"):
        standard_basis._check_completion(_ctx(), (), CompletionResult(tuple(basis), (), None))


def _candidates():
    """Bases and near-bases to hold the certificate against the
    every-pair sweep: completions of a seeded corpus, each with one
    element dropped and its bare inputs, then the monomial triangles."""
    rng = random.Random(29)
    out = []
    while len(out) < 60:
        n = rng.randint(1, 2)
        ctx = _ctx(n)
        gens = [g for g in (random_weyl(rng, n, terms=2, degree=2, coeff=3) for _ in range(3)) if not g.is_zero()]
        if not gens:
            continue
        gens = [homogenize(g) for g in gens]
        try:
            basis = buchberger(ctx, gens, degree_cap=10).basis
        except DegreeCapExceeded:
            continue
        out += [(ctx, basis[:i] + basis[i + 1 :]) for i in range(len(basis))] + [(ctx, gens)]
    return out + [(_ctx(), basis) for basis in MONOMIAL_TRIANGLES]


def _disagreements(candidates):
    """The candidates on which the certificate and the every-pair sweep
    give different verdicts, and all the every-pair verdicts."""
    wrong, verdicts = [], []
    for ctx, candidate in candidates:
        verdict = _every_pair_reduces(ctx, candidate)
        verdicts.append(verdict)
        if _passes_pair_criterion(ctx, candidate) != verdict:
            wrong.append(candidate)
    return wrong, verdicts


def test_pruned_certificate_agrees_with_every_pair_sweep():
    wrong, verdicts = _disagreements(_candidates())
    assert wrong == []
    assert True in verdicts and False in verdicts


def _forest_pairs(leads, strict=True):
    """One spanning forest per pair lcm m, built the slow way: the leads
    below m are joined by every pair whose lcm lies strictly below m (or
    equals m, when not ``strict``), then the pairs of lcm m that still
    join two components are kept."""
    pairs = [(i, j) for i in range(len(leads)) for j in range(i + 1, len(leads))]
    lcm = {(i, j): vec_max(leads[i], leads[j]) for i, j in pairs}
    kept = []
    for m in dict.fromkeys(lcm.values()):
        comp = list(range(len(leads)))

        def merge(a, b):
            old, new = comp[a], comp[b]
            comp[:] = [new if c == old else c for c in comp]

        for a, b in pairs:
            if vec_leq(lcm[a, b], m) and not (strict and lcm[a, b] == m):
                merge(a, b)
        for i, j in pairs:
            if lcm[i, j] == m and comp[i] != comp[j]:
                merge(i, j)
                kept.append((i, j))
    return sorted(kept)


def test_minimal_pairs_equal_a_slow_forest_on_the_candidates():
    for ctx, candidate in _candidates():
        leads = [leading_term(ctx, b).exponent for b in candidate]
        assert standard_basis._minimal_pairs(leads) == _forest_pairs(leads)


def test_mutant_joining_through_an_equal_lcm_is_caught(monkeypatch):
    # joining through a pair whose lcm equals m lets the pairs of lcm m
    # vouch for one another, and the certificate keeps none of them
    monkeypatch.setattr(standard_basis, "_minimal_pairs", lambda leads: _forest_pairs(leads, strict=False))
    wrong, _ = _disagreements(_candidates())
    assert wrong


@pytest.mark.parametrize("drop", [0, -1])
def test_mutant_dropping_a_forest_pair_is_caught(monkeypatch, drop):
    # leave out one of the two or more pairs kept at the first lcm that
    # keeps that many; the triangles catch it whichever one goes
    original = standard_basis._minimal_pairs
    fired = []

    def dropping(leads):
        pairs = original(leads)
        by_lcm = {}
        for i, j in pairs:
            by_lcm.setdefault(vec_max(leads[i], leads[j]), []).append((i, j))
        crowded = next((kept for kept in by_lcm.values() if len(kept) > 1), None)
        if crowded is None:
            return pairs
        fired.append(crowded[drop])
        return [ij for ij in pairs if ij != crowded[drop]]

    monkeypatch.setattr(standard_basis, "_minimal_pairs", dropping)
    wrong, _ = _disagreements(_candidates())
    assert fired
    assert any(w is basis for w in wrong for basis in MONOMIAL_TRIANGLES)


def test_minimal_pairs_join_only_through_strictly_smaller_lcms():
    # x^2 and D^2 meet at x^2 D^2, which x*D divides with smaller lcms on
    # both sides, so that pair is left out
    assert standard_basis._minimal_pairs([(0, 2, 0), (0, 0, 2), (0, 1, 1)]) == [(0, 2), (1, 2)]
    # t*x*D shares its lcm with both t and x, but t and x meet strictly
    # below it, at t*x: one pair joins t*x*D to them, and (1, 2) follows
    # from (0, 1) and (0, 2)
    assert standard_basis._minimal_pairs([(1, 0, 0), (0, 1, 0), (1, 1, 1)]) == [(0, 1), (0, 2)]
    # three leads whose pairwise lcms are all one m: nothing joins them
    # below m, so a spanning tree of two pairs, where the chain rule kept three
    assert standard_basis._minimal_pairs([(0, 1, 1), (1, 1, 0), (1, 0, 1)]) == [(0, 1), (0, 2)]
    # two equal leads meet at their own lead, and nothing joins them below it
    assert standard_basis._minimal_pairs([(1, 2, 0), (1, 2, 0)]) == [(0, 1)]
    assert standard_basis._minimal_pairs([(1, 2, 0)]) == []
    assert standard_basis._minimal_pairs([]) == []
