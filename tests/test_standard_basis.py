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
    divide,
    graded_degree,
    homog_from_obj,
    homogenize,
    leading_term,
    minimal_staircase,
    oracle_pipeline_agree,
    parse_operator,
    semisyzygy,
)
import weylstd.division as division
import weylstd.standard_basis as standard_basis
from weylstd.oracle import random_tiebreak, random_weyl
from weylstd.division import DivisionResult
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
    assert report.stats == rational.stats == CompletionStats(10, 7, 6)
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


def _self_divided_pairs(monkeypatch, ctx, ops, certified=None):
    """Run ``compute_standard_basis`` on ``ops`` and return the report and
    the number of pairs the certificate divided itself: the ``semisyzygy``
    calls made inside ``_check_completion``, not the loop's.  With
    ``certified`` given, the certificate reads it in place of the loop's
    records."""
    calls, checking = [], []
    original, check = standard_basis.semisyzygy, standard_basis._check_completion

    def counting(*args):
        if checking:
            calls.append(args)
        return original(*args)

    def with_records(ctx, gens, result, loop_records):
        checking.append(True)
        return check(ctx, gens, result, loop_records if certified is None else certified)

    monkeypatch.setattr(standard_basis, "semisyzygy", counting)
    monkeypatch.setattr(standard_basis, "_check_completion", with_records)
    report = compute_standard_basis(ctx, ops)
    return report, len(calls)


def test_gkz4_pair_counts_are_pinned(monkeypatch):
    ctx = _ctx(4)
    report, divided = _self_divided_pairs(monkeypatch, ctx, [parse_operator(text, 4) for text in GKZ4])
    assert report.stats == CompletionStats(79, 62, 10)
    # the loop reduces exactly the 79 forest pairs of the final basis's
    # 253, and its records leave the certificate none to divide
    leads = [leading_term(ctx, b).exponent for b in report.homog_basis]
    assert len(standard_basis._minimal_pairs(leads)) == 79
    assert divided == 0


def test_gkz4_lex_pair_counts_are_pinned(monkeypatch):
    ctx = OrderContext(LinearForm.order(4), TieBreak("lex", tuple(range(8))))
    report, divided = _self_divided_pairs(monkeypatch, ctx, [parse_operator(text, 4) for text in GKZ4])
    assert report.stats == CompletionStats(141, 111, 13)
    assert divided == 0


# GKZ system for A = [[1,1,1,1,1],[0,1,2,3,4]], beta = (3/5, 7/11)
GKZ5 = (
    "D1*D3 - D2^2",
    "D1*D4 - D2*D3",
    "D1*D5 - D2*D4",
    "D2*D4 - D3^2",
    "D2*D5 - D3*D4",
    "D3*D5 - D4^2",
    "x1*D1 + x2*D2 + x3*D3 + x4*D4 + x5*D5 - 3/5",
    "x2*D2 + 2*x3*D3 + 3*x4*D4 + 4*x5*D5 - 7/11",
)
# the cross-field property's draw at seed 23 (n = 2), whose QQ rows grow large
SEED_23 = ("-5*x1*x2 + 2*x1*D2 + 3*x2*D1 - 4*D1", "2*x1*x2*D1 + 4*x1*D2 - 3*x2*D1 - 4*x2")

# (n, context, inputs, field, stats): more systems whose completion
# counts are pinned, besides GKZ4 above.  Each loop reduces exactly the
# final basis's forest pairs.
PINNED_SYSTEMS = {
    "gkz3-order": (3, lambda: _ctx(3), GKZ3, QQ, CompletionStats(10, 7, 6)),
    "gkz3-bernstein": (3, lambda: _ctx(3, LinearForm.bernstein(3)), GKZ3, QQ, CompletionStats(10, 7, 6)),
    "gkz3-v_form": (3, lambda: _ctx(3, LinearForm.v_form(3)), GKZ3, QQ, CompletionStats(5, 4, 5)),
    "gkz3-l_form": (3, lambda: _ctx(3, LinearForm.l_form(3, 1, 1)), GKZ3, QQ, CompletionStats(5, 4, 5)),
    "gkz5-F_32003": (5, lambda: _ctx(5), GKZ5, PrimeField(32003), CompletionStats(136, 113, 10)),
    "seed23-F_32003": (2, lambda: OrderContext(LinearForm.order(2), TieBreak("deglex", (3, 1, 2, 0))), SEED_23,
                       PrimeField(32003), CompletionStats(163, 115, 13)),
}


@pytest.mark.parametrize("system", PINNED_SYSTEMS)
def test_certificate_divides_no_pair_itself(monkeypatch, system):
    # the loop's checked divisions certify every forest pair of the final
    # leads, so the certificate's own pair sweep is empty; a change that
    # pushes pairs back to it fails here
    n, make_ctx, texts, field, stats = PINNED_SYSTEMS[system]
    ctx = make_ctx()
    report, divided = _self_divided_pairs(monkeypatch, ctx, [parse_operator(t, n, field) for t in texts])
    assert report.stats == stats
    leads = [leading_term(ctx, b).exponent for b in report.homog_basis]
    assert len(standard_basis._minimal_pairs(leads)) == stats.s_pairs_processed
    assert divided == 0


def test_without_records_the_certificate_divides_every_pair_itself(monkeypatch):
    # the records only spare the certificate work: with none, it divides
    # all 79 forest pairs of GKZ4 and passes the same basis
    ctx = _ctx(4)
    ops = [parse_operator(text, 4) for text in GKZ4]
    report, divided = _self_divided_pairs(monkeypatch, ctx, ops, certified=frozenset())
    assert divided == 79
    assert report.homog_basis == compute_standard_basis(ctx, ops).homog_basis


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
    each pair its loop formed with ``semisyzygy`` before the certificate
    ran, in order, where i and j index the returned basis: the loop
    appends each element to it once it is final."""
    formed, in_loop = [], [True]
    original, check = standard_basis.semisyzygy, standard_basis._check_completion

    def recording(ctx, h1, h2):
        if in_loop:
            formed.append((h1, h2))
        return original(ctx, h1, h2)

    def leaving(*args):
        in_loop.clear()
        return check(*args)

    monkeypatch.setattr(standard_basis, "semisyzygy", recording)
    monkeypatch.setattr(standard_basis, "_check_completion", leaving)
    basis = buchberger(ctx, gens).basis
    index = {id(b): k for k, b in enumerate(basis)}
    leads = [leading_term(ctx, b).exponent for b in basis]
    pairs = [(index[id(h1)], index[id(h2)]) for h1, h2 in formed]
    return [(sum(vec_max(leads[i], leads[j])), i, j) for i, j in pairs]


def test_loop_reduces_forest_pairs_by_degree_then_arrival(monkeypatch):
    # within a degree the forest pairs go by their later element, then
    # their earlier one: the order in which the pairs arose.  Only final
    # elements form pairs, so the two GKZ3 inputs of degree 2 form none.
    gens = [homogenize(parse_operator(t, 1)) for t in TWO_GENERATORS]
    assert _loop_pairs(monkeypatch, _ctx(), gens) == [
        (4, 0, 1), (5, 0, 2), (5, 1, 2), (6, 1, 3), (6, 0, 4), (6, 2, 4),
        (7, 2, 5), (7, 1, 6), (7, 3, 6), (8, 5, 6), (8, 4, 7), (8, 5, 7),
    ]
    gens = [homogenize(parse_operator(t, 3)) for t in GKZ3]
    assert _loop_pairs(monkeypatch, _ctx(3), gens) == [
        (3, 0, 2), (4, 0, 1), (4, 1, 2), (4, 0, 3), (4, 1, 3),
        (5, 0, 4), (5, 1, 4), (5, 2, 4), (6, 0, 5), (6, 3, 5),
    ]


@pytest.mark.parametrize("kind, pairs", [("degrevlex", 79), ("lex", 141)])
def test_loop_forms_every_pair_with_semisyzygy(monkeypatch, kind, pairs):
    # the loop builds each forest pair's candidate with the same
    # ``semisyzygy`` the certificate calls, once per pair it counts
    ctx = OrderContext(LinearForm.order(4), TieBreak(kind, tuple(range(8))))
    gens = [homogenize(parse_operator(text, 4)) for text in GKZ4]
    formed = _loop_pairs(monkeypatch, ctx, gens)
    assert len(formed) == len(set(formed)) == pairs
    assert buchberger(ctx, gens).stats.s_pairs_processed == pairs


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
    # drop one nonzero quotient's row from a fold of what a division took
    # off; the final cofactor check must notice the broken certificate
    original = standard_basis._fold
    fired = []

    def dropping_fold(row, quotients, rows):
        hit = next((i for i, q in enumerate(quotients) if not q.is_zero()), None)
        if hit is not None:
            fired.append(hit)
            rows = list(rows)
            rows[hit] = (HomogOperator.zero(1),) * len(rows[hit])
        return original(row, quotients, rows)

    monkeypatch.setattr(standard_basis, "_fold", dropping_fold)
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
            if not (s.is_zero() or divide(ctx, s, basis).remainder.is_zero()):
                return False
    return True


def test_injected_dropped_pair_is_caught(monkeypatch):
    # the loop loses the pair (0, 1), whose semisyzygy adds the element of
    # degree 4; the loop holds no record for it, so the certificate, which
    # reads the rule afresh from the final leads, divides it and must
    # reject what is left
    original = standard_basis._forest_pairs
    fired = []

    def dropping_once(leads, lcm, lcms):
        pairs = original(leads, lcm, lcms)
        if not fired and (0, 1) in pairs:
            fired.append(True)
            pairs.remove((0, 1))
        return pairs

    monkeypatch.setattr(standard_basis, "_forest_pairs", dropping_once)
    gens = [homogenize(parse_operator(t, 1)) for t in TWO_GENERATORS]
    with pytest.raises(InvariantViolation, match="fails the pair criterion"):
        buchberger(_ctx(), gens)
    assert fired


def test_a_fault_in_the_shared_pair_rule_is_caught_outside_the_certificate(monkeypatch):
    # the loop and the certificate both take their pairs from
    # ``_forest_pairs``, and both see the same forest at each lcm, so a
    # rule that drops the first pair it keeps at every lcm skips the same
    # pairs in both.  The inputs enter through the loop's own divisions,
    # so they reduce to zero against what it returns.  The slow forest of
    # the tests below and the truncation oracle must catch what the
    # certificate passes.
    original = standard_basis._forest_pairs

    def dropping_the_first_at_each_lcm(leads, lcm, lcms):
        seen = set()
        kept = []
        for i, j in original(leads, lcm, lcms):
            if lcm[i, j] in seen:
                kept.append((i, j))
            seen.add(lcm[i, j])
        return kept

    monkeypatch.setattr(standard_basis, "_forest_pairs", dropping_the_first_at_each_lcm)
    for n, texts, missed in ((1, TWO_GENERATORS, (1, 4, 0)), (3, GKZ3, (0, 0, 1, 0, 1, 0, 1))):
        ctx = _ctx(n)
        ops = [parse_operator(t, n) for t in texts]
        verdict = oracle_pipeline_agree(ctx, ops, compute_standard_basis(ctx, ops), degree_bound=6)
        assert not verdict.ok
        assert ("witness lead is no multiple of a basis lead", missed) in verdict.mismatches
    leads = [(1, 0, 0), (0, 1, 0), (1, 1, 1)]
    assert standard_basis._minimal_pairs(leads) != _forest_pairs(leads)


def test_a_record_for_a_dropped_remainder_passes_the_certificate_and_fails_the_oracle(monkeypatch):
    # the records are trusted bookkeeping: the loop's checked division of
    # the pair (0, 1) comes back with a zero remainder, so the pair is
    # recorded as certified and the element of degree 4 never enters.
    # The certificate divides no recorded pair, and every other part
    # holds, so the truncation oracle is what refuses the basis.
    original, pair_semisyzygy = standard_basis.divide, standard_basis.semisyzygy
    semisyzygies, fired = [], []

    def recording(*args):
        semisyzygies.append(pair_semisyzygy(*args))
        return semisyzygies[-1]

    def losing_once(ctx, h, divisors):
        out = original(ctx, h, divisors)
        if fired or not any(h is s for s in semisyzygies) or out.remainder.is_zero():
            return out
        fired.append(h)
        return DivisionResult(out.quotients, HomogOperator.zero(h.n, h.field))

    monkeypatch.setattr(standard_basis, "semisyzygy", recording)
    monkeypatch.setattr(standard_basis, "divide", losing_once)
    ctx = _ctx()
    ops = [parse_operator(t, 1) for t in TWO_GENERATORS]
    report = compute_standard_basis(ctx, ops)
    assert len(fired) == 1
    assert [leading_term(ctx, b).exponent for b in report.homog_basis] == [(0, 0, 2), (0, 2, 1)]
    verdict = oracle_pipeline_agree(ctx, ops, report, degree_bound=6)
    assert ("witness lead is no multiple of a basis lead", (2, 1, 1)) in verdict.mismatches


# Every division the completion makes goes through ``divide``: the loop
# divides each candidate once, by the elements so far followed by the
# degree's kept ones, and the tail pass (``_interreduce``) divides too.
# Each fault below is put into the output of one division as its own
# check (``division._check_division``) receives it, and that check must
# refuse it.
def _complete_with_faulty_division(monkeypatch, fault):
    """Run ``buchberger`` on ``TWO_GENERATORS`` with ``fault`` applied to
    the (quotients, remainder) that every ``divide`` hands its check, and
    return the exception it raised and how often the fault fired."""
    check = division._check_division
    state = {"interreducing": False, "fired": 0}

    def faulty_check(h, divisors, leads, quotients, remainder):
        out = fault(state, h, divisors, quotients, remainder)
        if out is not None:
            state["fired"] += 1
            quotients, remainder = out
        return check(h, divisors, leads, quotients, remainder)

    interreduce = standard_basis._interreduce

    def tracking_interreduce(*args):
        state["interreducing"] = True
        try:
            return interreduce(*args)
        finally:
            state["interreducing"] = False

    monkeypatch.setattr(division, "_check_division", faulty_check)
    monkeypatch.setattr(standard_basis, "_interreduce", tracking_interreduce)
    gens = [homogenize(parse_operator(t, 1)) for t in TWO_GENERATORS]
    with pytest.raises(InvariantViolation) as info:
        buchberger(_ctx(), gens)
    return str(info.value), state["fired"]


def _loop_division(state, h, divisors, remainder, same_degree):
    """Whether this is a division of the loop, not of the tail pass, with
    a nonzero remainder, and with (``same_degree``) or without a divisor
    of the dividend's degree: one of the degree's kept elements."""
    if state["fired"] or state["interreducing"] or remainder.is_zero():
        return False
    return same_degree == any(graded_degree(d) == graded_degree(h) for d in divisors)


def _add_a_term(same_degree):
    """The first nonzero remainder of a loop division (by the kept elements
    too, or by the lower ones only) gets one term of its degree that it
    lacks, so h - sum Q_i*P_i does not have it."""

    def fault(state, h, divisors, quotients, remainder):
        if not _loop_division(state, h, divisors, remainder, same_degree):
            return None
        d = graded_degree(remainder)
        absent = next(m for m in ((d - a, a, 0) for a in range(d + 1)) if m not in remainder.terms)
        return quotients, remainder + HomogOperator.monomial(1, absent)

    return fault


def test_injected_loop_remainder_fault_is_caught(monkeypatch):
    # a wrong remainder from the loop's division by the elements so far
    message, fired = _complete_with_faulty_division(monkeypatch, _add_a_term(same_degree=False))
    assert fired == 1
    assert "division reconstruction failed" in message


def test_injected_echelon_remainder_fault_is_caught(monkeypatch):
    # a wrong remainder from the first division that a kept element of
    # the same degree takes part in
    message, fired = _complete_with_faulty_division(monkeypatch, _add_a_term(same_degree=True))
    assert fired == 1
    assert "division reconstruction failed" in message


def test_injected_zero_remainder_fault_is_caught(monkeypatch):
    # the first nonzero remainder of a pair (the inputs have degrees 2
    # and 3) from a division that a kept element takes part in comes back
    # as zero, so the pair would add nothing to the basis
    def drop_the_remainder(state, h, divisors, quotients, remainder):
        if not _loop_division(state, h, divisors, remainder, True) or graded_degree(remainder) < 4:
            return None
        return quotients, HomogOperator.zero(1)

    message, fired = _complete_with_faulty_division(monkeypatch, drop_the_remainder)
    assert fired == 1
    assert "division reconstruction failed" in message


def test_injected_interreduction_fault_is_caught(monkeypatch):
    # the first tail-pass step that took something off undoes one of its
    # eliminations: h = sum Q_i*P_i + R still holds, but R keeps a term a
    # lead divides
    def undo_an_elimination(state, h, divisors, quotients, remainder):
        hit = next((i for i, q in enumerate(quotients) if not q.is_zero()), None)
        if state["fired"] or not state["interreducing"] or hit is None:
            return None
        offset, coeff = next(iter(quotients[hit].terms.items()))
        back = HomogOperator.monomial(1, offset, coeff)
        quotients = quotients[:hit] + (quotients[hit] - back,) + quotients[hit + 1 :]
        return quotients, remainder + back * divisors[hit]

    message, fired = _complete_with_faulty_division(monkeypatch, undo_an_elimination)
    assert fired == 1
    assert message == "remainder contains a divisible monomial"


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
