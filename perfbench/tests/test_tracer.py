import tracer as tracing


class FakeClock:
    """perf_counter stand-in that advances one tick per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_nested_self_time_arithmetic(monkeypatch):
    monkeypatch.setattr(tracing, "perf_counter", FakeClock())
    tr = tracing.Tracer()

    def leaf():
        return "leaf"

    def middle():
        tr.span("leaf", leaf)
        return tr.span("leaf", leaf)

    def root():
        tr.span("middle", middle)
        return "done"

    assert tr.span("root", root) == "done"
    # Each span reads the clock once at open and once at close: root 1..8,
    # middle 2..7, the leaves 3..4 and 5..6.
    total = {n: tr.by_name(tr.total_s, n) for n in ("root", "middle", "leaf")}
    self_s = {n: tr.by_name(tr.self_s, n) for n in ("root", "middle", "leaf")}
    assert total == {"root": 7.0, "middle": 5.0, "leaf": 2.0}
    assert self_s == {"root": 2.0, "middle": 3.0, "leaf": 2.0}
    assert tr.by_name(tr.calls, "leaf") == 2
    assert tr.self_sum() == total["root"]
    # parents point at the enclosing span, roots at -1
    names = [tr.names[i] for i in tr.span_name]
    assert names == ["root", "middle", "leaf", "leaf"]
    assert list(tr.span_parent) == [-1, 0, 1, 1]
    assert all(e > s for s, e in zip(tr.span_start, tr.span_end))


def test_self_time_survives_an_exception(monkeypatch):
    monkeypatch.setattr(tracing, "perf_counter", FakeClock())
    tr = tracing.Tracer()

    def boom():
        raise ValueError("boom")

    def outer():
        try:
            tr.span("inner", boom)
        except ValueError:
            pass

    tr.span("outer", outer)
    assert tr.by_name(tr.total_s, "inner") == 1.0
    assert tr.by_name(tr.self_s, "outer") == tr.by_name(tr.total_s, "outer") - 1.0
    assert not tr._open and not tr._child


def test_plan_rebinds_every_importing_module_and_restores():
    import weylstd
    from weylstd import division, oracle, standard_basis
    from weylstd.weyl import HomogOperator

    original = division.divide
    original_mul = HomogOperator.__mul__
    tr = tracing.Tracer()
    wrappers = tracing.plan(tr)
    wrappers.enable()
    try:
        for module in (weylstd, division, oracle, standard_basis):
            assert module.divide is not original
            assert module.divide.__wrapped__ is original
        ctx = weylstd.OrderContext(weylstd.LinearForm.order(1))
        x = weylstd.WeylOperator.x(1, 1)
        d = weylstd.WeylOperator.d(1, 1)
        report = weylstd.compute_standard_basis(ctx, [x, d])
    finally:
        wrappers.disable()
    assert division.divide is original and standard_basis.divide is original
    assert HomogOperator.__mul__ is original_mul
    assert report.staircase == ((0, 0),)
    assert tr.by_name(tr.calls, "standard_basis.report") == 1
    assert tr.by_name(tr.calls, "division.divide") >= 1
    assert tr.counts["standard_basis.pairs"] == report.stats.s_pairs_processed


def test_witness_rows_are_the_products_it_builds():
    from math import comb

    import weylstd

    ctx = weylstd.OrderContext(weylstd.LinearForm.order(1))
    ops = [weylstd.parse_operator(t, 1) for t in ("x1*D1 - 1", "D1^2")]
    tr = tracing.Tracer()
    wrappers = tracing.plan(tr)
    wrappers.enable()
    try:
        witness = weylstd.truncation_witness(ctx, ops, 4)
    finally:
        wrappers.disable()
    # one row per monomial of degree <= bound - deg(g) in 2n + 1 variables
    width = 3
    expected = sum(comb(4 - op.total_degree() + width, width) for op in ops)
    assert tr.counts["oracle.witness.rows"] == expected
    assert tr.counts["oracle.witness.rank"] == witness.matrix_rank
