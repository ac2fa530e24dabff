"""An injected fault must make its op fail and the runner exit nonzero."""

import dataclasses
import json

import pytest

import run
import worker


def in_process(mode, payload):
    return json.loads(json.dumps(worker.MODES[mode](payload)))


def corrupt_first_coefficient(compute):
    def faulty(*args, **kwargs):
        report = compute(*args, **kwargs)
        first = report.homog_basis[0]
        terms = dict(first.terms)
        key = next(iter(terms))
        terms[key] = terms[key] + 1
        changed = type(first)(first.n, terms)
        return dataclasses.replace(report, homog_basis=(changed,) + report.homog_basis[1:])

    return faulty


@pytest.mark.parametrize("seed", [0, 5])
def test_injected_fault_fails_op_and_run(monkeypatch, capsys, seed):
    import weylstd

    monkeypatch.setattr(run, "run_worker", in_process)
    monkeypatch.setattr(
        weylstd, "compute_standard_basis", corrupt_first_coefficient(weylstd.compute_standard_basis)
    )
    code = run.main(["--workload", "small-ideals", "--seed", str(seed), "--seconds", "0.05"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_clean_run_passes(monkeypatch, capsys):
    monkeypatch.setattr(run, "run_worker", in_process)
    code = run.main(["--workload", "small-ideals", "--seed", "0", "--seconds", "0.05"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_tail_percentile_needs_ten_beyond():
    assert run.tail_percentile([1.0] * 19) is None
    label, _ = run.tail_percentile([float(i) for i in range(20)])
    assert label == "p50"
    label, value = run.tail_percentile([float(i) for i in range(1000)])
    assert label == "p99" and value == 989.0
