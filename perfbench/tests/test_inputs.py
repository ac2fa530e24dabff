import json
from fractions import Fraction

import pytest

import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_texts(name):
    a = json.dumps(workloads.make_inputs(name, 7)).encode()
    b = json.dumps(workloads.make_inputs(name, 7)).encode()
    assert a == b
    assert a != json.dumps(workloads.make_inputs(name, 8)).encode()


def test_gkz_betas_avoid_resonance():
    for seed in range(50):
        for n, name in ((4, "gkz-complete"), (3, "oracle-witness")):
            text = workloads.make_inputs(name, seed)["ideals"][0]["gens"]
            beta = [Fraction(t.rsplit(" - ", 1)[1]) for t in text[-2:]]
            for f in workloads.GKZ[n]["facets"]:
                assert (f[0] * beta[0] + f[1] * beta[1]).denominator != 1


def test_small_ideals_shape_and_parse():
    import weylstd

    payload = workloads.make_inputs("small-ideals", 3)
    ideals = payload["ideals"]
    assert len(ideals) == len(workloads.SMALL_BLOCK) * workloads.SMALL_BLOCKS
    counts = {k: sum(len(i["gens"]) == k for i in ideals) for k in (1, 2, 3)}
    assert counts == {1: 108 * workloads.SMALL_BLOCKS, 2: 27 * workloads.SMALL_BLOCKS,
                      3: 27 * workloads.SMALL_BLOCKS}
    for ideal in ideals[:300]:
        form = payload["forms"][ideal["form"]]
        workloads.build_context(weylstd, form)  # admissible
        for text in ideal["gens"]:
            op = weylstd.parse_operator(text, 1)
            assert not op.is_zero() and 1 <= op.total_degree() <= 3


def test_default_seed_requires_the_reference(monkeypatch, tmp_path):
    import weylstd

    payload = workloads.make_inputs("small-ideals", workloads.DEFAULT_SEED)
    monkeypatch.setattr(workloads, "REFERENCE_FILE", tmp_path / "missing.json")
    with pytest.raises(FileNotFoundError):
        workloads.Session(weylstd, payload)
    # other seeds and unrecorded workloads carry no reference
    assert workloads.Session(weylstd, workloads.make_inputs("small-ideals", 1)).reference is None
    oracle = workloads.make_inputs("oracle-witness", workloads.DEFAULT_SEED)
    assert workloads.Session(weylstd, oracle).reference is None
    # the recording script's path runs without one
    assert workloads.Session(weylstd, payload, check_reference=False).reference is None


def test_reference_must_have_one_hash_per_ideal(monkeypatch, tmp_path):
    import weylstd

    short = tmp_path / "short.json"
    short.write_text(json.dumps({"small-ideals": ["0" * 64] * 3, "gkz-complete": []}))
    monkeypatch.setattr(workloads, "REFERENCE_FILE", short)
    payload = workloads.make_inputs("small-ideals", workloads.DEFAULT_SEED)
    with pytest.raises(ValueError, match="3 reference hashes"):
        workloads.Session(weylstd, payload)


def test_recorded_reference_covers_every_ideal():
    recorded = json.loads(workloads.REFERENCE_FILE.read_text(encoding="utf-8"))
    for name in workloads.RECORDED:
        payload = workloads.make_inputs(name, workloads.DEFAULT_SEED)
        assert len(recorded[name]) == len(payload["ideals"])
