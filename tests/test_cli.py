"""Command-line driver: dispatch, output modes, exit codes."""

import io
import json
import os
import sys
from pathlib import Path

import pytest

from weylstd import InvariantViolation, parse_operator, weyl_from_obj, homog_from_obj
from weylstd.cli import main


@pytest.fixture
def order_cfg(tmp_path):
    path = tmp_path / "order.cfg"
    path.write_text('n = 1\np = [0]\nq = [1]\n')
    return str(path)


@pytest.fixture
def vform_cfg(tmp_path):
    path = tmp_path / "vform.cfg"
    path.write_text('n = 1\np = [-1]\nq = [1]\n')
    return str(path)


@pytest.fixture(params=[7, 5])
def fp_cfg(tmp_path, request):
    path = tmp_path / "fp.cfg"
    path.write_text(f'n = 1\nfield = "fp({request.param})"\n')
    return str(path)


def _run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_normalize(capsys, order_cfg):
    status, out, _ = _run(capsys, "--config", order_cfg, "normalize", "D1*x1")
    assert status == 0
    assert out.strip() == "x1*D1 + 1"


def test_mul(capsys, order_cfg):
    status, out, _ = _run(capsys, "--config", order_cfg, "mul", "D1", "x1")
    assert status == 0
    assert out.strip() == "x1*D1 + 1"


def test_exp(capsys, order_cfg):
    status, out, _ = _run(capsys, "--config", order_cfg, "exp", "x1^3*D1^2 + D1^5")
    assert status == 0
    assert out.strip() == "(0, 5)"


def test_flags_accepted_after_the_subcommand(capsys, vform_cfg):
    status, out, _ = _run(capsys, "symbol", "--config", vform_cfg, "1 + x1^2*D1")
    assert status == 0
    assert out.strip() == "1"
    status, out, _ = _run(capsys, "exp", "--output", "json", "x1^3*D1^2 + D1^5")
    assert status == 0
    assert json.loads(out) == {"alpha": [0], "beta": [5]}
    status, out, _ = _run(capsys, "verify", "--seed", "3")
    assert status == 0
    assert "verify: ok" in out


def test_symbol_vform(capsys, vform_cfg):
    status, out, _ = _run(capsys, "--config", vform_cfg, "symbol", "1 + x1^2*D1")
    assert status == 0
    assert out.strip() == "1"


def test_homogenize(capsys, order_cfg):
    status, out, _ = _run(capsys, "--config", order_cfg, "homogenize", "x1*D1 + 1")
    assert status == 0
    assert out.strip() == "x1*D1 + t^2"


def test_divide(capsys, order_cfg):
    status, out, _ = _run(capsys, "--config", order_cfg, "divide", "x1*D1 + 1", "D1")
    assert status == 0
    assert "quotient 1: x1" in out
    assert "remainder: t^2" in out


def test_std_basis_text(capsys, order_cfg):
    status, out, _ = _run(capsys, "--config", order_cfg, "std-basis", "x1", "D1")
    assert status == 0
    assert "staircase: (0, 0)" in out
    assert "t^2" in out


def test_std_basis_json_round_trips(capsys, order_cfg):
    status, out, _ = _run(
        capsys, "--config", order_cfg, "--output", "json", "std-basis", "x1", "D1"
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["staircase"] == [[0, 0]]
    # serialized operators parse back exactly
    symbols = [weyl_from_obj(obj, 1) for obj in doc["symbols"]]
    assert parse_operator("1", 1) in symbols
    basis = [homog_from_obj(obj, 1) for obj in doc["homog_basis"]]
    assert len(basis) == 3
    stats = doc["stats"]
    assert set(stats) == {"s_pairs_processed", "reductions_to_zero", "max_degree"}


def test_gr_gens(capsys, vform_cfg):
    status, out, _ = _run(capsys, "--config", vform_cfg, "gr-gens", "1 + x1^2*D1")
    assert status == 0
    assert out.strip() == "1"


def test_staircase_with_grid(capsys, order_cfg):
    status, out, _ = _run(capsys, "--config", order_cfg, "staircase", "x1^2")
    assert status == 0
    assert "(2, 0)" in out
    assert "o" in out and "#" in out  # the plain-text grid for n = 1


@pytest.mark.parametrize("n", [1, 2])
def test_staircase_of_zero_ideal(capsys, tmp_path, n):
    path = tmp_path / "zero.cfg"
    path.write_text(f"n = {n}\n")
    status, out, _ = _run(capsys, "--config", str(path), "staircase", "0")
    assert status == 0
    assert out == "(empty staircase: zero ideal)\n"
    status, out, _ = _run(capsys, "--config", str(path), "--output", "json", "staircase", "0")
    assert status == 0
    assert json.loads(out) == {"staircase": []}


# The GKZ system H_A(beta) for A = [[1,1,1],[0,1,2]], beta = (3/5, 7/11).
GKZ3 = ("D1*D3 - D2^2", "x1*D1 + x2*D2 + x3*D3 - 3/5", "x2*D2 + 2*x3*D3 - 7/11")
GOLDEN = Path(__file__).parent / "data" / "gkz3_std_basis.json"
ORDER_UNIQUE_KEYS = ("homog_basis", "delta_basis", "symbols", "staircase")


@pytest.mark.parametrize("field", ["QQ", "F_7"])
@pytest.mark.parametrize("form", ["order", "vform"])
def test_std_basis_golden_document(capsys, tmp_path, form, field):
    # For a fixed order the reduced basis is unique, so these keys of the
    # std-basis document must not move under any change to how it is
    # computed.  The file was recorded with this same command.
    weights = "p = [-1, -1, -1]\nq = [1, 1, 1]\n" if form == "vform" else ""
    scalars = "rational" if field == "QQ" else "fp(7)"
    path = tmp_path / "gkz3.cfg"
    path.write_text(f'n = 3\n{weights}field = "{scalars}"\n')
    status, out, _ = _run(capsys, "--config", str(path), "--output", "json", "std-basis", *GKZ3)
    assert status == 0
    doc = json.loads(out)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[f"{form}-{field}"]
    assert {key: doc[key] for key in ORDER_UNIQUE_KEYS} == expected


# The GKZ system for A = [[1,1,1,1,1],[0,1,2,3,4]], the rational normal
# quartic: its six 2x2 toric minors and the Euler operators for
# beta = (3/5, 7/11), under the default order form over F_32003.
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
GOLDEN_GKZ5 = Path(__file__).parent / "data" / "gkz5_std_basis.json"


def test_std_basis_gkz5_golden_document(capsys, tmp_path):
    # A larger reduced basis (31 elements) pinned the same way; the file
    # was recorded with this same command.
    path = tmp_path / "gkz5.cfg"
    path.write_text('n = 5\nfield = "fp(32003)"\n')
    status, out, _ = _run(capsys, "--config", str(path), "--output", "json", "std-basis", *GKZ5)
    assert status == 0
    doc = json.loads(out)
    expected = json.loads(GOLDEN_GKZ5.read_text(encoding="utf-8"))
    assert {key: doc[key] for key in ORDER_UNIQUE_KEYS} == expected


def test_operands_from_file(capsys, order_cfg, tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text("# comment line\nx1^3\n\nx1*D1 + 2  # inline\n")
    status, out, _ = _run(capsys, "--config", order_cfg, "staircase", str(gens))
    assert status == 0
    assert "(1, 1)" in out and "(2, 0)" in out


def test_parse_error_exit_code(capsys, order_cfg):
    status, out, err = _run(capsys, "--config", order_cfg, "normalize", "x9")
    assert status == 2
    assert "out of range" in err


def test_parse_error_json_mode(capsys, order_cfg):
    status, out, _ = _run(
        capsys, "--config", order_cfg, "--output", "json", "normalize", "x9"
    )
    assert status == 2
    doc = json.loads(out)
    assert doc["error"]["code"] == "parse-error"


def test_file_parse_error_names_the_file(capsys, order_cfg, tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text("x1\nx1 +\n")
    status, _, err = _run(capsys, "--config", order_cfg, "normalize", str(gens))
    assert status == 2
    assert "gens.txt" in err and "line 2" in err


def test_config_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n = 1\np = [-2]\nq = [1]\n")
    status, _, err = _run(capsys, "--config", str(bad), "normalize", "x1")
    assert status == 2
    assert "admissible" in err


def test_degree_cap_exit_code(capsys, order_cfg):
    status, _, err = _run(
        capsys, "--config", order_cfg, "--degree-cap", "1", "std-basis", "x1", "D1"
    )
    assert status == 3
    assert "degree cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("std-basis", "--degree-cap", "-1", "x1", "D1"),
        ("--degree-cap", "-1", "std-basis", "x1"),
        ("--output", "json", "--degree-cap", "-1", "verify"),
    ],
    ids=["after-command", "before-command", "verify"],
)
def test_degree_cap_flag_is_validated(capsys, tmp_path, argv):
    # a bad flag fails as the same value in a config file does
    bad = tmp_path / "cap.cfg"
    bad.write_text("n = 1\ndegree_cap = -1\n")
    expected = "degree_cap must be a natural number, got -1"
    status, _, err = _run(capsys, "--config", str(bad), "std-basis", "x1")
    assert status == 2 and expected in err
    status, out, err = _run(capsys, *argv)
    assert status == 2
    if "json" in argv:
        assert json.loads(out)["error"] == {"code": "config-error", "message": expected}
    else:
        assert expected in err


def test_invariant_violation_exit_code(capsys, order_cfg, monkeypatch):
    import weylstd.cli as cli

    def boom(*args, **kwargs):
        raise InvariantViolation("forced for the test")

    monkeypatch.setattr(cli, "compute_standard_basis", boom)
    status, _, err = _run(capsys, "--config", order_cfg, "std-basis", "x1")
    assert status == 4
    assert "forced" in err


def test_unexpected_error_exit_code(capsys, order_cfg, monkeypatch):
    import weylstd.cli as cli

    def boom(*args, **kwargs):
        raise TypeError("forced for the test")

    monkeypatch.setattr(cli, "compute_standard_basis", boom)
    status, out, err = _run(capsys, "--config", order_cfg, "std-basis", "x1")
    assert status == 4
    assert out == ""
    assert err.count("\n") == 1 and "TypeError: forced" in err
    status, out, err = _run(capsys, "--config", order_cfg, "--output", "json", "std-basis", "x1")
    assert status == 4
    assert err == ""
    assert json.loads(out)["error"]["code"] == "internal-error"


def test_usage_error(capsys, order_cfg):
    status, _, err = _run(capsys, "--config", order_cfg, "divide", "x1")
    assert status == 2
    assert "divisor" in err
    status, _, err = _run(capsys, "--config", order_cfg, "exp", "x1", "D1")
    assert status == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("divide", "x1"), "divide needs a dividend and at least one divisor"),
        (("symbol", "0"), "the zero operator has no principal symbol"),
        (("exp", "0"), "the zero operator has no leading term"),
    ],
    ids=["divide", "symbol", "exp"],
)
def test_usage_errors_have_their_own_code(capsys, argv, message):
    status, out, _ = _run(capsys, "--output", "json", *argv)
    assert status == 2
    assert json.loads(out)["error"] == {"code": "usage-error", "message": message}


@pytest.mark.parametrize(
    "text, message",
    [
        ("x1^\u00b2", "unexpected character '\u00b2' (line 1, column 4)"),
        ("x\uff11", "unexpected character '\uff11' (line 1, column 2)"),
    ],
    ids=["superscript-two", "full-width-one"],
)
def test_non_ascii_digits_are_parse_errors(capsys, text, message):
    status, out, _ = _run(capsys, "--output", "json", "normalize", text)
    assert status == 2
    assert json.loads(out)["error"] == {"code": "parse-error", "message": message}


def test_operand_file_that_is_not_utf8(capsys, tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_bytes(b"x1\nD1 + \xff\n")
    status, out, _ = _run(capsys, "--output", "json", "normalize", str(gens))
    assert status == 2
    assert json.loads(out)["error"] == {
        "code": "parse-error",
        "message": f"{gens}: not valid UTF-8 (line 2, column 6)",
    }


@pytest.mark.parametrize(
    "data, message",
    [
        ('n = 1\nvar_order = ["x\u00b2", "D1"]\n'.encode(),
         "var_order entry is not a variable: unknown symbol 'x\u00b2'"),
        (b'n = 1\nfield = "\xe9"\n', "not valid UTF-8 (line 2, column 10)"),
        (b"n = 1001\n", "n must be at most 1000, got 1001"),
    ],
    ids=["superscript-name", "not-utf8", "n-too-large"],
)
def test_config_text_errors_are_config_errors(capsys, tmp_path, data, message):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(data)
    status, out, _ = _run(capsys, "--config", str(bad), "--output", "json", "normalize", "x1")
    assert status == 2
    assert json.loads(out)["error"] == {"code": "config-error", "message": f"{bad}: {message}"}


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, as after ``| head -c 1``: a long
    output fails as it is written, a short one when it is flushed."""

    def __init__(self, fd, fails_in):
        super().__init__()
        self.fd = fd
        self.fails_in = fails_in

    def write(self, text):
        if self.fails_in == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.fails_in == "flush":
            raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("fails_in", ["write", "flush"])
@pytest.mark.parametrize("output", ["text", "json"])
def test_closed_stdout_exits_141_quietly(capsys, monkeypatch, tmp_path, output, fails_in):
    sink = tmp_path / "stdout"
    with open(sink, "wb") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno(), fails_in))
        status = main(["--output", output, "std-basis", "x1", "D1"])
        # the interpreter's last flush at exit goes to devnull now
        os.write(fh.fileno(), b"flushed at exit")
    assert status == 141
    assert capsys.readouterr().err == ""
    assert sink.read_bytes() == b""


def test_mul_of_no_operators_is_a_usage_error(capsys, order_cfg, tmp_path):
    empty = tmp_path / "ops.txt"
    empty.write_text("# nothing here\n\n")
    status, _, err = _run(capsys, "--config", order_cfg, "mul", str(empty))
    assert status == 2
    assert "mul needs" in err


@pytest.mark.parametrize("line", ["field = 5", "var_order = [1, 2]"])
def test_non_string_config_values_are_config_errors(capsys, tmp_path, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"n = 1\n{line}\n")
    status, out, _ = _run(capsys, "--config", str(bad), "--output", "json", "normalize", "x1")
    assert status == 2
    assert json.loads(out)["error"]["code"] == "config-error"


def test_verify_ok(capsys, order_cfg):
    status, out, _ = _run(capsys, "--config", order_cfg, "verify")
    assert status == 0
    assert "verify: ok" in out


def test_verify_over_prime_field(capsys, fp_cfg):
    status, out, _ = _run(capsys, "--config", fp_cfg, "verify")
    assert status == 0
    assert "verify: ok" in out


def test_mul_zero_power_over_prime_field(capsys, fp_cfg):
    status, out, _ = _run(capsys, "--config", fp_cfg, "mul", "(0*x1)^0", "x1")
    assert status == 0
    assert out.strip() == "x1"


def test_verify_json(capsys, order_cfg):
    status, out, _ = _run(capsys, "--config", order_cfg, "--output", "json", "--seed", "3", "verify")
    assert status == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["checks"] > 0
    assert all(case["ok"] for case in doc["oracle_cases"])


def test_verify_reports_failures(capsys, order_cfg, monkeypatch):
    import weylstd.cli as cli
    from weylstd.oracle import FuzzReport

    def fake_fuzz(seed, trials):
        return FuzzReport(checks=1, failures=[("made-up law", "input")])

    monkeypatch.setattr(cli, "algebra_fuzz", fake_fuzz)
    status, out, _ = _run(capsys, "--config", order_cfg, "verify")
    assert status == 4
    assert "FAIL made-up law" in out


def test_default_config_is_order_form_n1(capsys):
    status, out, _ = _run(capsys, "exp", "x1^3*D1^2 + D1^5")
    assert status == 0
    assert out.strip() == "(0, 5)"


def test_output_mode_from_config(capsys, tmp_path):
    cfg = tmp_path / "json.cfg"
    cfg.write_text('n = 1\noutput = "json"\n')
    status, out, _ = _run(capsys, "--config", str(cfg), "normalize", "x1")
    assert status == 0
    assert json.loads(out)["operators"][0]["terms"][0]["alpha"] == [1]


def test_large_prime_moduli(capsys, tmp_path):
    # 2^61 - 1 is decided at once; a 31-digit modulus is above the limit
    # where the primality test is exact, a config error rather than a hang
    big = tmp_path / "big.cfg"
    big.write_text('n = 1\nfield = "fp(2305843009213693951)"\n')
    status, out, _ = _run(capsys, "--config", str(big), "std-basis", "x1", "D1")
    assert status == 0 and "staircase: (0, 0)" in out
    huge = tmp_path / "huge.cfg"
    huge.write_text('n = 1\nfield = "fp(1000000000000000000000000000057)"\n')
    status, out, _ = _run(capsys, "--config", str(huge), "--output", "json", "std-basis", "x1", "D1")
    assert status == 2
    error = json.loads(out)["error"]
    assert error["code"] == "config-error" and "too large" in error["message"]
