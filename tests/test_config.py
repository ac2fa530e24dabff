"""Configuration file loading and validation."""

import itertools
import re

import pytest

from weylstd import (
    ConfigError,
    LinearForm,
    OrderContext,
    ParseError,
    PrimeField,
    QQ,
    RunConfig,
    TieBreak,
    load_config,
    parse_operator,
)
from weylstd.config import MAX_N


def _write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_full_config(tmp_path):
    path = _write(
        tmp_path,
        """
        # V-filtration on the second variable
        n = 2
        p = [0, -1]
        q = [0, 1]
        tiebreak = "deglex"
        var_order = ["D2", "D1", "x2", "x1"]
        field = "fp(7)"
        degree_cap = 10
        output = "json"
        """,
    )
    cfg = load_config(path)
    assert cfg.n == 2
    assert cfg.p == (0, -1) and cfg.q == (0, 1)
    assert cfg.tiebreak == "deglex"
    assert cfg.degree_cap == 10
    assert cfg.output == "json"
    assert cfg.scalar_field() == PrimeField(7)
    ctx = cfg.order_context()
    assert ctx.form.value((0, 1, 0, 0)) == -1
    # D2 is the smallest variable under this ordering
    assert ctx.tiebreak.perm == (3, 2, 1, 0)


def test_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, "n = 3"))
    assert cfg.p == (0, 0, 0)
    assert cfg.q == (1, 1, 1)  # order filtration by default
    assert cfg.tiebreak == "degrevlex"
    assert cfg.var_order == ("x1", "x2", "x3", "D1", "D2", "D3")
    assert cfg.field == "rational"
    assert cfg.scalar_field() is QQ
    assert cfg.degree_cap == 64
    assert cfg.output == "text"


def test_comments_and_blank_lines(tmp_path):
    cfg = load_config(_write(tmp_path, '\n# header\nn = 1   # trailing\n\nfield = "rational"\n'))
    assert cfg.n == 1
    # a # inside a string is part of it; a comment needs no space before it
    text = 'n = 1\nfield = "fp(7)#" # hi\ntiebreak = "lex"# no space\n'
    with pytest.raises(ConfigError, match="field must be"):
        load_config(_write(tmp_path, text))
    cfg = load_config(_write(tmp_path, text.replace("fp(7)#", "fp(7)")))
    assert cfg.scalar_field() == PrimeField(7) and cfg.tiebreak == "lex"


def test_missing_n(tmp_path):
    with pytest.raises(ConfigError, match="missing required key 'n'"):
        load_config(_write(tmp_path, "p = [1]"))


def test_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(_write(tmp_path, "n = 1\ndegre_cap = 3"))


def test_duplicate_key(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(_write(tmp_path, "n = 1\nn = 2"))


def test_inadmissible_weights(tmp_path):
    with pytest.raises(ConfigError, match="not admissible"):
        load_config(_write(tmp_path, "n = 1\np = [-2]\nq = [1]"))


def test_wrong_vector_length(tmp_path):
    with pytest.raises(ConfigError, match="list of 2 integers"):
        load_config(_write(tmp_path, "n = 2\np = [1]\nq = [1, 1]"))


def test_nonprime_field(tmp_path):
    with pytest.raises(ConfigError, match="not prime"):
        load_config(_write(tmp_path, 'n = 1\nfield = "fp(6)"'))
    with pytest.raises(ConfigError, match="field must be"):
        load_config(_write(tmp_path, 'n = 1\nfield = "float"'))
    # int() reads Arabic-Indic digits, so "fp(٧)" would have been F_7
    with pytest.raises(ConfigError, match="field must be"):
        RunConfig(n=1, field="fp(٧)")


def test_bad_tiebreak_and_var_order(tmp_path):
    with pytest.raises(ConfigError, match="tiebreak must be"):
        load_config(_write(tmp_path, 'n = 1\ntiebreak = "grlex"'))
    with pytest.raises(ConfigError, match="var_order"):
        load_config(_write(tmp_path, 'n = 1\nvar_order = ["x1"]'))
    with pytest.raises(ConfigError, match="exactly once"):
        load_config(_write(tmp_path, 'n = 1\nvar_order = ["x1", "x1"]'))
    with pytest.raises(ConfigError, match="not a variable"):
        load_config(_write(tmp_path, 'n = 1\nvar_order = ["x1", "D2"]'))


def test_syntax_errors(tmp_path):
    with pytest.raises(ConfigError, match="expected key = value"):
        load_config(_write(tmp_path, "n: 1"))
    with pytest.raises(ConfigError, match="cannot parse value"):
        load_config(_write(tmp_path, "n = one"))
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "missing.cfg"))


def test_default_constructor_validates():
    with pytest.raises(ConfigError):
        RunConfig(n=1, p=(-1,), q=(0,))
    with pytest.raises(ConfigError):
        RunConfig(n=0, p=(), q=())
    cfg = RunConfig(n=2)
    assert cfg.order_context().n == 2


def test_n_is_bounded():
    # refused before the 2n names or the context are built
    with pytest.raises(ConfigError, match=f"n must be at most {MAX_N}, got {MAX_N + 1}"):
        RunConfig(n=MAX_N + 1)
    assert RunConfig(n=MAX_N).order_context().n == MAX_N


def test_constructor_takes_only_int_naturals():
    # bools used to pass as n = True and a cap of False
    with pytest.raises(ConfigError, match="n must be a natural number"):
        RunConfig(n=True)
    for cap in (False, 6.0):
        with pytest.raises(ConfigError, match="degree_cap must be a natural number"):
            RunConfig(n=1, degree_cap=cap)
    assert RunConfig(n=1, degree_cap=0).degree_cap == 0


def test_constructor_fills_order_filtration_defaults():
    cfg = RunConfig(n=2)
    assert cfg.p == (0, 0) and cfg.q == (1, 1)
    assert cfg.var_order == ("x1", "x2", "D1", "D2")
    assert cfg.order_context().form == LinearForm.order(2)
    assert cfg.order_context().tiebreak == TieBreak.default(2)


def test_context_and_field_are_built_once():
    cfg = RunConfig(n=1, field="fp(7)")
    assert cfg.order_context() is cfg.order_context()
    assert cfg.scalar_field() is cfg.scalar_field()


def test_file_errors_name_the_file(tmp_path):
    path = _write(tmp_path, 'n = 1\ntiebreak = "grlex"')
    with pytest.raises(ConfigError, match="^" + re.escape(path) + ": tiebreak must be"):
        load_config(path)


def test_config_accepts_what_the_library_accepts():
    names = ("x1", "x2", "D1", "D2")
    grid = itertools.product(
        [(0, 0), (0, -1), (-2, 0), (1.5, 0)],
        [(1, 1), (0, 1), (1,)],
        ["lex", "degrevlex", "grlex"],
        [(3, 2, 1, 0), (0, 0, 1, 2)],
    )
    for p, q, kind, perm in grid:
        try:
            OrderContext(LinearForm(p, q), TieBreak(kind, perm))
            library_ok = True
        except ValueError:
            library_ok = False
        try:
            RunConfig(n=2, p=p, q=q, tiebreak=kind, var_order=tuple(names[i] for i in perm))
            config_ok = True
        except ConfigError:
            config_ok = False
        assert config_ok == library_ok, (p, q, kind, perm)


@pytest.mark.parametrize(
    "text, message",
    [
        ("n = \u0667", "cannot parse value"),  # Arabic-Indic seven; int() read it as 7
        ("n = \uff11", "cannot parse value"),  # a full-width one
        ("n = 1\ndegree_cap = 1_0", "cannot parse value"),
        ("n = 1\nq = [+1]", "cannot parse value"),
        ("n = 01", "cannot parse value"),
        ("n = 1\np = null", "null is not a value"),
        ("n = 1\np = [0] x", "cannot parse value"),
        ("n = 1\np = " + "[" * 100000, "cannot parse value"),  # too deep for json
        ('n = 1\nvar_order = ["x\u00b2", "D1"]', "var_order entry is not a variable"),
        ('n = 1\nvar_order = ["x\uff11", "D1"]', "var_order entry is not a variable"),
    ],
    ids=["arabic-indic", "full-width", "underscore", "plus", "leading-zero", "null",
         "trailing-text", "nested-too-deep", "superscript-name", "full-width-name"],
)
def test_values_outside_json_are_config_errors(tmp_path, text, message):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match="^" + re.escape(str(path)) + ".*" + message):
        load_config(str(path))


def test_config_that_is_not_utf8(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b'n = 1\nfield = "\xe9"\n')
    with pytest.raises(ConfigError) as info:
        load_config(str(path))
    assert str(info.value) == f"{path}: not valid UTF-8 (line 2, column 10)"


def test_constructor_refuses_non_ascii_names():
    with pytest.raises(ConfigError, match="var_order entry is not a variable"):
        RunConfig(n=1, var_order=("x\u00b2", "D1"))


@pytest.mark.parametrize(
    "name, ok",
    [("x1", True), ("d1", True), ("D01", True), ("x0", False), ("x2", False),
     ("X1", False), ("x", False), ("x\u00b2", False), ("x\uff11", False)],
)
def test_config_and_parser_take_the_same_names(name, ok):
    # the config's var_order and the parser follow one variable-name rule
    other = "D1" if name[:1] == "x" else "x1"
    try:
        RunConfig(n=1, var_order=(name, other))
        config_ok = True
    except ConfigError:
        config_ok = False
    try:
        parse_operator(name, 1)
        parser_ok = True
    except ParseError:
        parser_ok = False
    assert config_ok == parser_ok == ok
