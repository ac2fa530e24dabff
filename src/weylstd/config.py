"""Run configuration: a flat key = value file.

The format is a TOML-ish subset that stays trivially parseable: one
``key = value`` per line, ``#`` comments, integers, quoted strings, and
flat lists of either.  Example:

    n = 2
    p = [0, -1]
    q = [0, 1]
    tiebreak = "degrevlex"
    var_order = ["x1", "x2", "D1", "D2"]
    field = "rational"      # or "fp(7)"
    degree_cap = 64
    output = "text"

``p``/``q`` are the variable weights and ``var_order`` lists all 2n
variables from smallest to largest for the tiebreak order.  Every key
except ``n`` has a default; the default weights are the order filtration
(p = 0, q = 1).  ``RunConfig`` checks only what the library objects
cannot know about a file: ``n`` and the lengths against it, the variable
names, the spelling of ``field``, ``degree_cap`` and ``output``.  The
order and field rules belong to ``orders`` and ``scalars``; their
constructors run once, and what they reject becomes a ``ConfigError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

from .errors import ConfigError
from .orders import LinearForm, OrderContext, TieBreak
from .scalars import QQ, PrimeField


@dataclass(frozen=True)
class RunConfig:
    n: int
    p: tuple = None
    q: tuple = None
    tiebreak: str = "degrevlex"
    var_order: tuple = None
    field: str = "rational"
    degree_cap: int = 64
    output: str = "text"

    def __post_init__(self):
        n = self.n
        if type(n) is not int or n < 1:
            raise ConfigError(f"n must be a natural number >= 1, got {n!r}")
        names = tuple(f"{v}{i + 1}" for v in "xD" for i in range(n))
        for key, value in (("p", (0,) * n), ("q", (1,) * n), ("var_order", names)):
            if getattr(self, key) is None:
                object.__setattr__(self, key, value)
        for key in ("p", "q"):
            vec = getattr(self, key)
            if len(vec) != n:
                raise ConfigError(f"{key} must be a list of {n} integers, got {vec!r}")
        if len(self.var_order) != 2 * n:
            raise ConfigError(f"var_order must list all {2 * n} variables")
        perm = tuple(_flat_index(name, n) for name in self.var_order)
        prime = re.fullmatch(r"fp\(([0-9]+)\)", str(self.field))
        if self.field != "rational" and not prime:
            raise ConfigError(f"field must be \"rational\" or \"fp(prime)\", got {self.field!r}")
        if type(self.degree_cap) is not int or self.degree_cap < 0:
            raise ConfigError(f"degree_cap must be a natural number, got {self.degree_cap!r}")
        if self.output not in ("text", "json"):
            raise ConfigError(f"output must be \"text\" or \"json\", got {self.output!r}")
        try:
            ctx = OrderContext(LinearForm(self.p, self.q), TieBreak(self.tiebreak, perm))
        except ValueError as e:
            raise ConfigError(str(e)) from None
        object.__setattr__(self, "_context", ctx)
        object.__setattr__(self, "_field", PrimeField(int(prime.group(1))) if prime else QQ)

    def scalar_field(self):
        return self._field

    def order_context(self):
        return self._context


_KEYS = tuple(f.name for f in fields(RunConfig))


def _flat_index(name, n):
    head, digits = str(name)[:1], str(name)[1:]
    if head in ("x", "D", "d") and digits.isdigit() and 1 <= int(digits) <= n:
        i = int(digits) - 1
        return i if head == "x" else n + i
    raise ConfigError(f"var_order entry {name!r} is not a variable for n = {n}")


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None

    raw = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = _strip_comment(line).strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = _parse_value(value.strip(), f"{path}:{lineno}")

    if "n" not in raw:
        raise ConfigError(f"{path}: missing required key 'n'")
    for key in ("p", "q", "var_order"):
        if key in raw:
            if not isinstance(raw[key], list):
                raise ConfigError(f"{path}: {key} must be a list")
            raw[key] = tuple(raw[key])
    try:
        return RunConfig(**raw)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


def _strip_comment(line):
    quoted = False
    for i, ch in enumerate(line):
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            return line[:i]
    return line


def _parse_value(text, where):
    if text.startswith("[") and text.endswith("]"):
        body = text[1:-1].strip()
        if not body:
            return []
        return [_parse_scalar(part.strip(), where) for part in body.split(",")]
    return _parse_scalar(text, where)


def _parse_scalar(text, where):
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse value {text!r}") from None
