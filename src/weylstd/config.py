"""Run configuration: a flat key = value file.

One ``key = value`` per line of UTF-8.  Each value is one JSON value
(RFC 8259): an integer (ASCII digits, maybe a ``-``; no ``+``, ``_`` or
leading zero), a double-quoted string, or a flat list of either; ``null``
is refused.  A ``#`` starts a comment, on a line of its own or after the
value.  Example:

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
(p = 0, q = 1).  ``n`` is at most ``MAX_N``, far above the largest
system in the tests (n = 5); a larger one is refused before anything of
size n is built.  ``RunConfig`` checks only what the library objects
cannot know about a file: ``n`` and the lengths against it, the spelling
of ``field``, ``degree_cap`` and ``output``.  ``orders``, ``scalars`` and
``expressions`` own the order, field and variable-name rules; what they
reject becomes a ``ConfigError``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields

from .errors import ConfigError, ParseError
from .expressions import read_lines, variable_position
from .orders import LinearForm, OrderContext, TieBreak
from .scalars import QQ, PrimeField

MAX_N = 1000


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
        if n > MAX_N:
            raise ConfigError(f"n must be at most {MAX_N}, got {n}")
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
        try:
            perm = tuple(variable_position(name, n) for name in self.var_order)
        except ValueError as e:
            raise ConfigError(f"var_order entry is not a variable: {e}") from None
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


def load_config(path) -> RunConfig:
    try:
        lines = read_lines(path)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except ParseError as e:
        raise ConfigError(str(e)) from None

    raw = {}
    for lineno, line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, text = line.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = _json_value(text.strip(), f"{path}:{lineno}")

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


def _json_value(text, where):
    """One JSON value, followed by nothing but a comment."""
    try:
        value, end = json.JSONDecoder().raw_decode(text)
    except (ValueError, RecursionError):  # RecursionError: lists nested too deep
        end = None
    if end is None or text[end:].strip()[:1] not in ("", "#"):
        raise ConfigError(f"{where}: cannot parse value {text!r}")
    if value is None:
        raise ConfigError(f"{where}: null is not a value; leave the key out for its default")
    return value
