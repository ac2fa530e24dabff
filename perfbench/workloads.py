"""The benchmark's workloads: seeded inputs, one operation, output checks.

Inputs are plain data (operator texts, weights, tiebreaks) made from the
seed by this file alone, so the program under test never sees the seed
and a change to the program cannot change its own inputs.

An operation ("op") takes one ideal from operator text to a certified
``StandardBasisReport`` plus its ``std-basis`` JSON document.  On
``oracle-witness`` the op also asks the truncation oracle for a verdict
on that report.  Checks run after the op, outside its timed region.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference" / "default_seed.json"
DEFAULT_SEED = 0

TIEBREAK_KINDS = ("lex", "deglex", "degrevlex")

# Toric generators of I_A and the resonance functionals of cone(A) for the
# two A-hypergeometric systems (Saito-Sturmfels-Takayama 2000).
GKZ = {
    4: {
        "A": ((1, 1, 1, 1), (0, 1, 3, 4)),
        "toric": ("D2*D3 - D1*D4", "D3^3 - D2*D4^2", "D1*D3^2 - D2^2*D4", "D2^3 - D1^2*D3"),
        "facets": ((1, 0), (0, 1), (4, -1)),
    },
    3: {
        "A": ((1, 1, 1), (0, 1, 2)),
        "toric": ("D1*D3 - D2^2",),
        "facets": ((1, 0), (0, 1), (2, -1)),
    },
}

BETA_DENOMINATORS = (5, 7, 11, 13)

# One stratified block of small ideals, as the generator degrees of each
# ideal: every ordered degree triple once, every pair three times, and each
# single generator degree 36 times.  Two thirds of the ideals thus have one
# generator, so the median op is a cheap, steady per-call cost, while the
# pairs and triples supply the completion work and the tail.
SMALL_BLOCK = (
    [(d,) for d in (1, 2, 3) for _ in range(36)]
    + [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) for _ in range(3)]
    + [(a, b, c) for a in (1, 2, 3) for b in (1, 2, 3) for c in (1, 2, 3)]
)
SMALL_BLOCKS = 5


class Workload:
    def __init__(self, name, round_size, degree_bound=None, basis_size=None):
        self.name = name
        self.round_size = round_size  # ops a timed loop completes together
        self.degree_bound = degree_bound  # oracle verdicts only
        self.basis_size = basis_size  # expected reduced basis size, if fixed


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gkz-complete", round_size=1, basis_size=23),
        Workload("oracle-witness", round_size=4, degree_bound=8),
        Workload("small-ideals", round_size=1),
    )
}


def _fraction_text(c):
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def draw_beta(rng, facets):
    """A rational beta off every resonance hyperplane F(beta) in Z.

    A draw that lands on one is redrawn from the same generator, so the
    seed alone decides the result."""
    while True:
        beta = tuple(
            Fraction(rng.randrange(d + 1, 2 * d), d)
            for d in (rng.choice(BETA_DENOMINATORS), rng.choice(BETA_DENOMINATORS))
        )
        if all((f[0] * beta[0] + f[1] * beta[1]).denominator != 1 for f in facets):
            return beta


def gkz_texts(n, beta):
    """Operator texts of the GKZ system H_A(beta) in n variables."""
    system = GKZ[n]
    texts = list(system["toric"])
    for row, b in zip(system["A"], beta):
        euler = " + ".join(
            (f"{a}*" if a != 1 else "") + f"x{j + 1}*D{j + 1}" for j, a in enumerate(row) if a
        )
        texts.append(f"{euler} - {_fraction_text(b)}")
    return texts


def _form(p, q, tiebreak=None):
    return {"p": list(p), "q": list(q), "tiebreak": tiebreak}


def random_form(rng, n, bound=2):
    """A random admissible weight form, drawn as ``oracle.random_linear_form``
    draws it: p_i in [-bound, bound], q_i in [max(-p_i, -bound), bound]."""
    p, q = [], []
    for _ in range(n):
        pi = rng.randint(-bound, bound)
        p.append(pi)
        q.append(rng.randint(max(-pi, -bound), bound))
    return p, q


def random_generator(rng, degree):
    """Text of a one-variable operator of total degree ``degree`` with 1-3
    terms and nonzero coefficients in [-5, 5]."""
    exps = {}
    for t in range(rng.randint(1, 3)):
        d = degree if t == 0 else rng.randint(0, degree)
        a = rng.randint(0, d)
        exps.setdefault((a, d - a), rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)))
    parts = []
    for (a, b), c in sorted(exps.items(), key=lambda kv: (-sum(kv[0]), kv[0])):
        factors = ([f"x1^{a}" if a > 1 else "x1"] if a else []) + (
            [f"D1^{b}" if b > 1 else "D1"] if b else []
        )
        mono = "*".join(factors)
        mag = abs(c)
        body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else str(mag))
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def make_inputs(name, seed):
    """The workload's inputs for ``seed``, as plain JSON-ready data."""
    rng = random.Random(f"{name}:{seed}")
    if name == "gkz-complete":
        beta = draw_beta(rng, GKZ[4]["facets"])
        forms = [_form((0,) * 4, (1,) * 4)]
        ideals = [{"form": 0, "gens": gkz_texts(4, beta)}]
        return {"workload": name, "seed": seed, "n": 4, "fresh_context": False,
                "forms": forms, "ideals": ideals}
    if name == "oracle-witness":
        beta = draw_beta(rng, GKZ[3]["facets"])
        forms = [
            _form((0, 0, 0), (1, 1, 1)),  # order
            _form((1, 1, 1), (1, 1, 1)),  # Bernstein
            _form((0, 0, -1), (0, 0, 1)),  # v_form
            _form((0, 0, -1), (1, 1, 2)),  # l_form(3, 1, 1)
        ]
        texts = gkz_texts(3, beta)
        ideals = [{"form": i, "gens": texts} for i in range(len(forms))]
        return {"workload": name, "seed": seed, "n": 3, "fresh_context": False,
                "forms": forms, "ideals": ideals}
    if name == "small-ideals":
        forms, ideals = [], []
        for _ in range(SMALL_BLOCKS):
            block = list(SMALL_BLOCK)
            rng.shuffle(block)
            for degrees in block:
                p, q = random_form(rng, 1)
                perm = [0, 1]
                rng.shuffle(perm)
                forms.append(_form(p, q, [rng.choice(TIEBREAK_KINDS), perm]))
                ideals.append({"form": len(forms) - 1,
                               "gens": [random_generator(rng, d) for d in degrees]})
        return {"workload": name, "seed": seed, "n": 1, "fresh_context": True,
                "forms": forms, "ideals": ideals}
    raise ValueError(f"unknown workload {name!r}; pick from {sorted(WORKLOADS)}")


# Workloads whose default-seed document hashes are recorded.
RECORDED = ("gkz-complete", "small-ideals")


def load_reference(name, seed):
    """Recorded document hashes, one per ideal, for a recorded workload on
    the default seed; None on any other seed or workload.  A missing file
    or entry is an error, so the check cannot drop out unnoticed."""
    if seed != DEFAULT_SEED or name not in RECORDED:
        return None
    if not REFERENCE_FILE.is_file():
        raise FileNotFoundError(f"no reference hashes at {REFERENCE_FILE}")
    hashes = json.loads(REFERENCE_FILE.read_text(encoding="utf-8")).get(name)
    if hashes is None:
        raise KeyError(f"{REFERENCE_FILE} has no hashes for {name!r}")
    return hashes


# --- running one op -------------------------------------------------------


def build_context(lib, form):
    linear = lib.LinearForm(tuple(form["p"]), tuple(form["q"]))
    if form["tiebreak"] is None:
        return lib.OrderContext(linear)
    kind, perm = form["tiebreak"]
    return lib.OrderContext(linear, lib.TieBreak(kind, tuple(perm)))


# The reduced basis, its image at t = 1, the symbols and the staircase are
# fixed by the ideal and the order.  Cofactors and pair counts are not:
# they depend on how the completion runs, which later work may change.
HASHED_KEYS = ("homog_basis", "delta_basis", "symbols", "staircase")


def doc_hash(doc):
    canonical = {k: doc[k] for k in HASHED_KEYS}
    return hashlib.sha256(json.dumps(canonical, indent=2).encode("utf-8")).hexdigest()


class OpResult:
    __slots__ = ("ctx", "ops", "report", "doc", "text", "agreement")

    def __init__(self, ctx, ops, report, doc, text, agreement):
        self.ctx, self.ops, self.report = ctx, ops, report
        self.doc, self.text, self.agreement = doc, text, agreement


class Session:
    """A workload's inputs bound to an imported ``weylstd``."""

    def __init__(self, lib, payload, check_reference=True):
        self.lib = lib
        self.payload = payload
        self.workload = WORKLOADS[payload["workload"]]
        self.n = payload["n"]
        self.ideals = payload["ideals"]
        self.forms = payload["forms"]
        self.contexts = None
        self.cli = None
        self.reference = None
        if check_reference:
            self.reference = load_reference(payload["workload"], payload["seed"])
        if self.reference is not None and len(self.reference) != len(self.ideals):
            raise ValueError(
                f"{len(self.reference)} reference hashes for {len(self.ideals)} ideals; "
                "re-record them with record_reference.py"
            )
        self._seen = {}  # ideal index -> document hash of its first op

    def setup(self):
        """Import the CLI's document builder, build every order context and
        parse every operator text once."""
        self.cli = importlib.import_module(f"{self.lib.__name__}.cli")
        self.contexts = [build_context(self.lib, f) for f in self.forms]
        for ideal in self.ideals:
            for text in ideal["gens"]:
                self.lib.parse_operator(text, self.n)

    def run_op(self, index):
        """One op on ideal ``index``; the part the benchmark times."""
        lib = self.lib
        ideal = self.ideals[index]
        if self.payload["fresh_context"]:
            ctx = build_context(lib, self.forms[ideal["form"]])
        else:
            ctx = self.contexts[ideal["form"]]
        ops = [lib.parse_operator(text, self.n) for text in ideal["gens"]]
        report = lib.compute_standard_basis(ctx, ops)
        doc = self.cli._report_doc(report, ctx)  # what `std-basis --output json` prints
        text = json.dumps(doc, indent=2)
        agreement = None
        if self.workload.degree_bound is not None:
            agreement = lib.oracle_pipeline_agree(
                ctx, ops, report, degree_bound=self.workload.degree_bound
            )
        return OpResult(ctx, ops, report, doc, text, agreement)

    def check(self, index, result):
        """Problems with an op's output; an empty list means it passed."""
        lib = self.lib
        problems = []
        report = result.report
        digest = doc_hash(result.doc)
        first = self._seen.setdefault(index, digest)
        if digest != first:
            problems.append("document differs from an earlier op on the same ideal")
        if self.reference is not None:
            expected = self.reference[index]
            if digest != expected:
                problems.append("document hash differs from the recorded reference")
        if json.loads(result.text) != result.doc:
            problems.append("JSON text does not round-trip to the document")
        gens = [lib.homogenize(op) for op in result.ops if not op.is_zero()]
        if len(report.cofactors) != len(report.homog_basis):
            problems.append("one cofactor row per basis element expected")
        for b, row in zip(report.homog_basis, report.cofactors):
            total = lib.HomogOperator.zero(b.n)
            for c, g in zip(row, gens):
                total = total + c * g
            if total != b:
                problems.append("cofactor rows do not rebuild homog_basis")
                break
        expected_size = self.workload.basis_size
        if expected_size is not None and len(report.homog_basis) != expected_size:
            problems.append(
                f"basis has {len(report.homog_basis)} elements, expected {expected_size}"
            )
        if result.agreement is not None and not result.agreement.ok:
            problems.append(f"oracle disagrees: {result.agreement.mismatches[:3]}")
        return problems
