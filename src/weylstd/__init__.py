"""Exact standard bases of left ideals of polynomial differential
operators, for filtrations given by admissible integer weights, computed
by lifting to a graded companion algebra where division terminates.

The short path through the library:

    >>> from weylstd import WeylOperator, LinearForm, OrderContext
    >>> from weylstd import compute_standard_basis
    >>> x, D = WeylOperator.x(1, 1), WeylOperator.d(1, 1)
    >>> ctx = OrderContext(LinearForm.order(1))
    >>> compute_standard_basis(ctx, [x, D]).staircase
    ((0, 0),)

Every operator carries its scalar field, rationals unless told otherwise;
over a prime field, hand the field to the parser (or to the constructors
as ``field=``), and coefficients are ``int`` residues in [0, p):

    >>> from weylstd import PrimeField, parse_operator
    >>> gens = [parse_operator(s, 1, PrimeField(7)) for s in ("x1^3", "x1*D1 + 9")]
    >>> gens[1]
    <WeylOperator n=1: x1*D1 + 2>
    >>> compute_standard_basis(ctx, gens).staircase
    ((1, 1), (2, 0))
    >>> gens[0] + x
    Traceback (most recent call last):
    ...
    ValueError: field mismatch: PrimeField(7) and RationalField()
"""

from .errors import (
    ConfigError,
    DegreeCapExceeded,
    InvariantViolation,
    OracleSizeError,
    ParseError,
    WeylstdError,
)
from .scalars import QQ, PrimeField, RationalField
from .weyl import HomogOperator, Polynomial, WeylOperator
from .orders import (
    LeadingTerm,
    LinearForm,
    OrderContext,
    TieBreak,
    is_graded_commutative,
    leading_term,
    principal_symbol,
)
from .homogenize import (
    dehomogenize,
    graded_degree,
    homogenize,
    is_homogeneous,
    project_exponent,
)
from .division import DivisionResult, divide, region
from .standard_basis import (
    DEFAULT_DEGREE_CAP,
    CompletionResult,
    CompletionStats,
    StandardBasisReport,
    buchberger,
    compute_standard_basis,
    minimal_staircase,
    semisyzygy,
)
from .oracle import (
    AgreementReport,
    FuzzReport,
    TruncationWitness,
    algebra_fuzz,
    oracle_pipeline_agree,
    truncation_witness,
)
from .expressions import format_operator, parse_operator
from .jsonio import homog_from_obj, operator_to_obj, weyl_from_obj
from .config import RunConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "AgreementReport",
    "CompletionResult",
    "CompletionStats",
    "ConfigError",
    "DEFAULT_DEGREE_CAP",
    "DegreeCapExceeded",
    "DivisionResult",
    "FuzzReport",
    "HomogOperator",
    "InvariantViolation",
    "LeadingTerm",
    "LinearForm",
    "OracleSizeError",
    "OrderContext",
    "ParseError",
    "Polynomial",
    "PrimeField",
    "QQ",
    "RationalField",
    "RunConfig",
    "StandardBasisReport",
    "TieBreak",
    "TruncationWitness",
    "WeylOperator",
    "WeylstdError",
    "algebra_fuzz",
    "buchberger",
    "compute_standard_basis",
    "dehomogenize",
    "divide",
    "format_operator",
    "graded_degree",
    "homog_from_obj",
    "homogenize",
    "is_graded_commutative",
    "is_homogeneous",
    "leading_term",
    "load_config",
    "minimal_staircase",
    "operator_to_obj",
    "oracle_pipeline_agree",
    "parse_operator",
    "principal_symbol",
    "project_exponent",
    "region",
    "semisyzygy",
    "truncation_witness",
    "weyl_from_obj",
]
