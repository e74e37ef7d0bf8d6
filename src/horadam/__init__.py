"""Exact arithmetic and identity verification for second-order linear recurrences.

Sequences follow G(n) = p*G(n-1) + q*G(n-2) from initial terms G(0), G(1),
extended to negative indices via G(n-2) = (G(n) - p*G(n-1))/q. Everything is
computed over exact rationals; an identity "holds" only when both sides are
equal as rationals at every checked grid case.
"""

from .catalog import CatalogEntry, catalog_entry, catalog_list, catalog_run
from .dsl import (
    IdentityAst,
    default_registry,
    eval_expr,
    parse_expression,
    parse_identity,
    pretty_print,
    verify_over_grid,
)
from .errors import (
    DegeneracyError,
    DomainError,
    EvalError,
    HoradamError,
    ParameterError,
    ParseError,
    PreconditionError,
    RangeError,
    UsageError,
)
from .grid import GridSpec, make_grid, parse_grid
from .kernel import (
    IDENTITY_NAMES,
    ThreeTermRelation,
    basis_coefficients,
    check_identity,
    f_g,
    identity_variables,
    verify_identity_grid,
)
from .report import REPORT_JSON_SCHEMA, VerificationReport, run_grid
from .scalar import Rational, binom, m1, rat, rat_from_text, rat_text
from .sequences import (
    RecurrenceParams,
    Sequence,
    get_named,
    make_sequence,
    named_sequences,
    term,
    term_fn,
    term_iterative_oracle,
    term_range,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # scalar core
    "Rational", "rat", "rat_from_text", "rat_text", "binom", "m1",
    # sequences
    "RecurrenceParams", "Sequence", "make_sequence", "get_named", "named_sequences",
    "term", "term_fn", "term_range", "term_iterative_oracle",
    # grids and reports
    "GridSpec", "make_grid", "parse_grid", "VerificationReport", "run_grid",
    "REPORT_JSON_SCHEMA",
    # identity kernel
    "ThreeTermRelation", "f_g", "basis_coefficients",
    "IDENTITY_NAMES", "identity_variables", "verify_identity_grid", "check_identity",
    # catalog
    "CatalogEntry", "catalog_entry", "catalog_list", "catalog_run",
    # DSL
    "IdentityAst", "parse_identity", "parse_expression", "pretty_print",
    "eval_expr", "verify_over_grid", "default_registry",
    # errors
    "HoradamError", "ParameterError", "DomainError", "RangeError",
    "DegeneracyError", "PreconditionError",
    "UsageError", "ParseError", "EvalError",
]
