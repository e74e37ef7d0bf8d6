"""Exception taxonomy shared across the package."""

from typing import Optional


class HoradamError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(HoradamError):
    """Invalid construction input (zero recurrence coefficient, zero denominator, ...)."""


class DomainError(HoradamError):
    """Argument outside the mathematical domain of an operation."""


class RangeError(HoradamError):
    """Malformed index range (lower bound above upper bound)."""


class DegeneracyError(HoradamError):
    """Linear system for basis coefficients is singular."""


class PreconditionError(HoradamError):
    """A checker's stated hypothesis fails on the supplied inputs."""


class UsageError(HoradamError):
    """Caller misuse: mismatched sequences, unknown names, bad flag combinations."""


class ParseError(HoradamError):
    """Text input rejected; DSL errors carry a 1-based line and column, grid errors none."""

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        super().__init__(message if line is None else f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class EvalError(HoradamError):
    """Expression evaluation failed (unbound variable, unknown sequence, ...)."""
