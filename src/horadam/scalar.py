"""Exact rational scalars, rational text, binomial coefficients and parity signs."""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import DomainError, ParameterError

# The universal scalar type. fractions.Fraction already guarantees the
# canonical form this package relies on: positive denominator, lowest terms,
# zero stored as 0/1, and str() rendering "n" or "n/d".
Rational = Fraction

_RATIONAL_TEXT = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def rat(num: int, den: int = 1) -> Rational:
    """Build a canonical Rational; den must be nonzero."""
    if den == 0:
        raise ParameterError("rational denominator must be nonzero")
    return Fraction(num, den)


def rat_from_text(text: str) -> Rational:
    """Parse 'n' or 'n/d' (no decimals, no exponents); den must be nonzero."""
    s = text.strip()
    if not _RATIONAL_TEXT.match(s):
        raise ParameterError(f"not a rational literal: {text!r} (expected 'n' or 'n/d')")
    if "/" in s:
        num, den = s.split("/")
        return rat(int(num), int(den))
    return Fraction(int(s))


def rat_text(value) -> str:
    """Canonical text form: lowest terms, 'n' when integral, sign on the numerator."""
    return str(Fraction(value))


def binom(k: int, j: int) -> int:
    """Binomial coefficient; 0 outside 0 <= j <= k; k must be non-negative."""
    if k < 0:
        raise DomainError(f"binom needs k >= 0, got k={k}")
    if j < 0 or j > k:
        return 0
    return math.comb(k, j)


def m1(e: int) -> int:
    """(-1)**e for any integer e, including negative e."""
    # int ** negative-int would produce a float; parity keeps this exact.
    return -1 if e % 2 else 1
