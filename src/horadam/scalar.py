"""Exact rational scalars, number text, binomial coefficients and parity signs.

``rat_text`` prints an integer of ``_DECIMAL_BITS`` bits or more through exact
``Decimal`` halves (the divide and conquer of ``str(int)`` on CPython 3.12+,
gh-90716): subquadratic where ``str(int)`` is quadratic. Smaller ones use ``str()``.
"""

from __future__ import annotations

import decimal
import functools
import math
import re
import sys
from fractions import Fraction

from .errors import DomainError, ParameterError

# The universal scalar type. fractions.Fraction already guarantees the
# canonical form this package relies on: positive denominator, lowest terms,
# zero stored as 0/1, and str() rendering "n" or "n/d".
Rational = Fraction

# The number rule for all number text (CLI arguments, grids, --declare parts): an optional
# sign and ASCII digits, with blanks (spaces and tabs) around a number and none inside it.
DIGITS = "[0-9]+"
INTEGER = f"[+-]?{DIGITS}"
BLANKS = " \t"
BLANK = f"[{BLANKS}]*"
_INTEGER_TEXT = re.compile(f"{BLANK}({INTEGER}){BLANK}")
_RATIONAL_TEXT = re.compile(f"{BLANK}({INTEGER})(?:/({DIGITS}))?{BLANK}")

# Measured on CPython 3.11: the decimal route takes x1.0-1.2 the time of str()
# at 2**14 bits and x0.73-0.87 at 2**15; the halving stops at _LEAF_BITS.
_DECIMAL_BITS, _LEAF_BITS = 1 << 15, 1 << 10
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         Emin=decimal.MIN_EMIN, traps=[decimal.Inexact])


def rat(num: int, den: int = 1) -> Rational:
    """Build a canonical Rational; den must be nonzero."""
    if den == 0:
        raise ParameterError("rational denominator must be nonzero")
    return Fraction(num, den)


def int_from_text(text: str) -> int:
    """Parse an integer under the number rule."""
    match = _INTEGER_TEXT.fullmatch(text)
    if match is None:
        raise ParameterError(f"not an integer: {text!r}")
    return int(match.group(1))


def rat_from_text(text: str) -> Rational:
    """Parse 'n' or 'n/d' under the number rule (no decimals, no exponents); d must be nonzero."""
    match = _RATIONAL_TEXT.fullmatch(text)
    if match is None:
        raise ParameterError(f"not a rational literal: {text!r} (expected 'n' or 'n/d')")
    return rat(int(match[1]), int(match[2] or 1))


def rat_text(value) -> str:
    """Text of an int or Fraction: lowest terms, 'n' when integral, sign on the numerator."""
    num, den = value.as_integer_ratio()
    text = _int_text(num)
    return text if den == 1 else f"{text}/{_int_text(den)}"


def _int_text(n: int) -> str:
    """str(n), with the divide-and-conquer conversion at _DECIMAL_BITS bits and up."""
    if n.bit_length() < _DECIMAL_BITS:
        return str(n)

    @functools.cache
    def power(w: int) -> decimal.Decimal:  # 2**w; every level reuses a few widths
        return decimal.Decimal(1 << w) if w <= _LEAF_BITS else power(w >> 1) * power(w - (w >> 1))

    def exact(m: int, w: int) -> decimal.Decimal:  # m < 2**w
        if w <= _LEAF_BITS:
            return decimal.Decimal(m)
        h = w >> 1
        return exact(m >> h, w - h) * power(h) + exact(m & ((1 << h) - 1), h)

    with decimal.localcontext(_EXACT):
        text = str(exact(abs(n), n.bit_length()))
    if 0 < getattr(sys, "get_int_max_str_digits", int)() < len(text):
        return str(n)  # over the int-string digit limit: raises str()'s own ValueError
    return "-" + text if n < 0 else text


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
