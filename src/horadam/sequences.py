"""Second-order linear recurrence sequences over the exact rationals.

A sequence is defined by coefficients (p, q) with G(n) = p*G(n-1) + q*G(n-2)
and initial terms (G(0), G(1)). Negative indices extend the recurrence
backwards: G(n-2) = (G(n) - p*G(n-1)) / q, which is always defined since
q is required to be nonzero.
"""

from __future__ import annotations

import difflib
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import ParameterError, RangeError, UsageError
from .scalar import Rational

__all__ = [
    "RecurrenceParams",
    "Sequence",
    "make_sequence",
    "term",
    "term_range",
    "term_iterative_oracle",
    "named_sequences",
    "get_named",
    "NAME_ALIASES",
    "term_fn",
]


# Trial division bound; a cofactor of the step left above it is one strip factor.
_TRIAL_BOUND = 1 << 10


@dataclass(frozen=True)
class RecurrenceParams:
    """The coefficient pair (p, q); q must be nonzero.

    Negative indices come from G(n-2) = (G(n) - p*G(n-1))/q, so a zero q
    would make the extension undefined; p may be anything, including zero.
    """

    p: Rational
    q: Rational

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "q", Fraction(self.q))
        if self.q == 0:
            raise ParameterError("recurrence coefficient q must be nonzero")

    @functools.cached_property
    def _engine(self) -> tuple:
        """Integer constants (s, P, qs, Q) of the scaled fundamental sequence, then
        (|step|, rest, strip) for n > 0 and for n <= 0; kept on the instance,
        since a cache keyed by the params would hash two Fractions per term().

        With s = lcm of the coefficient denominators, P = p*s, qs = q*s and
        Q = qs*s are integers. The integer sequence W(k) = P*W(k-1) + Q*W(k-2),
        W(0) = 0, W(1) = 1, is the (0, 1)-seeded sequence U of (p, q) scaled:
        U(k) = W(k) / s**(k-1). Integer-only products avoid per-step gcd
        normalization. G(n) has denominator d0*d1*step**k with step = s for n > 0
        and -qs for n <= 0. Consecutive W terms share only primes of gcd(P, Q);
        strip lists those of step as (r, v), r**v exactly dividing step = rest*prod(r**v).
        """
        p, q = self.p, self.q
        s = math.lcm(p.denominator, q.denominator)
        qs = int(q * s)
        P, Q = int(p * s), qs * s
        signs = []
        for step in (s, -qs):
            g, rest, strip, r = math.gcd(step, P, Q), step, [], 2
            while g > 1:
                r = r if r <= _TRIAL_BOUND and r * r <= g else g
                if g % r == 0:
                    v = 0
                    while rest % r == 0:
                        rest, v = rest // r, v + 1
                    strip.append((r, v))
                    g //= math.gcd(g, r**v)
                r += 1
            signs.append((abs(step), rest, tuple(strip)))
        return s, P, qs, Q, *signs


@dataclass(frozen=True)
class Sequence:
    """Immutable sequence handle: coefficients plus initial terms (not both zero)."""

    params: RecurrenceParams
    g0: Rational
    g1: Rational
    name: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "g0", Fraction(self.g0))
        object.__setattr__(self, "g1", Fraction(self.g1))
        if self.g0 == 0 and self.g1 == 0:
            raise ParameterError("initial terms must not both be zero")

def make_sequence(p, q, g0, g1, name: Optional[str] = None) -> Sequence:
    """Validate and build a Sequence from rational-like inputs."""
    return Sequence(RecurrenceParams(Fraction(p), Fraction(q)), Fraction(g0), Fraction(g1), name)


def _lucas_pair(P: int, Q: int, m: int, strip: tuple) -> tuple:
    """(a, b, exps) with (W(m), W(m+1)) = (a, b) * prod(r**e) over strip's r
    and exps, for m >= 0, walking the bits of m from the top.

    The doubling W(2k) = (x+y)**2 - y**2 - (P+1)*x**2, W(2k+1) = y**2 + Q*x**2 at
    (x, y) = (W(k), W(k+1)) costs three squarings per bit, as in GMP's Fibonacci
    routine (GMP manual); Joye and Quisquater's W(2k) = x*(2y - P*x) (Electronics
    Letters 32, 1996) costs a product, and CPython squares in 0.45-0.7 of one.
    Each r is divided out while it divides both members; the doubling is
    homogeneous of degree 2 and the step linear, so a count doubles per bit.
    """
    a, b = (1, P) if m else (0, 1)  # (W(1), W(2)) stands for m's top bit
    exps = [0] * len(strip) if strip else ()
    for bit in bin(m)[3:]:
        A, B, c = a * a, b * b, a + b
        a, b = c * c - B - (P + 1) * A, B + Q * A
        if bit == "1":
            a, b = b, P * b + Q * a
        if strip:
            for i, (r, _) in enumerate(strip):
                e = 2 * exps[i]
                while a % r == 0 == b % r:
                    a, b, e = a // r, b // r, e + 1
                exps[i] = e
    return a, b, exps


def _coprime_fraction(num: int, den: int) -> Fraction:
    """Fraction(num, den) for coprime num and den > 0, without the gcd."""
    f = object.__new__(Fraction)
    f._numerator, f._denominator = num, den
    return f


def term(s: Sequence, n: int) -> Rational:
    """Exact G(n) for any integer n in O(log |n|) big-integer squarings.

    G(n) = g1*U(n) + q*g0*U(n-1) with U the (0, 1)-seeded sequence of (p, q);
    for n <= 0, U(-m) = -U(m) / (-q)**m gives G(-m) = (g0*U(m+1) - g1*U(m)) / (-q)**m.
    So the numerator is c1*W(k+1) + c0*W(k) (k = n-1 or -n), and at (x, y) =
    (W(j), W(j+1)), j = k // 2, it is alpha*x**2 + 2*beta*x*y + gamma*y**2 =
    ((beta*x + gamma*y)**2 + (alpha*gamma - beta**2)*x**2) / gamma: two squarings
    in place of the walk's last doubling (x*(alpha*x + 2*beta*y) when gamma = 0).
    The numerator and denominator d0*d1*step**k are built as integers and
    reduced without a gcd of the two: the walk strips the primes of step that
    divide gcd(P, Q), their counts cancel against step**k, and every common
    factor left divides R = d0*d1*|step|, so gcd(num % R, R, den) finds it.
    """
    scale, P, qs, Q, pos, neg = s.params._engine
    a0, d0 = s.g0.numerator, s.g0.denominator
    a1, d1 = s.g1.numerator, s.g1.denominator
    (step, rest, strip), k = (pos, n - 1) if n > 0 else (neg, -n)
    c1, c0 = (a1 * d0, qs * a0 * d1) if n > 0 else (a0 * d1, -scale * a1 * d0)
    x, y, exps = _lucas_pair(P, Q, k >> 1, strip)
    if k & 1:
        alpha, beta, gamma = c0 * Q, c1 * Q, c1 * P + c0
    else:
        alpha, beta, gamma = c1 * Q - c0 * P, c0, c1
    if gamma:
        u = beta * x + gamma * y
        num = (u * u + (alpha * gamma - beta * beta) * (x * x)) // gamma
    else:
        num = x * (alpha * x + 2 * beta * y)
    den = d0 * d1 * rest**k
    if strip:
        # 2e <= k*v, from Cassini's W(k)**2 - W(k+1)*W(k-1) = (-Q)**(k-1)
        for (r, v), e in zip(strip, exps):
            den *= r ** (k * v - 2 * e)
    if den < 0:
        num, den = -num, -den
    if den == 1:
        return Fraction(num)
    R = d0 * d1 * step
    while (g := math.gcd(num % R, R, den)) > 1:
        # divide by g, g**2, g**4, ... while both allow: O(log) steps per factor
        while not (qr := divmod(num, g))[1] and not (dr := divmod(den, g))[1]:
            num, den, g = qr[0], dr[0], g * g
    return _coprime_fraction(num, den)


def term_range(s: Sequence, lo: int, hi: int) -> list:
    """[G(lo), ..., G(hi)] by one seeded iteration on integers; requires lo <= hi.

    With the engine's scale, P and Q, G(i-1) = x*scale/den and G(i) = y/den give
    G(i+1) = (P*y + Q*x) / (den*scale), reduced by one gcd.
    """
    if lo > hi:
        raise RangeError(f"term_range needs lo <= hi, got {lo}..{hi}")
    scale, P, _, Q, *_ = s.params._engine
    a, b = term(s, lo), term(s, lo + 1)
    den = math.lcm(a.denominator * scale, b.denominator)
    x, y = a.numerator * (den // (a.denominator * scale)), b.numerator * (den // b.denominator)
    out = [a, b][: hi - lo + 1]
    for _ in range(hi - lo - 1):
        x, y, den = y, P * y + Q * x, den * scale
        g = math.gcd(y, den)
        out.append(_coprime_fraction(y // g, den // g))
    return out


def term_iterative_oracle(s: Sequence, n: int) -> Rational:
    """G(n) by an |n|-step iteration; the independent reference for term()."""
    p, q = s.params.p, s.params.q
    ints = (
        p.denominator == 1
        and q.denominator == 1
        and s.g0.denominator == 1
        and s.g1.denominator == 1
    )
    if n >= 0:
        if ints:
            pi, qi, a, b = int(p), int(q), int(s.g0), int(s.g1)
            for _ in range(n):
                a, b = b, pi * b + qi * a
            return Fraction(a)
        a, b = s.g0, s.g1
        for _ in range(n):
            a, b = b, p * b + q * a
        return a
    a, b = s.g0, s.g1
    for _ in range(-n):
        a, b = (b - p * a) / q, a
    return a


_NAMED_SPECS = (
    ("fibonacci", 1, 1, 0, 1),
    ("lucas", 1, 1, 2, 1),
    ("pell", 2, 1, 0, 1),
    ("pell-lucas", 2, 1, 2, 2),
    ("jacobsthal", 1, 2, 0, 1),
    ("jacobsthal-lucas", 1, 2, 2, 1),
)

_REGISTRY = {
    name: make_sequence(p, q, g0, g1, name) for name, p, q, g0, g1 in _NAMED_SPECS
}

# Short aliases used by the identity DSL; 'j' and 'J' are distinct on purpose.
NAME_ALIASES = {
    "F": "fibonacci",
    "L": "lucas",
    "P": "pell",
    "Q": "pell-lucas",
    "J": "jacobsthal",
    "j": "jacobsthal-lucas",
    "fibonacci": "fibonacci",
    "lucas": "lucas",
    "pell": "pell",
    "pell-lucas": "pell-lucas",
    "pell_lucas": "pell-lucas",
    "jacobsthal": "jacobsthal",
    "jacobsthal-lucas": "jacobsthal-lucas",
    "jacobsthal_lucas": "jacobsthal-lucas",
}


def named_sequences() -> dict:
    """Copy of the built-in registry, keyed by canonical name."""
    return dict(_REGISTRY)


def get_named(name: str) -> Sequence:
    """Look up a built-in sequence by canonical name or alias."""
    canonical = NAME_ALIASES.get(name)
    if canonical is None:
        close = difflib.get_close_matches(name, sorted(NAME_ALIASES), n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise UsageError(f"unknown sequence name {name!r}{hint}")
    return _REGISTRY[canonical]


def term_fn(s: Sequence) -> Callable[[int], object]:
    """Memoized accessor n -> G(n); integral values are stored as ints.

    Grid sweeps revisit the same few indices many times; plain-int values keep
    the inner arithmetic on the fast integer path.
    """
    def t(n: int):
        f = term(s, n)
        return f.numerator if f.denominator == 1 else f

    return functools.cache(t)


def is_whole(s: Sequence) -> bool:
    """Every term is an integer: q = +-1 and p, G(0) and G(1) are integers."""
    return abs(s.params.q) == 1 == s.params.p.denominator == s.g0.denominator == s.g1.denominator


def term_reader(s: Sequence, whole: bool) -> Callable:
    """i -> G(i): term_fn's int if whole, else a cached (numerator, denominator)."""
    return term_fn(s) if whole else functools.cache(lambda i: term(s, i).as_integer_ratio())
