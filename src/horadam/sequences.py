"""Second-order linear recurrence sequences over the exact rationals.

A sequence is defined by coefficients (p, q) with G(n) = p*G(n-1) + q*G(n-2)
and initial terms (G(0), G(1)). Negative indices extend the recurrence
backwards: G(n-2) = (G(n) - p*G(n-1)) / q, which is always defined since
q is required to be nonzero.
"""

from __future__ import annotations

import functools
import math
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


class _Frozen:
    """A value of the fields _fields, set once by _set: equal to a value of its own class
    with equal fields, hashed and repr'd by them; no attribute can be assigned or deleted."""

    __slots__ = ()
    _fields: tuple = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy and pickle call the class, as restoring slots would assign
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class RecurrenceParams(_Frozen):
    """The coefficient pair (p, q); q must be nonzero.

    Negative indices come from G(n-2) = (G(n) - p*G(n-1))/q, so a zero q
    would make the extension undefined; p may be anything, including zero.
    """

    _fields = ("p", "q")
    __slots__ = (*_fields, "__dict__")  # __dict__ holds the cached _engine

    def __init__(self, p: Rational, q: Rational):
        p, q = Fraction(p), Fraction(q)
        if q == 0:
            raise ParameterError("recurrence coefficient q must be nonzero")
        self._set(p, q)

    @functools.cached_property
    def _engine(self) -> tuple:
        """Integer constants (s, P, qs, Q) of the scaled fundamental sequence, W's
        integer roots, then (|step|, rest, strip) for n > 0 and for n <= 0; kept on
        the instance, since a cache keyed by the params would hash two Fractions per term().

        With s = lcm of the coefficient denominators, P = p*s, qs = q*s and
        Q = qs*s are integers. The integer sequence W(k) = P*W(k-1) + Q*W(k-2),
        W(0) = 0, W(1) = 1, is the (0, 1)-seeded sequence U of (p, q) scaled:
        U(k) = W(k) / s**(k-1). Integer-only products avoid per-step gcd
        normalization. G(n) has denominator d0*d1*step**k with step = s for n > 0
        and -qs for n <= 0. Consecutive W terms share only primes of gcd(P, Q);
        strip lists those of step as (r, v), r**v exactly dividing step = rest*prod(r**v).
        W's characteristic polynomial t**2 - P*t - Q is monic, so its rational roots
        are integers; it has them when D = P**2 + 4*Q is a square, stored as
        (R1, R2, sqrt(D)) = ((P + sqrt(D))/2, (P - sqrt(D))/2, sqrt(D)), else None.
        """
        p, q = self.p, self.q
        s = math.lcm(p.denominator, q.denominator)
        qs = int(q * s)
        P, Q = int(p * s), qs * s
        D = P * P + 4 * Q
        d = math.isqrt(max(D, 0))
        roots = ((P + d) // 2, (P - d) // 2, d) if d * d == D else None
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
        return s, P, qs, Q, roots, *signs


class Sequence(_Frozen):
    """Immutable sequence handle: coefficients plus initial terms (not both zero)."""

    __slots__ = _fields = ("params", "g0", "g1", "name")

    def __init__(self, params: RecurrenceParams, g0: Rational, g1: Rational,
                 name: Optional[str] = None):
        g0, g1 = Fraction(g0), Fraction(g1)
        if g0 == 0 and g1 == 0:
            raise ParameterError("initial terms must not both be zero")
        self._set(params, g0, g1, name)


def make_sequence(p, q, g0, g1, name: Optional[str] = None) -> Sequence:
    """Validate and build a Sequence from rational-like inputs."""
    return Sequence(RecurrenceParams(Fraction(p), Fraction(q)), Fraction(g0), Fraction(g1), name)


def _lucas_pair(P: int, Q: int, m: int, strip: tuple) -> tuple:
    """(a, b, exps) with (W(m), W(m+1)) = (a, b) * prod(r**e) over strip's r
    and exps, for m >= 0, walking the bits of m from the top.

    The doubling W(2k) = (x+y)**2 - y**2 - (P+1)*x**2, W(2k+1) = y**2 + Q*x**2 at
    (x, y) = (W(k), W(k+1)) costs three squarings per bit; Joye and Quisquater's
    W(2k) = x*(2y - P*x) (Electronics Letters 32, 1996) costs a product, and CPython
    squares in 0.45-0.7 of one. _cassini_pair takes two where |Q| = 1; elsewhere the
    (-Q)**k it needs costs the squaring it saves.
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


def _cassini_pair(P: int, Q: int, m: int) -> tuple:
    """(W(m), W(m+1), (-Q)**m) for m >= 0, |Q| = 1 and P != 0, by two squarings
    per bit of m from the top.

    At (x, y) = (W(j), W(j+1)), Cassini's identity P*x*y = y**2 - Q*x**2 - tau with
    tau = (-Q)**j gives W(2j) = x*(2y - P*x) = 2*(B - Q*A - tau)/P - P*A, exactly, and
    W(2j+1) = B + Q*A from A = x**2 and B = y**2 (GMP's mpz_fib2_ui, at P = Q = 1).
    tau is +-1, so tracking it is free: 1 after a doubling, -Q after a step.
    """
    a, b, tau = (1, P, -Q) if m else (0, 1, 1)  # (W(1), W(2), -Q) stands for m's top bit
    for bit in bin(m)[3:]:
        A, B = a * a, b * b
        a, b, tau = 2 * (B - Q * A - tau) // P - P * A, B + Q * A, 1
        if bit == "1":
            a, b, tau = b, P * b + Q * a, -Q
    return a, b, tau


def _coprime_fraction(num: int, den: int) -> Fraction:
    """Fraction(num, den) for coprime num and den > 0, without the gcd."""
    f = object.__new__(Fraction)
    f._numerator, f._denominator = num, den
    return f


def term(s: Sequence, n: int) -> Rational:
    """Exact G(n) for any integer n in O(log |n|) big-integer squarings or powers.

    G(n) = g1*U(n) + q*g0*U(n-1) with U the (0, 1)-seeded sequence of (p, q);
    for n <= 0, U(-m) = -U(m) / (-q)**m gives G(-m) = (g0*U(m+1) - g1*U(m)) / (-q)**m.
    So the numerator is c1*W(k+1) + c0*W(k) (k = n-1 or -n). Where W has integer
    roots R1 != R2 it is ((c1*R1 + c0)*R1**k - (c1*R2 + c0)*R2**k) / (R1 - R2), and
    (c1*(k+1)*R + c0*k)*R**(k-1) at a repeated root R: two powers of small integers.
    Where c1*R' + c0 = 0 for a root R', G is geometric: the numerator is c1*R**k for
    the other root R, and G(n) is c1/(d0*d1) times (R/step)**k at the signed step, the
    ratio reduced before the power, so no big gcd remains at any step. The two-power
    numerators run only where the walk strips nothing: a stripped prime divides
    gcd(P, Q), so both roots, and the power of it the walk would have divided out
    costs the final gcd loop far more than the walk. Else, at (x, y) =
    (W(j), W(j+1)), j = k // 2, it is alpha*x**2 + 2*beta*x*y + gamma*y**2. Where
    |Q| = 1 and P != 0, adding gamma times Cassini's P*x*y - y**2 + Q*x**2 + (-Q)**j = 0
    makes it x*((alpha + gamma*Q)*x + (2*beta + gamma*P)*y) + gamma*(-Q)**j: one
    product after _cassini_pair's two squarings per bit. Otherwise it is
    ((beta*x + gamma*y)**2 + (alpha*gamma - beta**2)*x**2) / gamma: two squarings
    in place of the walk's last doubling (x*(alpha*x + 2*beta*y) when gamma = 0).
    The numerator and denominator d0*d1*step**k are built as integers and
    reduced without a gcd of the two: the walk strips the primes of step that
    divide gcd(P, Q), their counts cancel against step**k, and every common
    factor left divides R = d0*d1*|step|, so gcd(num % R, R, den) finds it.
    """
    scale, P, qs, Q, roots, pos, neg = s.params._engine
    a0, d0 = s.g0.numerator, s.g0.denominator
    a1, d1 = s.g1.numerator, s.g1.denominator
    (step, rest, strip), k = (pos, n - 1) if n > 0 else (neg, -n)
    c1, c0 = (a1 * d0, qs * a0 * d1) if n > 0 else (a0 * d1, -scale * a1 * d0)
    if roots:
        R1, R2, d = roots
        e1, e2 = c1 * R1 + c0, c1 * R2 + c0
        if not e1 or not e2:  # geometric; rest has the sign of the step
            ratio = Fraction(R2 if e2 else R1, step if rest > 0 else -step)
            return Fraction(c1, d0 * d1) * ratio**k
    if roots and not strip:  # W(k) = k*R**(k-1) at a repeated root
        num = (e1 * R1**k - e2 * R2**k) // d if d else (c1 * (k + 1) * R1 + c0 * k) * R1**k // R1
    else:
        if k & 1:
            alpha, beta, gamma = c0 * Q, c1 * Q, c1 * P + c0
        else:
            alpha, beta, gamma = c1 * Q - c0 * P, c0, c1
        if Q * Q == 1 and P:
            x, y, tau = _cassini_pair(P, Q, k >> 1)
            num = x * ((alpha + gamma * Q) * x + (2 * beta + gamma * P) * y) + gamma * tau
        else:
            x, y, exps = _lucas_pair(P, Q, k >> 1, strip)
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
        import difflib  # loaded by a failed lookup only, not by every import

        close = difflib.get_close_matches(name, sorted(NAME_ALIASES), n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise UsageError(f"unknown sequence name {name!r}{hint}")
    return _REGISTRY[canonical]


def is_whole(s: Sequence) -> bool:
    """Every term is an integer: q = +-1 and p, G(0) and G(1) are integers."""
    return abs(s.params.q) == 1 == s.params.p.denominator == s.g0.denominator == s.g1.denominator


class _Terms(dict):
    """G(i) by index i, as the sequence fixes: an int if it is whole, else the lowest-terms
    pair (numerator, denominator > 0). A miss at i takes one integer step from two stored
    neighbours, scale*G(i) = P*G(i-1) + qs*G(i-2) forwards, else
    qs*G(i) = scale*G(i+2) - P*G(i+1) backwards, reduced by one gcd (none if whole, as
    there scale = 1 and qs = +-1); else term()."""

    def __init__(self, s: Sequence):
        self.seq, self.whole = s, is_whole(s)
        self.scale, self.P, self.qs = s.params._engine[:3]

    def __missing__(self, i: int):
        get = self.get
        if (a := get(i - 1)) is not None and (b := get(i - 2)) is not None:
            P, qs, scale = self.P, self.qs, self.scale
        elif (a := get(i + 1)) is not None and (b := get(i + 2)) is not None:
            P, qs, scale = -self.P, self.scale, self.qs  # G(i) = (-P*G(i+1) + scale*G(i+2)) / qs
        else:
            f = term(self.seq, i)
            return self.setdefault(i, f.numerator if self.whole else f.as_integer_ratio())
        if self.whole:  # scale = +-1 (qs in the backward step), so dividing is multiplying
            return self.setdefault(i, (P * a + qs * b) * scale)
        (an, ad), (bn, bd) = a, b
        num, den = P * an * bd + qs * bn * ad, scale * ad * bd
        g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
        return self.setdefault(i, (num // g, den // g))

    def value(self, i: int):
        """G(i) as an int or a Fraction."""
        v = self[i]
        return v if v.__class__ is int else v[0] if v[1] == 1 else _coprime_fraction(*v)


def term_fn(s: Sequence) -> Callable[[int], object]:
    """Memoized accessor n -> G(n), an int when integral else a Fraction: a new store's
    __getitem__ if the sequence is whole, else its value, which builds a Fraction per read."""
    store = _Terms(s)
    return store.__getitem__ if store.whole else store.value


class _Table(dict):
    """The int G(i)*scale by index i, filled from a pair store on first read."""

    def __init__(self, terms: _Terms, scale: int):
        self.terms, self.scale = terms, scale

    def __missing__(self, i: int) -> int:
        num, den = self.terms[i]
        value, rest = divmod(num * self.scale, den)
        if rest:
            raise ArithmeticError(f"scale {self.scale} does not clear G({i}) = {num}/{den}")
        return self.setdefault(i, value)


def term_tables(terms: _Terms) -> Callable:
    """table(lo, hi) -> (read, scale), read(i) the int G(i)*scale for lo <= i <= hi, over the
    store terms. A whole sequence's table is the store itself, at scale 1; else there is one
    table per (A, B), A = hi-1 and B = -lo rounded up to multiples of 8 (0 if negative), at
    scale d0*d1 * lcm**A * |q*lcm|**B (lcm that of p's and q's denominators), which term()'s
    denominator d0*d1*step**k divides. All fill from the store, so each index is computed once;
    the store does not hold its tables, so the two form no reference cycle."""
    if terms.whole:
        one = terms.__getitem__, 1
        return lambda lo, hi: one
    dens = terms.seq.g0.denominator * terms.seq.g1.denominator

    @functools.cache
    def keyed(a: int, b: int) -> tuple:
        t = _Table(terms, dens * terms.scale ** (8 * a) * abs(terms.qs) ** (8 * b))
        return t.__getitem__, t.scale

    return lambda lo, hi: keyed(hi + 6 >> 3 if hi > 1 else 0, 7 - lo >> 3 if lo < 0 else 0)
