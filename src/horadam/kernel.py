"""Kernel form, basis solver, and the table of generic identities.

The antisymmetric kernel over a sequence G is
    f_g(u, v; s, t) = G(u-s)*G(v-t) - G(u-t)*G(v-s).
Every three-term relation is read as w0*X(n) = w1*X(n-a) + w2*Y(n-b). A
lemma's relation is (1, f1, f2, a, b); Theorem 1 gives H the relation
T = (A, B, C, m-c, m-d) through the three kernel values
    A = f_g(d, c; b, a),  B = f_g(d, m; b, a),  C = f_g(c, m; a, b),
and the corollary is Theorem 1 at (c, d) = (a, b), negated. The paper's
four lemma statements are the rows of one table; each lemma and each
summation theorem is one row at the user's relation, at T, or at either
with its two terms swapped. IDENTITIES holds one entry per identity.

Every outcome evaluates both sides exactly and no statement divides: each
row is stated multiplied through by Z^k, where Z is the weight the paper
divides by. Every statement is homogeneous in its weights and linear in its
terms, so it runs on integers: a sequence whose terms are not all integers is
read as (numerator, denominator) pairs, each case clears its own terms by
their lcm, Theorem 1's relation comes from G's cleared terms as integers over
a square, and each side is divided once at the end. One ordinary and one
binomial evaluator serve the rows. A summation case with k >= 1 and Z = 0 is
skipped (rather than failed), since the theorems hypothesize Z nonzero; the
positional cores, through which the catalog checks, skip nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Optional

from .errors import DegeneracyError, DomainError, PreconditionError, UsageError
from .grid import GridSpec, make_grid
from .report import VerificationReport, run_grid
from .scalar import Rational
from .sequences import Sequence, is_whole, term, term_fn, term_reader

__all__ = [
    "ThreeTermRelation", "f_g", "basis_coefficients", "IdentitySpec", "IDENTITIES",
    "IDENTITY_NAMES", "identity_variables", "identity_outcome", "verify_identity_grid",
    "check_identity",
]


@dataclass(frozen=True)
class ThreeTermRelation:
    """Relation X(n) = f1*X(n-a) + f2*Y(n-b), f1 and f2 nonzero, a != b; Y = X but in lemma1."""

    f1: Rational
    f2: Rational
    a: int
    b: int

    def __post_init__(self):
        object.__setattr__(self, "f1", Fraction(self.f1))
        object.__setattr__(self, "f2", Fraction(self.f2))
        if self.f1 == 0 or self.f2 == 0:
            raise UsageError("relation coefficients f1 and f2 must be nonzero")
        if self.a == self.b:
            raise UsageError("relation shifts a and b must differ")


def _fg(gt: Callable[[int], object], u: int, v: int, s: int, t: int):
    return gt(u - s) * gt(v - t) - gt(u - t) * gt(v - s)


def f_g(g: Sequence, args: tuple) -> Rational:
    """Exact kernel value at the index quadruple args = (u, v, s, t)."""
    u, v, s, t = args
    value = _fg(lambda i: term(g, i), u, v, s, t)
    return value if isinstance(value, Fraction) else Fraction(value)


def _require_same_params(g: Sequence, h: Sequence) -> None:
    if g.params != h.params:
        raise UsageError(
            "sequences must share one recurrence: "
            f"(p={g.params.p}, q={g.params.q}) vs (p={h.params.p}, q={h.params.q})"
        )


def basis_coefficients(
    g: Sequence,
    h: Sequence,
    n: int,
    a: int,
    b: int,
    c: int,
    d: int,
    verify_window: Optional[tuple] = None,
):
    """Solve H(n+m) = l1*G(m-a) + l2*G(m-b) from the instances m = c and m = d.

    The 2x2 system is solvable iff f_g(d, c; b, a) != 0. When verify_window
    = (lo, hi) is supplied, the decomposition is re-checked for every m in
    that window.
    """
    _require_same_params(g, h)
    gt, ht = term_fn(g), term_fn(h)
    det = _fg(gt, d, c, b, a)
    if det == 0:
        raise DegeneracyError(
            f"basis system is singular: f_g(d={d}, c={c}; b={b}, a={a}) = 0"
        )
    hc, hd = ht(n + c), ht(n + d)
    # Fraction first: int / int would give a float.
    l1 = Fraction(hc * gt(d - b) - hd * gt(c - b)) / det
    l2 = Fraction(gt(c - a) * hd - gt(d - a) * hc) / det
    if verify_window is not None:
        lo, hi = verify_window
        for m in range(lo, hi + 1):
            if ht(n + m) != l1 * gt(m - a) + l2 * gt(m - b):
                raise PreconditionError(
                    f"basis decomposition fails at m={m} for n={n}, a={a}, b={b}"
                )
    return l1, l2


# ---------------------------------------------------------------------------
# Outcome builders. Each returns a function binding -> None | (lhs, rhs);
# identity_outcome binds them through the IDENTITIES table. A relation
# w0*X(n) = w1*X(n-a) + w2*Y(n-b) is the tuple w = (w0, w1, w2, a, b).


def _swap(w: tuple) -> tuple:
    # The same relation with the roles of (w1, a) and (w2, b) exchanged.
    w0, w1, w2, a, b = w
    return w0, w2, w1, b, a


# Outcomes memoize each relation (a sweep meets it once per n and k) in this much space.
_MEMO_SIZE = 256


def _theorem1(gt, whole: bool, a: int, b: int, c: int, d: int, m: int) -> tuple:
    # The relation T = (A, B, C, m-c, m-d), then D^2; Theorem 1 is T at the index n+m.
    # A, B, C are integers times D^2, where D clears G's six terms (1 when G is whole).
    scale = 1
    if not whole:
        at = (d - b, c - a, d - a, c - b, m - a, m - b)
        scale, ints = _clear([gt(i) for i in at])
        gt = dict(zip(at, ints)).__getitem__
    return (_fg(gt, d, c, b, a), _fg(gt, d, m, b, a), _fg(gt, c, m, a, b), m - c, m - d,
            scale * scale)


def _relation(g: Sequence) -> Callable:
    """Theorem 1's relation over g as a function of (a, b, c, d, m)."""
    whole = is_whole(g)
    return partial(_theorem1, term_reader(g, whole), whole)


def _theorem1_pair(g: Sequence, h: Sequence) -> Callable:
    relation, whole = lru_cache(maxsize=_MEMO_SIZE)(_relation(g)), is_whole(h)
    ht = term_reader(h, whole)

    def pair(a: int, b: int, c: int, d: int, m: int, n: int) -> tuple:
        w0, w1, w2, s, t, scale = relation(a, b, c, d, m)
        nm, dh = n + m, 1
        x, y, z = ht(nm), ht(nm - s), ht(nm - t)
        if not whole:
            dh, (x, y, z) = _clear([x, y, z])
        lhs, rhs = w0 * x, w1 * y + w2 * z
        return (lhs, rhs) if scale == dh == 1 else _sides(lhs, rhs, scale * dh)

    return pair


def _theorem1_outcome(g: Sequence, h: Sequence, rel=None) -> Callable[[dict], tuple]:
    pair = _theorem1_pair(g, h)
    return lambda case: pair(case["a"], case["b"], case["c"], case["d"], case["m"], case["n"])


def _corollary_outcome(g: Sequence, h: Sequence, rel=None) -> Callable[[dict], tuple]:
    # Theorem 1 at (c, d) = (a, b), negated, is Theorem 1 at (a, b, c, d) = (b, a, a, b):
    # f_g changes sign when either index pair is swapped, so all three weights do.
    pair = _theorem1_pair(g, h)
    return lambda case: pair(case["b"], case["a"], case["a"], case["b"], case["m"], case["n"])


# The two summation statements, without division. st is the summed sequence
# and rt the other side. The ordinary sums state
#   X * sum_{j=0..k} Z^(k-j) Y^j st(n - s*k + t + s*j)
#     = sign * (Y^(k+1) rt(n) - Z^(k+1) rt(n - s*(k+1))),
# the binomial sums
#   sum_{j=0..k} binom(k, j) Z^(k-j) Y^j st(n + s*k + t*j) = W^k rt(n).
# Both are homogeneous in the weights and linear in the terms, so they run on integers:
# integer weights over c (a row's own scale), and terms over d, the lcm that clears
# the case's terms (1 if whole, when the terms are ints): one division a side.


def _clear(parts: list) -> tuple:
    """(d, ints): d is the lcm of the (numerator, denominator) pairs' denominators,
    ints the values times d."""
    nums, dens = zip(*parts)
    d = math.lcm(*dens)
    return d, nums if d == 1 else [num * (d // den) for num, den in parts]


def _scaled_row(values: tuple, whole: bool) -> tuple:
    """Evaluator arguments (three weights, shifts) as integer weights, shifts, c, whole."""
    c, weights = _clear([v.as_integer_ratio() for v in values[:3]])
    return (*weights, *values[3:], c, whole)


def _sides(lhs: int, rhs: int, scale: int) -> tuple:
    """The two sides over scale > 0; equal sides share one Fraction."""
    value = Fraction(lhs, scale)
    return (value, value) if lhs == rhs else (value, Fraction(rhs, scale))


def _ordinary_sum(st, rt, n: int, k: int, X, Y, Z, s: int, t: int, sign: int, c: int,
                  whole: bool) -> tuple:
    if k < 0:
        raise DomainError(f"summation bound k must be non-negative, got {k}")
    base, ends, d = n - s * k + t, (rt(n), rt(n - s * (k + 1))), 1
    if not whole:
        d, h = _clear([st(base + s * j) for j in range(k + 1)] + [*ends])
        st, base, s, ends = h.__getitem__, 0, 1, h[-2:]  # the cleared terms, by position
    tot, y = 0, 1
    for j in range(k + 1):
        tot = tot * Z + y * st(base + s * j)
        y = y * Y
    lhs, rhs = X * tot, sign * (y * ends[0] - Z ** (k + 1) * ends[1])
    return (lhs, rhs) if c == d == 1 else _sides(lhs, rhs, c ** (k + 1) * d)


def _binomial_sum(st, rt, n: int, k: int, Y, Z, W, s: int, t: int, c: int, whole: bool) -> tuple:
    if k < 0:
        raise DomainError(f"summation bound k must be non-negative, got {k}")
    base, end, d = n + s * k, rt(n), 1
    if not whole:
        d, h = _clear([st(base + t * j) for j in range(k + 1)] + [end])
        st, base, t, end = h.__getitem__, 0, 1, h[-1]  # the cleared terms, by position
    tot, y = 0, 1
    for j in range(k + 1):
        tot = tot * Z + math.comb(k, j) * y * st(base + t * j)
        y = y * Y
    return (tot, W ** k * end) if c == d == 1 else _sides(tot, W ** k * end, c ** k * d)


class _Lemma(NamedTuple):
    # roles(*w) are the evaluator's arguments at the relation w, Z is the one at
    # z_at, and anchors(n, k, a, b) are the indices where the sum applies w.
    evaluate: Callable
    z_at: int
    roles: Callable
    anchors: Callable


_LEMMAS = {
    "telescope": _Lemma(
        _ordinary_sum, 2, lambda w0, w1, w2, a, b: (w2, w0, w1, a, -b, 1),
        lambda n, k, a, b: (n - j * a for j in range(k + 1)),
    ),
    "mixed": _Lemma(
        _ordinary_sum, 2, lambda w0, w1, w2, a, b: (w0, -w2, w1, a - b, b, -1),
        lambda n, k, a, b: (n - j * (a - b) + b for j in range(k + 1)),
    ),
    "binomial": _Lemma(
        _binomial_sum, 1, lambda w0, w1, w2, a, b: (w1, w2, w0, -b, b - a),
        lambda n, k, a, b: (n - j * a - l * b for j in range(k) for l in range(k - j)),
    ),
    "backward": _Lemma(
        _binomial_sum, 1, lambda w0, w1, w2, a, b: (-w0, w2, -w1, a - b, b),
        lambda n, k, a, b: (n + (a - b) * j + l * a + a for j in range(k) for l in range(k - j)),
    ),
}


def _minus(shift: int) -> str:
    """The index n - shift as text: 'n-2', 'n' or 'n+1'."""
    return f"n-{shift}" if shift > 0 else f"n+{-shift}" if shift else "n"


def _check_relation_window(xt, yt, w: tuple, anchors, y_name: str) -> None:
    """Every summand rewrite uses X(s) = f1*X(s-a) + f2*Y(s-b) at some anchor s;
    verify those instances up front so a wrong relation surfaces as a clear error."""
    _, f1, f2, a, b = w
    for s in anchors:
        if xt(s) != f1 * xt(s - a) + f2 * yt(s - b):
            raise PreconditionError(
                f"relation X(n) = {f1}*X({_minus(a)}) + {f2}*{y_name}({_minus(b)}) fails at n={s}"
            )


def _lemma_outcome(lemma: _Lemma, swapped: bool, x: Sequence, y: Sequence,
                   rel: ThreeTermRelation) -> Callable[[dict], tuple]:
    # The lemma at the relation X(n) = f1*X(n-a) + f2*Y(n-b), or at its swap;
    # it sums Y and puts X on the other side.
    xt = term_fn(x)
    yt, y_name = (xt, "X") if y is x else (term_fn(y), "Y")
    w = (1, rel.f1, rel.f2, rel.a, rel.b)
    w = _swap(w) if swapped else w
    whole = is_whole(x) and is_whole(y)
    values = _scaled_row(lemma.roles(*w), whole)
    xs = xt if whole else term_reader(x, False)  # whole: the window's memos serve the sums too
    ys = xs if y is x else yt if whole else term_reader(y, False)

    def outcome(case: dict):
        n, k = case["n"], case["k"]
        _check_relation_window(xt, yt, w, lemma.anchors(n, k, *w[3:]), y_name)
        return lemma.evaluate(ys, xs, n, k, *values)

    return outcome


def _sum_core(lemma: _Lemma, swapped: bool, g: Sequence, h: Sequence) -> tuple:
    # The lemma at T or swap(T), skipping nothing: row(a, b, c, d, m) memoizes
    # the evaluator's arguments, and at(n, k, *row) gives the two sides there.
    relation, whole = _relation(g), is_whole(h)
    ht = term_reader(h, whole)

    @lru_cache(maxsize=_MEMO_SIZE)
    def row(a: int, b: int, c: int, d: int, m: int) -> tuple:
        *w, scale = relation(a, b, c, d, m)
        return (*lemma.roles(*(_swap(w) if swapped else w)), scale, whole)

    return row, partial(lemma.evaluate, ht, ht)


def _sum_outcome(lemma: _Lemma, swapped: bool, g: Sequence, h: Sequence, rel=None) -> Callable:
    # The theorems hypothesize Z != 0; k = 0 needs no hypothesis.
    row, at = _sum_core(lemma, swapped, g, h)

    def outcome(case: dict):
        k, values = case["k"], row(case["a"], case["b"], case["c"], case["d"], case["m"])
        return None if k > 0 and values[lemma.z_at] == 0 else at(case["n"], k, *values)

    return outcome


def _sum_pair(lemma: _Lemma, swapped: bool, g: Sequence, h: Sequence) -> Callable:
    row, at = _sum_core(lemma, swapped, g, h)
    return lambda a, b, c, d, k, m, n: at(n, k, *row(a, b, c, d, m))


# ---------------------------------------------------------------------------
# The identity table, read by the grid sweep, the CLI and the test suite.


class IdentitySpec(NamedTuple):
    """One identity; build(g, h, rel) returns its outcome (rel used iff takes_relation, h
    iff takes_companion), and core(g, h), if any, its two sides from the variables in order."""

    variables: tuple
    default_grid: str
    takes_relation: bool
    build: Callable
    takes_companion: bool = True
    core: Optional[Callable] = None


_KERNEL_VARS = ("a", "b", "c", "d", "m", "n")
_SUM_VARS = ("a", "b", "c", "d", "k", "m", "n")
_SUM_GRID = "a=-1..2,b=-1..2,c=-1..2,d=-1..2,k=0..5,m=-2..2,n=-2..2"


def _lemma(row: str, swapped: bool = False, takes_companion: bool = False) -> IdentitySpec:
    def build(x, y, rel):
        return _lemma_outcome(_LEMMAS[row], swapped, x, y if takes_companion else x, rel)

    return IdentitySpec(("k", "n"), "k=0..6,n=-5..5", True, build, takes_companion)


def _sum(row: str, swapped: bool = False) -> IdentitySpec:
    lemma = _LEMMAS[row]
    return IdentitySpec(_SUM_VARS, _SUM_GRID, False, partial(_sum_outcome, lemma, swapped),
                        core=partial(_sum_pair, lemma, swapped))


IDENTITIES = {
    "theorem1": IdentitySpec(
        _KERNEL_VARS, "a=-2..2,b=-2..2,c=-2..2,d=-2..2,m=-3..3,n=-3..3", False,
        _theorem1_outcome, core=_theorem1_pair,
    ),
    "corollary": IdentitySpec(
        ("a", "b", "m", "n"), "a=-3..3,b=-3..3,m=-4..4,n=-4..4", False, _corollary_outcome
    ),
    "lemma1": _lemma("telescope", takes_companion=True),
    "lemma2:1": _lemma("telescope"),
    "lemma2:2": _lemma("telescope", swapped=True),
    "lemma2:3": _lemma("mixed"),
    "lemma3:1": _lemma("binomial"),
    "lemma3:2": _lemma("backward"),
    "lemma3:3": _lemma("backward", swapped=True),
    "sum-ordinary:1": _sum("telescope"),
    "sum-ordinary:2": _sum("telescope", swapped=True),
    "sum-ordinary:3": _sum("mixed", swapped=True),
    "sum-binomial:1": _sum("binomial"),
    "sum-binomial:2": _sum("backward"),
    "sum-binomial:3": _sum("backward", swapped=True),
}

IDENTITY_NAMES = tuple(sorted(IDENTITIES))


def _spec(identity: str) -> IdentitySpec:
    try:
        return IDENTITIES[identity]
    except KeyError:
        raise UsageError(f"unknown identity {identity!r}") from None


def identity_variables(identity: str) -> tuple:
    """Grid variables an identity consumes."""
    return _spec(identity).variables


def identity_outcome(
    identity: str,
    g: Sequence,
    h: Sequence,
    rel: Optional[ThreeTermRelation] = None,
):
    """Outcome function for one identity bound to concrete sequences.

    Lemmas default rel to the defining recurrence of g, as shifts (1, 2);
    every other identity needs g and h to share one recurrence.
    """
    spec = _spec(identity)
    if spec.takes_relation:
        if rel is None:
            rel = ThreeTermRelation(g.params.p, g.params.q, 1, 2)
    else:
        _require_same_params(g, h)
    return spec.build(g, h, rel)


def verify_identity_grid(
    identity: str,
    g: Sequence,
    h: Sequence,
    grid: GridSpec,
    rel: Optional[ThreeTermRelation] = None,
) -> VerificationReport:
    """Sweep one identity over a grid; grid variables must match exactly."""
    grid.require_variables(identity_variables(identity), f"identity {identity!r}")
    return run_grid(identity, grid, identity_outcome(identity, g, h, rel))


def check_identity(
    identity: str,
    g: Sequence,
    h: Sequence,
    case: dict,
    rel: Optional[ThreeTermRelation] = None,
) -> VerificationReport:
    """One binding, e.g. {"n": 4, "k": 1}, checked as the one-point grid "k=1,n=4"."""
    grid = make_grid({name: (value, value) for name, value in case.items()})
    return verify_identity_grid(identity, g, h, grid, rel)
