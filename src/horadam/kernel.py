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
terms, so it runs on integers: each case reads a sequence's terms as ints
G(i)*scale from a cached table keyed by its index bounds (sequences.term_tables).
A core builds one term store per sequence (one when g is h), which fills all its
tables, and a lemma's relation check reads that store's values. Theorem 1's
relation reads G from G's table over its six indices, as integers over that
table's scale squared, and each side is divided once at the end. One
ordinary and one binomial evaluator serve the rows. A summation case with
k >= 1 and Z = 0 is skipped (rather than failed), since the theorems hypothesize
Z nonzero. Each identity is one core; verify binds it with that skip and the catalog,
whose statements are all division-free, without. A sum core sweeps a line of n at a time,
as every n of a line shares its row, k and skip: it looks the row up once per line and
evaluates each distinct (evaluator arguments, k, line of n) once, since a translated row
(a+e, ..., m+e) has the same three kernel values and so reads the results the core stored,
in dicts built per core (so per sweep) and capped at _RESULTS_CAP results, so memory does
not grow with the grid. A sum core's one case is a line of one value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Optional

from .errors import DegeneracyError, DomainError, PreconditionError, UsageError
from .grid import GridSpec, make_grid
from .report import Outcome, VerificationReport, run_grid
from .scalar import Rational
from .sequences import Sequence, _coprime_fraction, _Terms, term, term_fn, term_tables

__all__ = [
    "ThreeTermRelation", "f_g", "basis_coefficients", "IdentitySpec", "IDENTITIES",
    "IDENTITY_NAMES", "identity_variables", "identity_outcome", "verify_identity_grid",
    "check_identity",
]


class ThreeTermRelation(
    NamedTuple("_Relation", [("f1", Rational), ("f2", Rational), ("a", int), ("b", int)])
):
    """Relation X(n) = f1*X(n-a) + f2*Y(n-b), f1 and f2 nonzero, a != b; Y = X but in lemma1."""

    __slots__ = ()

    def __new__(cls, f1: Rational, f2: Rational, a: int, b: int):
        f1, f2 = Fraction(f1), Fraction(f2)
        if f1 == 0 or f2 == 0:
            raise UsageError("relation coefficients f1 and f2 must be nonzero")
        if a == b:
            raise UsageError("relation shifts a and b must differ")
        return super().__new__(cls, f1, f2, a, b)


def _fg(gt: Callable[[int], object], u: int, v: int, s: int, t: int):
    return gt(u - s) * gt(v - t) - gt(u - t) * gt(v - s)


def f_g(g: Sequence, args: tuple) -> Rational:
    """Exact kernel value at the index quadruple args = (u, v, s, t)."""
    u, v, s, t = args
    return _fg(lambda i: term(g, i), u, v, s, t)


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
# Cores. Each returns the Outcome of an identity over its variables: a function of their
# values, in order, giving None for a skipped case or else (lhs, rhs), and for the sums a
# line function too, which run_grid calls instead (see report.Outcome). A relation
# w0*X(n) = w1*X(n-a) + w2*Y(n-b) is the tuple w = (w0, w1, w2, a, b).


def _swap(w: tuple) -> tuple:
    # The same relation with the roles of (w1, a) and (w2, b) exchanged.
    w0, w1, w2, a, b = w
    return w0, w2, w1, b, a


_KERNEL_VARS = ("a", "b", "c", "d", "m", "n")
_COROLLARY_VARS = ("a", "b", "m", "n")
_LEMMA_VARS = ("k", "n")
_SUM_VARS = ("a", "b", "c", "d", "k", "m", "n")
# Outcomes memoize each relation (a sweep meets it once per n and k) in this much space,
# and a sum core stores up to this many of its results and interned argument keys.
_MEMO_SIZE, _RESULTS_CAP = 256, 1 << 16


def _theorem1(table, a: int, b: int, c: int, d: int, m: int) -> tuple:
    # The relation T = (A, B, C, m-c, m-d), then D^2; Theorem 1 is T at the index n+m.
    # A, B, C are integers times D^2, D the scale of G's table over its six indices.
    at = (d - b, c - a, d - a, c - b, m - a, m - b)
    gt, scale = table(min(at), max(at))
    return (_fg(gt, d, c, b, a), _fg(gt, d, m, b, a), _fg(gt, c, m, a, b), m - c, m - d,
            scale * scale)


def _stores(g: Sequence, h: Sequence) -> tuple:
    """(store, its term_tables) of g, then of h: the same pair when h is g."""
    first = (store := _Terms(g)), term_tables(store)
    return first, first if h is g else _stores(h, h)[0]


def _theorem1_pair(g: Sequence, h: Sequence, rel=None, skips: bool = True) -> Outcome:
    (_, gt), (_, table) = _stores(g, h)
    relation = lru_cache(maxsize=_MEMO_SIZE)(partial(_theorem1, gt))

    def pair(a: int, b: int, c: int, d: int, m: int, n: int) -> tuple:
        w0, w1, w2, s, t, scale = relation(a, b, c, d, m)
        nm, span = n + m, abs(s) + abs(t)
        ht, dh = table(nm - span, nm + span)
        lhs, rhs = w0 * ht(nm), w1 * ht(nm - s) + w2 * ht(nm - t)
        return (lhs, rhs) if scale == dh == 1 else _sides(lhs, rhs, scale, dh, dh)

    return Outcome(pair, _KERNEL_VARS)


def _corollary_pair(g: Sequence, h: Sequence, rel=None, skips: bool = True) -> Outcome:
    # Theorem 1 at (c, d) = (a, b), negated, is Theorem 1 at (a, b, c, d) = (b, a, a, b):
    # f_g changes sign when either index pair is swapped, so all three weights do.
    pair = _theorem1_pair(g, h).positional
    return Outcome(lambda a, b, m, n: pair(b, a, a, b, m, n), _COROLLARY_VARS)


# The two summation statements, without division. st is the summed sequence
# and rt the other side. The ordinary sums state
#   X * sum_{j=0..k} Z^(k-j) Y^j st(n - s*k + t + s*j)
#     = sign * (Y^(k+1) rt(n) - Z^(k+1) rt(n - s*(k+1))),
# the binomial sums
#   sum_{j=0..k} binom(k, j) Z^(k-j) Y^j st(n + s*k + t*j) = W^k rt(n).
# Both are homogeneous in the weights and linear in the terms, so they run on integers:
# integer weights over c (a row's own scale), and each sequence's terms from its table
# over the case's index bounds (at scale 1 if whole): one division a side.


def _scaled_row(values: tuple) -> tuple:
    """Evaluator arguments (three weights, shifts) as integer weights, shifts, c:
    c is the lcm of the weights' denominators."""
    parts = [v.as_integer_ratio() for v in values[:3]]
    c = math.lcm(*(den for _, den in parts))
    return (*(num * (c // den) for num, den in parts), *values[3:], c)


def _sides(lhs: int, rhs: int, c: int, d: int, e: int) -> tuple:
    """lhs / (c*d) and rhs / (c*e) as Fractions, for c, d, e > 0; equal sides share one."""
    if d != e:
        lhs, rhs, d = lhs * e, rhs * d, d * e
    g = math.gcd(lhs, scale := c * d)
    value = _coprime_fraction(lhs // g, scale // g)
    if lhs == rhs:
        return value, value
    g = math.gcd(rhs, scale)
    return value, _coprime_fraction(rhs // g, scale // g)


def _ordinary_sum(st, rt, n: int, k: int, X, Y, Z, s: int, t: int, sign: int, c: int) -> tuple:
    if k < 0:
        raise DomainError(f"summation bound k must be non-negative, got {k}")
    span = abs(s) * (k + 1) + abs(t)
    (sv, d), (rv, e) = st(n - span, n + span), rt(n - span, n + span)
    base, tot, y = n - s * k + t, 0, 1
    for j in range(k + 1):
        tot = tot * Z + y * sv(base + s * j)
        y = y * Y
    lhs, rhs = X * tot, sign * (y * rv(n) - Z ** (k + 1) * rv(n - s * (k + 1)))
    return (lhs, rhs) if c == d == e == 1 else _sides(lhs, rhs, c ** (k + 1), d, e)


def _binomial_sum(st, rt, n: int, k: int, Y, Z, W, s: int, t: int, c: int) -> tuple:
    if k < 0:
        raise DomainError(f"summation bound k must be non-negative, got {k}")
    span = (abs(s) + abs(t)) * k
    (sv, d), (rv, e) = st(n - span, n + span), rt(n - span, n + span)
    base, tot, y = n + s * k, 0, 1
    for j in range(k + 1):
        tot = tot * Z + math.comb(k, j) * y * sv(base + t * j)
        y = y * Y
    rhs = W ** k * rv(n)
    return (tot, rhs) if c == d == e == 1 else _sides(tot, rhs, c ** k, d, e)


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


def _check_relation_window(xt, yt, w: tuple, anchors, y_name: str, passed: set) -> None:
    """Every summand rewrite uses X(s) = f1*X(s-a) + f2*Y(s-b) at some anchor s;
    verify those not in passed up front so a wrong relation surfaces as a clear error."""
    _, f1, f2, a, b = w
    for s in anchors:
        if s not in passed and xt(s) != f1 * xt(s - a) + f2 * yt(s - b):
            raise PreconditionError(
                f"relation X(n) = {f1}*X({_minus(a)}) + {f2}*{y_name}({_minus(b)}) fails at n={s}"
            )
        passed.add(s)


def _lemma_pair(lemma: _Lemma, swapped: bool, x: Sequence, y: Sequence,
                rel: ThreeTermRelation) -> Outcome:
    # The lemma at the relation X(n) = f1*X(n-a) + f2*Y(n-b), or at its swap;
    # it sums Y and puts X on the other side. The relation check reads each sequence's
    # store as values and the sums read that store's tables.
    (x_terms, xs), (y_terms, ys) = _stores(x, y)
    w = (1, rel.f1, rel.f2, rel.a, rel.b)
    w = _swap(w) if swapped else w
    values, passed = _scaled_row(lemma.roles(*w)), set()
    xt, yt, y_name = x_terms.value, y_terms.value, "X" if y is x else "Y"

    def pair(k: int, n: int) -> tuple:
        _check_relation_window(xt, yt, w, lemma.anchors(n, k, *w[3:]), y_name, passed)
        return lemma.evaluate(ys, xs, n, k, *values)

    return Outcome(pair, _LEMMA_VARS)


def _sum_pair(lemma: _Lemma, swapped: bool, g: Sequence, h: Sequence, rel=None,
              skips: bool = True) -> Outcome:
    # The lemma at T or swap(T); row(a, b, c, d, m) memoizes the evaluator's arguments, whether
    # Z = 0 and their key in results: an int interned in keys, or once keys is full the arguments
    # themselves. The theorems hypothesize Z != 0: skips gives None for a line where k > 0 and
    # Z = 0. results holds a line's results under (key, k, last) while room is left for them.
    (_, gt), (_, ht) = _stores(g, h)
    relation, z_at, evaluate = partial(_theorem1, gt), lemma.z_at, lemma.evaluate
    keys, results, room = {}, {}, _RESULTS_CAP

    @lru_cache(maxsize=_MEMO_SIZE)
    def row(a: int, b: int, c: int, d: int, m: int) -> tuple:
        *w, scale = relation(a, b, c, d, m)
        values = (*lemma.roles(*(_swap(w) if swapped else w)), scale)
        key = (keys.setdefault(values, len(keys)) if len(keys) < _RESULTS_CAP
               else keys.get(values, values))
        return values, values[z_at] == 0, key

    def line(prefix: tuple, last, out: list):
        nonlocal room
        a, b, c, d, k, m = prefix
        values, z_zero, key = row(a, b, c, d, m)
        if skips and k > 0 and z_zero:
            return None
        if (stored := results.get((key, k, last))) is not None:
            out += stored
            return out
        start = len(out)
        for n in last:
            out.append(evaluate(ht, ht, n, k, *values))
        if len(last) <= room:
            room -= len(last)
            results[key, k, last] = tuple(out[start:])
        return out

    return Outcome.of_line(line, _SUM_VARS)


# ---------------------------------------------------------------------------
# The identity table, read by the grid sweep, the CLI and the test suite.


class IdentitySpec(NamedTuple):
    """One identity; core(g, h, rel=None, skips=True) returns its Outcome over the variables
    (rel used iff takes_relation, h iff takes_companion; only sums skip)."""

    variables: tuple
    default_grid: str
    takes_relation: bool
    core: Callable
    takes_companion: bool = True


_SUM_GRID = "a=-1..2,b=-1..2,c=-1..2,d=-1..2,k=0..5,m=-2..2,n=-2..2"


def _lemma(row: str, swapped: bool = False, takes_companion: bool = False) -> IdentitySpec:
    def core(x, y, rel, skips=True):
        return _lemma_pair(_LEMMAS[row], swapped, x, y if takes_companion else x, rel)

    return IdentitySpec(_LEMMA_VARS, "k=0..6,n=-5..5", True, core, takes_companion)


def _sum(row: str, swapped: bool = False) -> IdentitySpec:
    return IdentitySpec(_SUM_VARS, _SUM_GRID, False, partial(_sum_pair, _LEMMAS[row], swapped))


IDENTITIES = {
    "theorem1": IdentitySpec(
        _KERNEL_VARS, "a=-2..2,b=-2..2,c=-2..2,d=-2..2,m=-3..3,n=-3..3", False, _theorem1_pair
    ),
    "corollary": IdentitySpec(
        _COROLLARY_VARS, "a=-3..3,b=-3..3,m=-4..4,n=-4..4", False, _corollary_pair
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
    """The Outcome of one identity bound to concrete sequences.

    Lemmas default rel to the defining recurrence of g, as shifts (1, 2);
    every other identity needs g and h to share one recurrence.
    """
    spec = _spec(identity)
    if spec.takes_relation:
        if rel is None:
            rel = ThreeTermRelation(g.params.p, g.params.q, 1, 2)
    else:
        _require_same_params(g, h)
    return spec.core(g, h, rel)


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
