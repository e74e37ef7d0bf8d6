"""Kernel form, basis solver, and the table of generic identities.

The antisymmetric kernel over a sequence G is
    f_g(u, v; s, t) = G(u-s)*G(v-t) - G(u-t)*G(v-s).
Theorem 1 relates H(n+m), H(n+c) and H(n+d) through the three kernel values
    A = f_g(d, c; b, a),  B = f_g(d, m; b, a),  C = f_g(c, m; a, b),
and every summation theorem is the same telescoping or binomial formula
with A, B and C in permuted roles. IDENTITIES holds one entry per identity
(grid variables, CLI default grid, whether it takes a ThreeTermRelation,
the function that builds its outcome, whether it reads the companion);
each formula below is stated once.

Every outcome evaluates both sides of its identity exactly; nothing is
rounded. The summation theorems are evaluated multiplied through by Z^k,
where Z is the kernel value the paper divides by, so no sum divides; one
ordinary and one binomial evaluator serve both these identities and the
catalog's sum entries. The kernel still skips (rather than fails) a case
with k >= 1 and Z = 0, since the statements hypothesize Z nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Optional

from .errors import DegeneracyError, DomainError, PreconditionError, UsageError
from .grid import GridSpec, make_grid
from .report import VerificationReport, run_grid
from .scalar import Rational
from .sequences import Sequence, term, term_fn

__all__ = [
    "ThreeTermRelation", "f_g", "basis_coefficients", "IdentitySpec", "IDENTITIES",
    "IDENTITY_NAMES", "identity_variables", "identity_outcome", "verify_identity_grid",
    "check_identity",
]


@dataclass(frozen=True)
class ThreeTermRelation:
    """Relation X(n) = f1*X(n-a) + f2*X(n-b) with f1, f2 nonzero and a != b."""

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


def _swap(rel: ThreeTermRelation) -> ThreeTermRelation:
    # The same relation with the roles of (f1, a) and (f2, b) exchanged.
    return ThreeTermRelation(rel.f2, rel.f1, rel.b, rel.a)


def _fg(gt: Callable[[int], object], u: int, v: int, s: int, t: int):
    return gt(u - s) * gt(v - t) - gt(u - t) * gt(v - s)


def f_g(g: Sequence, args: tuple) -> Rational:
    """Exact kernel value at the index quadruple args = (u, v, s, t)."""
    u, v, s, t = args
    value = _fg(lambda i: term(g, i), u, v, s, t)
    return value if isinstance(value, Fraction) else Fraction(value)


def _div(a, b) -> Fraction:
    # Exact quotient; int/int would fall back to float division.
    return Fraction(a) / b


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
    l1 = _div(hc * gt(d - b) - hd * gt(c - b), det)
    l2 = _div(gt(c - a) * hd - gt(d - a) * hc, det)
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
# identity_outcome binds them through the IDENTITIES table.


def _bound(case: dict) -> int:
    k = case["k"]
    if k < 0:
        raise DomainError(f"summation bound k must be non-negative, got {k}")
    return k


def _theorem1_outcome(g: Sequence, h: Sequence, rel=None) -> Callable[[dict], tuple]:
    gt, ht = term_fn(g), term_fn(h)

    def outcome(case: dict):
        n, m = case["n"], case["m"]
        a, b, c, d = case["a"], case["b"], case["c"], case["d"]
        lhs = _fg(gt, d, c, b, a) * ht(n + m)
        rhs = _fg(gt, d, m, b, a) * ht(n + c) + _fg(gt, c, m, a, b) * ht(n + d)
        return lhs, rhs

    return outcome


def _corollary_outcome(g: Sequence, h: Sequence, rel=None) -> Callable[[dict], tuple]:
    gt, ht = term_fn(g), term_fn(h)

    def outcome(case: dict):
        n, m, a, b = case["n"], case["m"], case["a"], case["b"]
        g0 = gt(0)
        lhs = (gt(a - b) * gt(b - a) - g0 * g0) * ht(n + m)
        rhs = (gt(b - a) * gt(m - b) - g0 * gt(m - a)) * ht(n + a) + (
            gt(a - b) * gt(m - a) - g0 * gt(m - b)
        ) * ht(n + b)
        return lhs, rhs

    return outcome


# The summation theorems multiplied through by Z^k. The ordinary sums state
#   X * sum_{j=0..k} Z^(k-j) Y^j H(n - s*k + t + s*j)
#     = sign * (Y^(k+1) H(n) - Z^(k+1) H(n - s*(k+1))),
# the binomial sums
#   sum_{j=0..k} binom(k, j) Z^(k-j) Y^j H(n + s*k + t*j) = W^k H(n).
# Both sums are accumulated in Horner form over Z. The catalog's sum entries
# call these two evaluators with their own role tables.


def _ordinary_sum(ht, n: int, k: int, X, Y, Z, s: int, t: int, sign: int) -> tuple:
    base = n - s * k + t
    tot, y = 0, 1
    for j in range(k + 1):
        tot = tot * Z + y * ht(base + s * j)
        y = y * Y
    rhs = y * ht(n) - Z ** (k + 1) * ht(n - s * (k + 1))
    return X * tot, (rhs if sign == 1 else -rhs)


def _binomial_sum(ht, n: int, k: int, Y, Z, W, s: int, t: int) -> tuple:
    base = n + s * k
    tot, y = 0, 1
    for j in range(k + 1):
        tot = tot * Z + math.comb(k, j) * y * ht(base + t * j)
        y = y * Y
    return tot, W ** k * ht(n)


# The kernel's roles map (A, B, C, m, c, d) to (X, Y, Z, s, t, sign) for the
# ordinary sums and to (Y, Z, W, s, t) for the binomial sums.
_ORDINARY_ROLES = {
    1: lambda A, B, C, m, c, d: (C, A, B, m - c, d - m, 1),
    2: lambda A, B, C, m, c, d: (B, A, C, m - d, c - m, 1),
    3: lambda A, B, C, m, c, d: (A, -B, C, c - d, m - c, -1),
}

_BINOMIAL_ROLES = {
    1: lambda A, B, C, m, c, d: (B, C, A, d - m, c - d),
    2: lambda A, B, C, m, c, d: (-A, C, -B, d - c, m - d),
    3: lambda A, B, C, m, c, d: (-A, B, -C, c - d, m - c),
}


def _sum_outcome(evaluate, z_at: int, roles, g: Sequence, h: Sequence, rel=None) -> Callable:
    # The theorems hypothesize Z != 0 (roles[z_at]); k = 0 needs no hypothesis.
    gt, ht = term_fn(g), term_fn(h)

    def outcome(case: dict):
        n, m, k = case["n"], case["m"], _bound(case)
        a, b, c, d = case["a"], case["b"], case["c"], case["d"]
        values = roles(_fg(gt, d, c, b, a), _fg(gt, d, m, b, a), _fg(gt, c, m, a, b), m, c, d)
        if k and values[z_at] == 0:
            return None
        return evaluate(ht, n, k, *values)

    return outcome


def _minus(shift: int) -> str:
    """The index n - shift as text: 'n-2', 'n' or 'n+1'."""
    return f"n-{shift}" if shift > 0 else f"n+{-shift}" if shift else "n"


def _check_relation_window(xt, yt, rel: ThreeTermRelation, anchors) -> None:
    """Every summand rewrite uses X(s) = f1*X(s-a) + f2*Y(s-b) at some anchor s;
    verify those instances up front so a wrong relation surfaces as a clear error."""
    f1, f2, a, b = rel.f1, rel.f2, rel.a, rel.b
    for s in anchors:
        if xt(s) != f1 * xt(s - a) + f2 * yt(s - b):
            raise PreconditionError(
                f"relation X(n) = {f1}*X({_minus(a)}) + {f2}*Y({_minus(b)}) fails at n={s}"
            )


def _lemma1_outcome(x: Sequence, y: Sequence, rel: ThreeTermRelation) -> Callable[[dict], tuple]:
    # Telescoping sum for X(n) = f1*X(n-a) + f2*Y(n-b).
    xt, yt = term_fn(x), term_fn(y)
    f1, f2, a, b = rel.f1, rel.f2, rel.a, rel.b

    def outcome(case: dict):
        n, k = case["n"], _bound(case)
        _check_relation_window(xt, yt, rel, (n - j * a for j in range(k + 1)))
        lhs = f2 * sum(yt(n - k * a - b + a * j) / f1 ** j for j in range(k + 1))
        rhs = xt(n) / f1 ** k - f1 * xt(n - (k + 1) * a)
        return lhs, rhs

    return outcome


def _lemma2_3_outcome(x: Sequence, rel: ThreeTermRelation) -> Callable[[dict], tuple]:
    xt = term_fn(x)
    f1, f2, a, b = rel.f1, rel.f2, rel.a, rel.b
    r = -f1 / f2

    def outcome(case: dict):
        n, k = case["n"], _bound(case)
        _check_relation_window(xt, xt, rel, (n - j * (a - b) + b for j in range(k + 1)))
        lhs = sum(xt(n - (a - b) * k + b + (a - b) * j) / r ** j for j in range(k + 1))
        rhs = f2 * xt(n) / r ** k + f1 * xt(n - (k + 1) * (a - b))
        return lhs, rhs

    return outcome


def _lemma3_1_outcome(x: Sequence, rel: ThreeTermRelation) -> Callable[[dict], tuple]:
    xt = term_fn(x)
    f1, f2, a, b = rel.f1, rel.f2, rel.a, rel.b
    r = f1 / f2

    def outcome(case: dict):
        n, k = case["n"], _bound(case)
        # Indices where the relation gets substituted while expanding k times.
        anchors = (n - j * a - l * b for j in range(k) for l in range(k - j))
        _check_relation_window(xt, xt, rel, anchors)
        lhs = sum(math.comb(k, j) * r ** j * xt(n - b * k + (b - a) * j) for j in range(k + 1))
        return lhs, xt(n) / f2 ** k

    return outcome


def _lemma3_2_outcome(x: Sequence, rel: ThreeTermRelation) -> Callable[[dict], tuple]:
    xt = term_fn(x)
    f1, f2, a, b = rel.f1, rel.f2, rel.a, rel.b

    def outcome(case: dict):
        n, k = case["n"], _bound(case)
        anchors = (n + (a - b) * j + l * a + a for j in range(k) for l in range(k - j))
        _check_relation_window(xt, xt, rel, anchors)
        lhs = sum(math.comb(k, j) * xt(n + (a - b) * k + b * j) / (-f2) ** j for j in range(k + 1))
        return lhs, (-f1 / f2) ** k * xt(n)

    return outcome


# ---------------------------------------------------------------------------
# The identity table, read by the grid sweep, the CLI and the test suite.


class IdentitySpec(NamedTuple):
    """One identity; build(g, h, rel) returns its outcome, rel used iff takes_relation
    and h used iff takes_companion."""

    variables: tuple
    default_grid: str
    takes_relation: bool
    build: Callable
    takes_companion: bool = True


_KERNEL_VARS = ("a", "b", "c", "d", "m", "n")
_SUM_VARS = ("a", "b", "c", "d", "k", "m", "n")
_SUM_GRID = "a=-1..2,b=-1..2,c=-1..2,d=-1..2,k=0..5,m=-2..2,n=-2..2"


def _lemma(build: Callable, takes_companion: bool = False) -> IdentitySpec:
    return IdentitySpec(("k", "n"), "k=0..6,n=-5..5", True, build, takes_companion)


IDENTITIES = {
    "theorem1": IdentitySpec(
        _KERNEL_VARS, "a=-2..2,b=-2..2,c=-2..2,d=-2..2,m=-3..3,n=-3..3", False, _theorem1_outcome
    ),
    "corollary": IdentitySpec(
        ("a", "b", "m", "n"), "a=-3..3,b=-3..3,m=-4..4,n=-4..4", False, _corollary_outcome
    ),
    "lemma1": _lemma(_lemma1_outcome, takes_companion=True),
    "lemma2:1": _lemma(lambda x, y, rel: _lemma1_outcome(x, x, rel)),
    "lemma2:2": _lemma(lambda x, y, rel: _lemma1_outcome(x, x, _swap(rel))),
    "lemma2:3": _lemma(lambda x, y, rel: _lemma2_3_outcome(x, rel)),
    "lemma3:1": _lemma(lambda x, y, rel: _lemma3_1_outcome(x, rel)),
    "lemma3:2": _lemma(lambda x, y, rel: _lemma3_2_outcome(x, rel)),
    "lemma3:3": _lemma(lambda x, y, rel: _lemma3_2_outcome(x, _swap(rel))),
    **{
        f"sum-{kind}:{v}": IdentitySpec(
            _SUM_VARS, _SUM_GRID, False, partial(_sum_outcome, evaluate, z_at, roles)
        )
        for kind, evaluate, z_at, table in (
            ("ordinary", _ordinary_sum, 2, _ORDINARY_ROLES),
            ("binomial", _binomial_sum, 1, _BINOMIAL_ROLES),
        )
        for v, roles in table.items()
    },
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
    needed = identity_variables(identity)
    have = grid.var_names
    if tuple(sorted(have)) != needed:
        raise UsageError(
            f"identity {identity!r} needs grid variables {{{', '.join(needed)}}},"
            f" got {{{', '.join(have)}}}"
        )
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
