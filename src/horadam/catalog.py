"""Named registry of the family identity specializations.

Entry ids are "<family>.<identity>" with families fib, pell, jac. Entries
marked generalized take a companion sequence H sharing the family recurrence
but with caller-chosen initial terms; the base sequence supplies the
coefficient terms.

Natively, each entry is a kernel identity (Theorem 1 or a sum row) at a
substitution of its indices, up to a sign, evaluated by that identity's
kernel core bound without the sums' Z = 0 skip: every statement is division-free.
A sum entry sweeps a line of n at a time, as its kernel core does: its substitution
and its sign read every variable but n, so each is applied once per line.
Every entry also carries its classical statement literally in the DSL (field
dsl_texts), which the test suite verifies against the native route case by
case; the two routes share no evaluation code. Each identity's statements are
written once, as templates that one str.format call per family fills in.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .errors import UsageError
from .grid import parse_grid
from .kernel import IDENTITIES
from .report import Outcome, VerificationReport, run_grid
from .scalar import m1
from .sequences import get_named, make_sequence

__all__ = ["CatalogEntry", "catalog_list", "catalog_run", "catalog_entry"]


# Every base sequence has G(0) = 0 and G(1) = 1, so Theorem 1 at (a, b, c, d)
# = (b, b-1, a, b) has A = G(a-b), B = G(m-b) and, by d'Ocagne's identity,
# C = -(-q)^(a-b) G(m-a). That is the master identity at (n, m, a, b):
#     G(a-b) H(n+m) = G(m-b) H(n+a) - (-q)^(a-b) G(m-a) H(n+b).


def _master(n: int, m: int, a: int, b: int) -> tuple:
    return b, b - 1, a, b, m, n


def _sum_map(a: int, b: int, k: int, m: int) -> tuple:  # the same map for a sum row's prefix
    return b, b - 1, a, b, k, m


def _alternating(a: int, b: int, k: int, m: int) -> int:
    # The kernel's rows for sum-ordinary:3 and sum-binomial:2 carry -(-1)^(a+b) on
    # every weight where the classical statements do not: a factor of its k-th power.
    return m1((a + b + 1) * k)


# ---------------------------------------------------------------------------
# Entry table.


class CatalogEntry(NamedTuple):
    """One registered identity: metadata, the kernel identity it instantiates, and its DSL form.

    Each substitution, and the sign if any, takes the binding's values in free_vars
    order, and returns the kernel identity's variables in its order; for a sum entry,
    whose one substitution maps a line's prefix, they take and return all but n's."""

    id: str
    description: str
    family: str
    free_vars: tuple
    generalized: bool
    citation: str
    default_grid: str
    dsl_texts: tuple
    identity: str
    substitutions: tuple
    sign: Optional[Callable] = None
    # Named sequence in the companion slot of a non-generalized entry;
    # None means the base sequence itself.
    companion: Optional[str] = None

    def make_outcome(self, h0=None, h1=None) -> Outcome:
        """The entry bound to concrete sequences (fresh term caches), over free_vars."""
        base = get_named(self.family)
        companion = base if self.companion is None else get_named(self.companion)
        if self.generalized:
            companion = make_sequence(
                base.params.p, base.params.q, 0 if h0 is None else h0, 1 if h1 is None else h1
            )
        core = IDENTITIES[self.identity].core(base, companion, None, False)
        (head, *rest), sign = self.substitutions, self.sign
        if core.line is not None:
            return Outcome.of_line(_signed_line(core.line, head, sign), self.free_vars)
        pair = core.positional

        def outcome(*args) -> tuple:
            result = pair(*head(*args))
            for sub in rest:  # the first unbalanced pair, or else the first
                if result[0] != result[1]:
                    break
                other = pair(*sub(*args))
                if other[0] != other[1]:
                    result = other
            if sign is not None and sign(*args) < 0:
                return _negated(*result)
            return result

        return Outcome(outcome, self.free_vars)


def _negated(lhs, rhs) -> tuple:
    return (-lhs,) * 2 if lhs is rhs else (-lhs, -rhs)  # one Fraction for equal sides


def _signed_line(line: Callable, head: Callable, sign: Optional[Callable]) -> Callable:
    """line at the prefix head maps to, its results negated where sign is negative: the
    core may hand the same stored results to another line, so out's copies are negated."""

    def signed(prefix: tuple, last, out: list) -> list:
        start = len(out)
        line(head(*prefix), last, out)
        if sign is not None and sign(*prefix) < 0:
            out[start:] = [_negated(lhs, rhs) for lhs, rhs in out[start:]]
        return out

    return signed


_FAMILIES = {
    "fib": ("fibonacci", "F", 1, "Fibonacci"),
    "pell": ("pell", "P", 1, "Pell"),
    "jac": ("jacobsthal", "J", 2, "Jacobsthal"),
}


class _Template(NamedTuple):
    """One identity, instantiated once per family in `families`, with its
    statements as DSL templates (see _Jac)."""

    suffix: str
    free_vars: tuple
    generalized: bool
    substitutions: tuple
    statements: tuple
    description: str
    citation: str = ""
    companion: Optional[str] = None
    families: tuple = tuple(_FAMILIES)
    identity: str = "theorem1"
    sign: Optional[Callable] = None


# Each statement is the str.format template of one classical statement in the
# DSL: {B} is the family's letter, (-{q}) the base of d'Ocagne's sign, and
# {j[text]} is text in jac's statement (q = 2) but nothing in fib's and pell's.


class _Jac(dict):
    def __init__(self, q: int):
        self.q = q

    def __missing__(self, text: str) -> str:
        return text if self.q == 2 else ""


_MASTER_VARS = ("a", "b", "m", "n")
_SUM_VARS = ("a", "b", "k", "m", "n")
_catalan = (lambda m, n: _master(0, n + m, n, m),)
_double_shift = (lambda a, m, n: _master(n, m, a, -a),)
_halton = (lambda m, n: _master(n, m, 1, -1),)
_SUM_ORDINARY = (
    "(-1)^(a-b+1)*{j[2^(a-b)*]}{B}[m-a]"
    "*sum(j,0,k,{B}[m-b]^(k-j)*{B}[a-b]^(j)*H[n-(m-a)*k-(m-b)+(m-a)*j])"
    " = {B}[a-b]^(k+1)*H[n] - {B}[m-b]^(k+1)*H[n-(m-a)*(k+1)]",
    "{B}[m-b]*sum(j,0,k,(-1)^((a-b+1)*(k-j))*{j[2^((a-b)*(k-j))*]}"
    "{B}[m-a]^(k-j)*{B}[a-b]^(j)*H[n-(m-b)*k-(m-a)+(m-b)*j])"
    " = {B}[a-b]^(k+1)*H[n]"
    " - (-1)^((a-b+1)*(k+1))*{j[2^((a-b)*(k+1))*]}{B}[m-a]^(k+1)*H[n-(m-b)*(k+1)]",
    "{B}[a-b]*sum(j,0,k,(-1)^((a+b)*j)*{j[2^((a-b)*(k-j))*]}"
    "{B}[m-a]^(k-j)*{B}[m-b]^(j)*H[n-(a-b)*k+(m-a)+(a-b)*j])"
    " = (-1)^((a+b)*k)*{B}[m-b]^(k+1)*H[n]"
    " + (-1)^(a+b+1)*{j[2^((a-b)*(k+1))*]}{B}[m-a]^(k+1)*H[n-(a-b)*(k+1)]",
)
_SUM_BINOMIAL = (
    "sum(j,0,k,(-1)^((a+b+1)*(k-j))*{j[2^((a-b)*(k-j))*]}binom(k,j)"
    "*{B}[m-b]^(j)*{B}[m-a]^(k-j)*H[n-(m-b)*k+(a-b)*j]) = {B}[a-b]^(k)*H[n]",
    "sum(j,0,k,(-1)^((a+b)*j)*binom(k,j)*{B}[a-b]^(j)"
    "*{j[2^((a-b)*(k-j))*]}{B}[m-a]^(k-j)*H[n-(a-b)*k+(m-b)*j]) = (-1)^((a+b)*k)*{B}[m-b]^(k)*H[n]",
    "sum(j,0,k,(-1)^(j)*binom(k,j)*{B}[a-b]^(j)*{B}[m-b]^(k-j)*H[n+(a-b)*k+(m-a)*j])"
    " = (-1)^((a+b)*k)*{j[2^((a-b)*k)*]}{B}[m-a]^(k)*H[n]",
)

_TEMPLATES = (
    _Template(
        "master", _MASTER_VARS, True, (lambda a, b, m, n: _master(n, m, a, b),),
        ("{B}[a-b]*H[n+m] = {B}[m-b]*H[n+a] - (-{q})^(a-b)*{B}[m-a]*H[n+b]",),
        "Three-term expansion of H(n+m) by {base} multipliers at shifts a and b",
    ),
    _Template(
        "master-dual", _MASTER_VARS, True,
        (lambda a, b, m, n: _master(m - a - b, n + a + b, a, b),),
        ("{B}[a-b]*H[n+m] = H[m-b]*{B}[n+a] - (-{q})^(a-b)*H[m-a]*{B}[n+b]",),
        "Mirror of the master expansion with base and companion roles swapped",
    ),
    _Template(
        "catalan-general", ("m", "n"), True, _catalan,
        ("{B}[n-m]*H[n+m] = {B}[n]*H[n] - (-{q})^(n-m)*{B}[m]*H[m]",),
        "Catalan-type relation among H(n+m), H(n), H(m) with {base} multipliers",
        "Catalan's identity (generalized companion form)",
    ),
    _Template(
        # Not generalized and no named companion, so H is the base itself.
        "catalan", ("m", "n"), False, _catalan,
        ("{B}[n-m]*{B}[n+m] = {B}[n]^(2) + (-1)^(n+m+1)*{j[2^(n-m)*]}{B}[m]^(2)",),
        "Catalan's identity for {base} numbers", "Catalan's identity",
    ),
    _Template(
        "double-shift", ("a", "m", "n"), True, _double_shift,
        ("{B}[2*a]*H[n+m] = {B}[m+a]*H[n+a] - {j[2^(2*a)*]}{B}[m-a]*H[n-a]",),
        "Symmetric shift of both H indices by a with {base} coefficients",
    ),
    _Template(
        "halton", ("m", "n"), True, _halton,
        ("{B}[2]*H[n+m] = {B}[m+1]*H[n+1] - {j[4*]}{B}[m-1]*H[n-1]",),
        "Unit-shift instance of the symmetric double shift over {base}",
        "Halton's identity (63), companion form",
    ),
    _Template(
        "odd-even-split", ("k", "m", "n"), True,
        (lambda k, m, n: _master(n, m, 2 * k, 1), lambda k, m, n: _master(n, m, 2 * k, 0)),
        (
            "{B}[2*k-1]*H[n+m] = {j[2^(2*k-1)*]}{B}[m-2*k]*H[n+1] + {B}[m-1]*H[n+2*k]",
            "{B}[2*k]*H[n+m] = {B}[m]*H[n+2*k] - {j[2^(2*k)*]}{B}[m-2*k]*H[n]",
        ),
        "Splits H(n+m) with an odd (2k-1) and an even (2k) {base} shift",
    ),
    _Template(
        # G(1) = 1 in every family, so the lhs G(1) H(n+m) is H(n+m).
        "vajda8", ("m", "n"), True, (lambda m, n: _master(n, m, 1, 0),),
        ("H[n+m] = {B}[m]*H[n+1] + {j[2*]}{B}[m-1]*H[n]",),
        "Addition rule: H(n+m) from H(n) and H(n+1) with {base} coefficients",
        "Vajda's formula (8)",
    ),
    _Template(
        "double-index", ("m", "n"), True, (lambda m, n: _master(n, n, m, -m),),
        ("{B}[2*m]*H[2*n] = {B}[n+m]*H[n+m] - {j[2^(2*m)*]}{B}[n-m]*H[n-m]",),
        "Index doubling: H(2n) against {base} terms at n+m and n-m",
    ),
    *(
        _Template(
            f"sum.{kind}.{v}", _SUM_VARS, True, (_sum_map,), (statement,),
            f"{title} over H, variant {v}, {{base}} weights",
            identity=f"sum-{kind}:{v}", sign=_alternating if v == flipped else None,
        )
        for kind, title, statements, flipped in (
            ("ordinary", "Power-weighted ordinary sum", _SUM_ORDINARY, 3),
            ("binomial", "Binomial-weighted sum", _SUM_BINOMIAL, 2),
        )
        for v, statement in enumerate(statements, 1)
    ),
    _Template(
        "double-shift-lucas", ("a", "m", "n"), False, _double_shift,
        ("P[2*a]*Q[n+m] = P[m+a]*Q[n+a] - P[m-a]*Q[n-a]",),
        "Symmetric double shift pairing Pell and Pell-Lucas terms",
        companion="pell-lucas", families=("pell",),
    ),
    _Template(
        # Pell(2) = 2 is the lhs multiplier.
        "halton-lucas", ("m", "n"), False, _halton,
        ("2*Q[n+m] = P[m+1]*Q[n+1] - P[m-1]*Q[n-1]",),
        "Unit-offset double shift pairing Pell and Pell-Lucas terms",
        "Halton's identity (63), Pell-Lucas pairing",
        companion="pell-lucas", families=("pell",),
    ),
)


def _default_grid(free_vars: tuple) -> str:
    """Every variable over -4..4, except the summation bound k over 0..6."""
    return ",".join(f"{v}=0..6" if v == "k" else f"{v}=-4..4" for v in free_vars)


def _build_entries() -> dict:
    entries = {}
    for t in _TEMPLATES:
        for prefix in t.families:
            family, letter, q, base_name = _FAMILIES[prefix]
            entry_id = f"{prefix}.{t.suffix}"
            entries[entry_id] = CatalogEntry(
                id=entry_id,
                description=t.description.format(base=base_name),
                family=family,
                free_vars=t.free_vars,
                generalized=t.generalized,
                citation=t.citation,
                default_grid=_default_grid(t.free_vars),
                dsl_texts=tuple(text.format(B=letter, q=q, j=_Jac(q)) for text in t.statements),
                identity=t.identity,
                substitutions=t.substitutions,
                sign=t.sign,
                companion=t.companion,
            )
    return entries


_ENTRIES = _build_entries()


def catalog_list() -> list:
    """All entries, alphabetical by id."""
    return [_ENTRIES[k] for k in sorted(_ENTRIES)]


def catalog_entry(entry_id: str) -> CatalogEntry:
    """Look up one entry; unknown ids get a nearest-match hint."""
    entry = _ENTRIES.get(entry_id)
    if entry is None:
        import difflib  # loaded by a failed lookup only, not by every import

        close = difflib.get_close_matches(entry_id, sorted(_ENTRIES), n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise UsageError(f"unknown catalog id {entry_id!r}{hint}")
    return entry


def catalog_run(
    entry_id: str,
    grid=None,
    generalized_initials: Optional[tuple] = None,
) -> VerificationReport:
    """Verify one catalog entry over a grid (default grid when omitted).

    generalized_initials = (h0, h1) selects the companion sequence for
    generalized entries; it defaults to (0, 1) and is rejected for entries
    without a companion slot.
    """
    entry = catalog_entry(entry_id)
    if grid is None:
        grid = parse_grid(entry.default_grid)
    elif isinstance(grid, str):
        grid = parse_grid(grid)
    grid.require_variables(entry.free_vars, f"catalog entry {entry_id!r}")
    if generalized_initials is not None and not entry.generalized:
        raise UsageError(f"catalog entry {entry_id!r} takes no companion initials")
    h0, h1 = generalized_initials if generalized_initials is not None else (None, None)
    return run_grid(entry.id, grid, entry.make_outcome(h0, h1))
