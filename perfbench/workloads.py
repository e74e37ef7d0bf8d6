"""Seeded inputs, timed operations and output checks for the four workloads.

A workload is a fixed list of operations ("ops"); one pass runs every op
once, in order. The seed chooses values (companion initial terms, the
rational recurrence, index jitter, refutation variants), never the amount or
shape of the work, so that two seeds cost the same within noise.

Each op calls one public entry point of the package and returns its result.
``observe(result)`` turns the result into a comparable value. ``expected()``
gives the known answer, worked out before any timing starts and, wherever
one exists, by a route that does not go through the code under test.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
sys.path.insert(0, str(ROOT / "src"))
# The CLI lifts the int/str conversion limit in main(); library workloads and
# the render checks need the same behaviour on huge integers.
sys.set_int_max_str_digits(0)

import horadam  # noqa: E402
import horadam.catalog as catalog  # noqa: E402
import horadam.cli as cli  # noqa: E402
import horadam.dsl as dsl  # noqa: E402
import horadam.grid as grid  # noqa: E402
import horadam.kernel as kernel  # noqa: E402
import horadam.sequences as sequences  # noqa: E402

# The CLI default grids with every range cut to its middle half ("k" keeps
# its lower half), so one pass of the kernel sweep takes about two seconds.
KERNEL_GRIDS = {
    "theorem1": "a=-1..1,b=-1..1,c=-1..1,d=-1..1,m=-2..2,n=-2..2",
    "corollary": "a=-2..2,b=-2..2,m=-2..2,n=-2..2",
    "lemma": "k=0..3,n=-3..3",
    "sum": "a=-1..2,b=-1..2,c=-1..2,d=-1..2,k=0..2,m=-1..1,n=-1..1",
}


def kernel_grid_text(identity: str) -> str:
    if identity in KERNEL_GRIDS:
        return KERNEL_GRIDS[identity]
    return KERNEL_GRIDS["lemma" if identity.startswith("lemma") else "sum"]


def catalog_grid_text(free_vars) -> str:
    """The catalog default grids (-4..4, k=0..6) cut to their middle half."""
    return ",".join(f"{v}=0..3" if v == "k" else f"{v}=-2..2" for v in sorted(free_vars))


def grid_ranges(text: str) -> dict:
    """{var: (lo, hi)} of a plain "v=lo..hi,..." grid, read without the package."""
    ranges = {}
    for part in text.split(","):
        name, span = part.split("=")
        lo, _, hi = span.partition("..")
        ranges[name] = (int(lo), int(hi or lo))
    return ranges


def grid_size(text: str) -> int:
    size = 1
    for lo, hi in grid_ranges(text).values():
        size *= hi - lo + 1
    return size


def _signed(rng: random.Random) -> int:
    return rng.choice((2, 3)) * rng.choice((1, -1))


def rational_pair(rng: random.Random) -> tuple:
    """Two sequences on p = +-3/2, q = 2/3 with seeded initial terms of fixed size.

    |p| and q stay fixed because they set how fast terms grow, and with it
    the cost of every op; the seed picks only signs and initial terms.
    """
    p, q = Fraction(3 * rng.choice((1, -1)), 2), Fraction(2, 3)
    g = horadam.make_sequence(p, q, _signed(rng), _signed(rng), "rational-g")
    h = horadam.make_sequence(p, q, _signed(rng), _signed(rng), "rational-h")
    return g, h


class Op:
    """One timed call and how to check it.

    ``call()`` runs the op, ``observe(result)`` maps its result to the value
    compared with ``expect``, ``expected()`` computes that value (untimed),
    and ``cases`` counts the grid cases or terms the op stands for.
    """

    __slots__ = ("label", "call", "observe", "expected", "cases", "expect")

    def __init__(self, label, call, observe, expected, cases):
        self.label = label
        self.call = call
        self.observe = observe
        self.expected = expected
        self.cases = cases
        self.expect = None


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops = []
        self.grid_texts = set()
        self.dsl_texts = []

    def prepare(self) -> None:
        """Work out every op's known answer; runs before timing starts."""
        for op in self.ops:
            op.expect = op.expected()

    def cold(self) -> None:
        """Parse what a fresh process parses before its first op."""
        for text in self.grid_texts:
            grid.parse_grid(text)
        for text in self.dsl_texts:
            dsl.parse_identity(text)


def _report_counts(report) -> tuple:
    return (
        report.identity,
        report.grid,
        report.holds,
        report.cases_total,
        report.cases_checked,
        report.cases_skipped_precondition,
    )


# ---------------------------------------------------------------------------
# sweep-native: catalog_run over all entries, verify_identity_grid over all
# kernel identities and three sequence pairs.


def _oracle_fn(seq):
    cache = {}

    def g(i):
        if i not in cache:
            cache[i] = sequences.term_iterative_oracle(seq, i)
        return cache[i]

    return g


def _kernel_value(g, u, v, s, t):
    return g(u - s) * g(v - t) - g(u - t) * g(v - s)


# The kernel coefficient each summation theorem divides by when k >= 1:
# B = f_g(d, m; b, a) and C = f_g(c, m; a, b). A case where it is 0 is skipped.
_SKIP_ON = {
    "sum-ordinary:1": "B",
    "sum-ordinary:2": "C",
    "sum-ordinary:3": "C",
    "sum-binomial:1": "C",
    "sum-binomial:2": "C",
    "sum-binomial:3": "B",
}


def expected_skips(identity: str, seq, text: str) -> int:
    """Cases the theorem's nonzero hypothesis excludes, counted from oracle terms."""
    which = _SKIP_ON.get(identity)
    if which is None:
        return 0
    g = _oracle_fn(seq)
    span = {v: range(lo, hi + 1) for v, (lo, hi) in grid_ranges(text).items()}
    zeros = 0
    for a in span["a"]:
        for b in span["b"]:
            for c in span["c"]:
                for d in span["d"]:
                    for m in span["m"]:
                        if which == "B":
                            zeros += _kernel_value(g, d, m, b, a) == 0
                        else:
                            zeros += _kernel_value(g, c, m, a, b) == 0
    k_positive = sum(1 for k in span["k"] if k >= 1)
    return zeros * k_positive * len(span["n"])


def catalog_ops(initials) -> list:
    ops = []
    for entry in catalog.catalog_list():
        text = catalog_grid_text(entry.free_vars)
        size = grid_size(text)
        ops.append(Op(
            f"catalog:{entry.id}",
            lambda e=entry.id, t=text, i=initials if entry.generalized else None:
                catalog.catalog_run(e, t, i),
            _report_counts,
            lambda e=entry.id, t=text, s=size: (e, t, True, s, s, 0),
            size,
        ))
    return ops


class SweepNative(Workload):
    name = "sweep-native"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.initials = (_signed(self.rng), _signed(self.rng))
        named = sequences.get_named
        self.pairs = (
            ("fib", named("fibonacci"), named("lucas")),
            ("jac", named("jacobsthal"), named("jacobsthal-lucas")),
            ("rat",) + rational_pair(self.rng),
        )
        self.ops = catalog_ops(self.initials)
        self.grid_texts = {catalog_grid_text(e.free_vars) for e in catalog.catalog_list()}
        self.grid_texts.update(KERNEL_GRIDS.values())
        for identity in kernel.IDENTITY_NAMES:
            text = kernel_grid_text(identity)
            size = grid_size(text)
            for tag, g, h in self.pairs:
                h = g if identity.startswith("lemma") else h

                def expected(i=identity, g=g, t=text, s=size):
                    skipped = expected_skips(i, g, t)
                    return (i, t, True, s, s - skipped, skipped)

                self.ops.append(Op(
                    f"kernel:{identity}:{tag}",
                    lambda i=identity, g=g, h=h, t=text:
                        kernel.verify_identity_grid(i, g, h, grid.parse_grid(t)),
                    _report_counts,
                    expected,
                    size,
                ))


# ---------------------------------------------------------------------------
# sweep-dsl: every catalog DSL text through parse_identity and
# verify_over_grid, on the grids and companion of sweep-native.


class SweepDsl(Workload):
    name = "sweep-dsl"

    def __init__(self, seed: int):
        super().__init__(seed)
        # Same draw as sweep-native, so one seed gives both the same companion.
        self.initials = SweepNative(seed).initials
        native = {op.label[len("catalog:"):]: op for op in catalog_ops(self.initials)}
        for entry in catalog.catalog_list():
            registry = dsl.default_registry()
            if entry.generalized:
                base = sequences.get_named(entry.family)
                registry["H"] = horadam.make_sequence(
                    base.params.p, base.params.q, *self.initials, "H"
                )
            text = catalog_grid_text(entry.free_vars)
            self.grid_texts.add(text)
            for index, identity_text in enumerate(entry.dsl_texts):
                self.dsl_texts.append(identity_text)
                self.ops.append(Op(
                    f"dsl:{entry.id}:{index}",
                    lambda x=identity_text, t=text, r=registry, e=entry.id: dsl.verify_over_grid(
                        dsl.parse_identity(x), grid.parse_grid(t), r, identity_label=e
                    ),
                    lambda report: report.to_json(),
                    lambda op=native[entry.id]: _native_json(op),
                    grid_size(text),
                ))


def _native_json(op):
    """The native report's JSON, or None (which no DSL report equals) when the
    native report itself is wrong."""
    report = op.call()
    return report.to_json() if _report_counts(report) == op.expected() else None


# ---------------------------------------------------------------------------
# refute-render: in-process cli.main runs that write their output to files.
# Inputs come from one of VARIANTS fixed variants, whose output digests at the
# commit that defined the benchmark are kept in digests.json.

VARIANTS = 16
_FIB_1D = ("F[n+1]=F[n]", "F[n+2]=F[n+1]", "F[n-1]=F[n+1]", "F[n]=F[n+1]-F[n]")
_JAC_1D = ("J[n+1]=J[n]", "J[n+1]=2*J[n]", "J[n]=J[n-1]", "J[n+1]=J[n-1]")
_FIB_2D = ("F[n+m]=F[n]*F[m]", "F[n+m]=F[n]*L[m]")
FORMATS = ("json", "csv", "text")


def refute_runs(variant: int) -> list:
    """[(label, argv without --output, expected exit code, cases)] of one variant."""
    shift = (variant * 7) % 11 - 5
    big = 300_000 + 1_000 * variant
    runs = []
    checks = (
        ("fib1d", _FIB_1D[variant % 4], f"n={-1500 + shift}..{1500 + shift}"),
        ("jac1d", _JAC_1D[variant // 4], f"n={-1000 + shift}..{1000 + shift}"),
        ("fib2d", _FIB_2D[variant % 2], f"m={-30 + shift}..{30 + shift},n=-30..30"),
    )
    for fmt in FORMATS:
        for label, expr, text in checks:
            runs.append((f"check-{label}-{fmt}",
                         ["check", "--expr", expr, "--grid", text, "--format", fmt], 1,
                         grid_size(text)))
        lo, hi = -1000 - shift, 1000 - shift
        runs.append((f"table-{fmt}",
                     ["table", "--all", "--from", str(lo), "--to", str(hi), "--format", fmt], 0,
                     6 * (hi - lo + 1)))
    for seq, n in (("fibonacci", big), ("fibonacci", -big - 1),
                   ("jacobsthal", big), ("jacobsthal", -big)):
        runs.append((f"eval-{seq}-{'neg' if n < 0 else 'pos'}",
                     ["eval", "--seq", seq, "-n", str(n)], 0, 1))
    return runs


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class RefuteRender(Workload):
    name = "refute-render"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.variant = self.rng.randrange(VARIANTS)
        self.out = OUT_DIR / "refute"
        self.argvs = []
        self.digests = {}
        for label, argv, code, cases in refute_runs(self.variant):
            path = self.out / label
            argv = argv + ["--output", str(path)]
            self.argvs.append(argv)
            self.ops.append(Op(
                label,
                lambda argv=argv: cli.main(argv),
                lambda code, path=path: (code, file_digest(path)),
                lambda label=label, code=code: (code, self.digests.get(f"{self.variant}:{label}")),
                cases,
            ))

    def prepare(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        self.digests = json.loads(DIGESTS.read_text())
        super().prepare()

    def cold(self) -> None:
        parser = cli.build_parser()
        for argv in self.argvs:
            parser.parse_args(argv)


# ---------------------------------------------------------------------------
# big-index: term() at |n| in 1e5..1e6, checked by fingerprints modulo two
# primes from an independent modular matrix power.

PRIMES = (2**61 - 1, 2**89 - 1)
RUNGS = (100_000, 200_000, 400_000, 800_000)
# Rational terms cost quadratically (gcd of million-bit integers), so that
# class stays at the bottom of the range.
RATIONAL_RUNGS = (100_000, 120_000)


def fingerprint(value: Fraction) -> tuple:
    value = Fraction(value)
    return tuple(value.numerator % p * pow(value.denominator % p, -1, p) % p for p in PRIMES)


def _mod_mat_mul(x, y, p):
    return (
        (x[0] * y[0] + x[1] * y[2]) % p,
        (x[0] * y[1] + x[1] * y[3]) % p,
        (x[2] * y[0] + x[3] * y[2]) % p,
        (x[2] * y[1] + x[3] * y[3]) % p,
    )


def reference_fingerprint(seq, n: int) -> tuple:
    """G(n) modulo each prime, from [[p, q], [1, 0]]**n (its inverse for n < 0)."""
    out = []
    for prime in PRIMES:
        def mod(f):
            return f.numerator % prime * pow(f.denominator % prime, -1, prime) % prime

        pm, qm = mod(seq.params.p), mod(seq.params.q)
        if n >= 0:
            base = (pm, qm, 1, 0)
        else:
            qi = pow(qm, -1, prime)
            base = (0, 1, qi, (-pm * qi) % prime)
        result, e = (1, 0, 0, 1), abs(n)
        while e:
            if e & 1:
                result = _mod_mat_mul(result, base, prime)
            base = _mod_mat_mul(base, base, prime)
            e >>= 1
        out.append((result[2] * mod(seq.g1) + result[3] * mod(seq.g0)) % prime)
    return tuple(out)


class BigIndex(Workload):
    name = "big-index"

    def __init__(self, seed: int):
        super().__init__(seed)
        named = sequences.get_named
        self.classes = (
            ("fib", named("fibonacci"), RUNGS),
            ("pell", named("pell"), RUNGS),
            ("jac", named("jacobsthal"), RUNGS),
            ("rat", rational_pair(self.rng)[0], RATIONAL_RUNGS),
        )
        for tag, seq, rungs in self.classes:
            for rung in rungs:
                n = rung + self.rng.randrange(rung // 100)
                for signed in (n, -n):
                    self.ops.append(Op(
                        f"term:{tag}:{signed}",
                        lambda s=seq, i=signed: sequences.term(s, i),
                        fingerprint,
                        lambda s=seq, i=signed: reference_fingerprint(s, i),
                        1,
                    ))

    def prepare(self) -> None:
        # The modular reference must agree with the iterative oracle before it
        # is trusted at indices the oracle cannot reach in time.
        for tag, seq, _ in self.classes:
            for n in (self.rng.randrange(50, 400), -self.rng.randrange(50, 400)):
                if reference_fingerprint(seq, n) != fingerprint(sequences.term_iterative_oracle(seq, n)):
                    raise RuntimeError(f"modular reference disagrees with the oracle: {tag} n={n}")
        super().prepare()


WORKLOADS = {w.name: w for w in (SweepNative, SweepDsl, RefuteRender, BigIndex)}
