"""Packaging smoke test: the CLI on the paper's families at |n| near 10^5 and its identity front
ends on them, against values that this Python computes without horadam. Every row runs; each failed
row prints one line, named by its CLI words, and the exit code is then 1.

    PYTHONPATH=src python tools/smoke.py    # in a checkout; after `pip install .`, no PYTHONPATH
"""

import csv
import io
import json
import shlex
import subprocess
import sys
from fractions import Fraction


def cli(args: str) -> tuple:
    """(exit code, stdout, stderr) of the CLI under this Python, on the shell words of args."""
    done = subprocess.run([sys.executable, "-m", "horadam.cli", *shlex.split(args)],
                          capture_output=True, timeout=30)  # rows take under 1 s each
    return done.returncode, done.stdout.decode(), done.stderr.decode()


def walk(p, q, g0, g1, n: int) -> Fraction:
    """G(n) of G(i) = p*G(i-1) + q*G(i-2), G(0) = g0, G(1) = g1, by |n| steps forwards or
    backwards: integer numerators a, b over one denominator d, so that no step takes a gcd."""
    (pn, pd), (qn, qd) = Fraction(p).as_integer_ratio(), Fraction(q).as_integer_ratio()
    (a0, d0), (a1, d1) = Fraction(g0).as_integer_ratio(), Fraction(g1).as_integer_ratio()
    a, b, d = a0 * d1, a1 * d0, d0 * d1
    for _ in range(n):  # G(i+2) = p*G(i+1) + q*G(i)
        a, b, d = pd * qd * b, pn * qd * b + qn * pd * a, pd * qd * d
    for _ in range(-n):  # G(i-1) = (G(i+1) - p*G(i)) / q
        a, b, d = qd * (pd * b - pn * a), pd * qn * a, pd * qn * d
    return Fraction(a, d)


def prints(f, *args):  # f(*args) runs with its row
    return lambda out, err: out == f"{f(*args)}\n"


def json_as_stdlib(out: str, err: str) -> bool:
    return json.dumps(json.loads(out), indent=2) + "\n" == out


def csv_as_stdlib(out: str, err: str) -> bool:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(csv.reader(io.StringIO(out, newline="")))
    return buf.getvalue() == out


RAT_G_H = "--p 3/2 --q 2/3 --g0 2 --g1 -3 --h0 -1/2 --h1 3"
JAC = (1, 2, 0, 1)

# (CLI words, exit code, check of (stdout, stderr) or None)
ROWS = [(f"eval {words} -n {n}", 0, prints(walk, *pqg, n)) for words, pqg, ns in [
    ("--seq fibonacci", (1, 1, 0, 1), (10, 100000)), ("--seq lucas", (1, 1, 2, 1), (100000,)),
    ("--seq pell", (2, 1, 0, 1), (100001, -100000)), ("--seq jacobsthal", JAC, (-100000, 100001)),
    ("--p 3 --q -1 --g0 1/2 --g1 -3", (3, -1, "1/2", -3), (3001, -3001)),  # the Cassini walk
    ("--p 3/2 --q 2/3 --g0 2 --g1 -3", ("3/2", "2/3", 2, -3), (3001, -3001)),  # strips 3 if n > 0
    ("--p 6 --q -8 --g0 1 --g1 3", (6, -8, 1, 3), (3001, -3001)),  # roots 4, 2; strips 2 if n <= 0
] for n in ns] + [
    # G(n) = 3^n: one power, so no gcd of huge integers and no timeout
    ("eval --p 7 --q -12 --g0 1 --g1 3 -n -300000", 0, prints(Fraction, 1, 3**300000)),
    # G(n) = 2^n, whose roots 4 and 2 share the prime 2 with the step 8: one power as well
    ("eval --p 6 --q -8 --g0 1 --g1 2 -n -200000", 0, prints(Fraction, 1, 2**200000)),
    ('check --expr "F[n+1] = F[n] + F[n-1]" --grid n=-5..5', 0, None),
    ('check --expr "F[n] =\n ²"', 2,
     lambda out, err: err == "error: unexpected character '²' (line 2, column 2)\n"),
    # the DSL's rational (numerator, denominator) route, and sums whose first term is peeled
    ('check --expr "J[n+1] = J[n] + 2*J[n-1]" --grid n=-60..60', 0, None),
    ('check --expr "sum(j,0,k,F[m]*F[j]) = F[m]*(F[k+2]-1)" --grid k=-1..6,m=-3..3', 0, None),
    ('check --expr "2*sum(j,0,k,J[m]*J[j]) = J[m]*(J[k+2]-1)" --grid k=-1..6,m=-3..3', 0, None),
    # binom(k, j) over j from 0 as a running product; an exponent j-k < 0 keeps its sign test
    ('check --expr "sum(j,0,k,binom(k,j)*F[j]) = F[2*k]" --grid k=0..40', 0, None),
    ('check --expr "sum(j,0,k,2^(j-k)) = 2 - 2^(0-k)" --grid k=-2..6', 1,
     lambda out, err: json.loads(out)["counterexamples"] == [
         {"bindings": {"k": -2}, "lhs": "0", "rhs": "-2"}]),
    ('check --expr "J[n+1]=2*J[n]" --grid n=-3..-3', 1,
     lambda out, err: [json.loads(out)["counterexamples"][0][side] for side in ("lhs", "rhs")]
     == [str(walk(*JAC, -2)), str(2 * walk(*JAC, -3))]),
    # a sweep runs a line of cases per call: lines with holes, and an error at a later value
    ('check --expr "F[n+m] = F[n+1]*F[m] + F[n]*F[m-1]" --grid "m=-3..3,n=-3..3;m<=n;n!=0"', 0,
     lambda out, err: json.loads(out)["cases_checked"] == 24),
    ('check --expr "F[n]^(m-1)*F[n] = F[n]^(m)" --grid m=0..1,n=-2..2', 2,
     lambda out, err: err.endswith("(case m=0;n=0)\n")),
    # kernel identities on rational terms, across many term-table keys on each side of 0
    (f"verify --identity sum-ordinary:1 {RAT_G_H} "
     "--grid a=0..1,b=-1..0,c=1,d=0..1,k=0..3,m=0..1,n=-60..60", 0, None),
    (f"verify --identity theorem1 {RAT_G_H} --grid a=-9..9,b=-1..1,c=0..1,d=0..1,m=-12..12,n=0",
     0, None),
    (f"verify --identity corollary {RAT_G_H} --grid a=-9..9,b=-9..9,m=-3..3,n=0", 0, None),
    # one core: verify skips the Z = 0 case, and the catalog checks it
    ("verify --identity sum-ordinary:1 --seq fibonacci --grid a=0,b=0,c=0,d=0,k=1,m=0,n=0 "
     "--format text", 0,
     lambda out, err: "cases: total=1 checked=0 skipped=1" in out.splitlines()),
    ("catalog run fib.sum.ordinary.1 --grid a=0,b=0,k=1,m=0,n=0 --format text", 0,
     lambda out, err: "cases: total=1 checked=1 skipped=0" in out.splitlines()),
    ("verify --identity lemma1 --seq fibonacci --h lucas --f1 3 --f2 -1 --rel-a 1 --rel-b 2", 0,
     None),
    # sum sweeps run a line of n at a time: a sign taken once per line over lines with holes,
    # and whole lines skipped (the rows at a = b = 0 have Z = 0)
    ('catalog run fib.sum.binomial.2 --grid "a=-2..1,b=-1..1,k=0..3,m=-1..1,n=-2..2;n!=0"', 0,
     lambda out, err: json.loads(out)["cases_checked"] == 576),
    ("verify --identity sum-binomial:1 --seq fibonacci "
     "--grid a=0..1,b=0..1,c=-1..1,d=0..1,k=0..2,m=-1..1,n=-2..2 --format text", 0,
     lambda out, err: "cases: total=1080 checked=600 skipped=480" in out.splitlines()),
    # the deepest trees the parser admits compile on this Python; a 101-term chain is refused
    (f'check --expr "{"+".join(["1"] * 100)} = 100"', 0, None),
    (f'check --expr "{"*".join(["J[n]"] * 99)} = J[n]^(99)" --grid n=-3..3', 0, None),
    (f'check --expr "{"+".join(["1"] * 101)} = 101"', 2,
     lambda out, err: "nested too deeply" in err),
] + [  # written without the json and csv modules, each as those modules write it
    (args + f" --format {fmt}", code, same)
    for fmt, same in (("json", json_as_stdlib), ("csv", csv_as_stdlib)) for args, code in [
        ('check --expr "sum(j,0,k,F[j]) = F[k+2]" --grid k=0..4', 1),
        ('check --expr "1=2"', 1), ("table --all --from -40 --to 40", 0)]
]


def failures(rows) -> list:
    """Run every row; print one line for each that fails, and return their CLI words."""
    failed = []
    for args, want, check in rows:
        try:
            code, out, err = cli(args)
            why = (f"exit {code}, want {want}: {err.strip()!r}" if code != want
                   else "unexpected output" if check and not check(out, err) else None)
        except Exception as exc:  # a timeout or unreadable output fails this row alone
            why = f"{type(exc).__name__}: {exc}"
        if why:
            print(f"FAIL {args!r}: {why}")
            failed.append(args)
    return failed


if __name__ == "__main__":
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # expected values of 10^5 digits are compared as text
    failed = failures(ROWS)
    print(f"{len(ROWS) - len(failed)} of {len(ROWS)} checks passed")
    sys.exit(1 if failed else 0)
