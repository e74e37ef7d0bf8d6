"""Shared fixtures and reference data for the test suite."""

import random
import sys
from fractions import Fraction

import pytest

from horadam import HoradamError, RecurrenceParams, Sequence, kernel, make_sequence
from horadam.report import Outcome, run_grid

# A few tests print integers with tens of thousands of digits.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

# Reference values for the six named sequences at n = -5..8, in canonical
# rational text. Column order: fibonacci, lucas, pell, pell-lucas,
# jacobsthal, jacobsthal-lucas.
TABLE_COLUMNS = (
    "fibonacci",
    "lucas",
    "pell",
    "pell-lucas",
    "jacobsthal",
    "jacobsthal-lucas",
)

EXPECTED_TABLE = {
    -5: ("5", "-11", "29", "-82", "11/32", "-31/32"),
    -4: ("-3", "7", "-12", "34", "-5/16", "17/16"),
    -3: ("2", "-4", "5", "-14", "3/8", "-7/8"),
    -2: ("-1", "3", "-2", "6", "-1/4", "5/4"),
    -1: ("1", "-1", "1", "-2", "1/2", "-1/2"),
    0: ("0", "2", "0", "2", "0", "2"),
    1: ("1", "1", "1", "2", "1", "1"),
    2: ("1", "3", "2", "6", "1", "5"),
    3: ("2", "4", "5", "14", "3", "7"),
    4: ("3", "7", "12", "34", "5", "17"),
    5: ("5", "11", "29", "82", "11", "31"),
    6: ("8", "18", "70", "198", "21", "65"),
    7: ("13", "29", "169", "478", "43", "127"),
    8: ("21", "47", "408", "1154", "85", "257"),
}


def random_rational(rng: random.Random, allow_zero: bool = True) -> Fraction:
    """Small random rational; denominators kept tiny so grids stay fast."""
    num = rng.randint(-6, 6)
    if not allow_zero:
        while num == 0:
            num = rng.randint(-6, 6)
    den = rng.choice((1, 1, 1, 2, 3))
    return Fraction(num, den)


def random_sequence(rng: random.Random, params: RecurrenceParams = None) -> Sequence:
    """Random sequence with nonzero q and not both initial terms zero."""
    if params is None:
        p = random_rational(rng)
        q = random_rational(rng, allow_zero=False)
    else:
        p, q = params.p, params.q
    g0 = random_rational(rng)
    g1 = random_rational(rng)
    while g0 == 0 and g1 == 0:
        g1 = random_rational(rng)
    return make_sequence(p, q, g0, g1)


def sweep_routes(identity: str, make, grid, monkeypatch) -> list:
    """What a sweep of a line outcome, make() built afresh, gives by three routes: its line
    function, its positional function one case at a time, and its line function with
    kernel._RESULTS_CAP = 0, so that nothing is stored. Each route gives its report rendered as
    json, csv and text, or the error it raised as (type, text); then each case's (lhs, rhs), or
    None, up to the first error, and that error, read again from the same outcome."""
    routes = []
    for per_case, cap in ((False, kernel._RESULTS_CAP), (True, kernel._RESULTS_CAP), (False, 0)):
        with monkeypatch.context() as patched:
            patched.setattr(kernel, "_RESULTS_CAP", cap)
            outcome = make()
            if per_case:
                outcome = Outcome(outcome.positional, outcome.names)
            cases = []
            try:
                report = run_grid(identity, grid, outcome)
                report = tuple(report.render(fmt) for fmt in ("json", "csv", "text"))
            except HoradamError as exc:
                report = type(exc), str(exc)
            try:
                if per_case:
                    for values in grid.values():
                        cases.append(outcome.positional(*values))
                else:
                    for prefix, last in grid.lines(64):
                        if outcome.line(prefix, last, cases) is None:
                            cases += [None] * len(last)
            except HoradamError as exc:
                cases.append((type(exc), str(exc)))
        routes.append((report, cases))
    return routes


def random_pair(rng: random.Random) -> tuple:
    """Two random sequences sharing one random recurrence."""
    g = random_sequence(rng)
    h = random_sequence(rng, params=g.params)
    return g, h


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260825)
