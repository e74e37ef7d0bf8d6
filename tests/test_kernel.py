"""Three-term identity kernel: single-case checks and grid verification.

Dual-route discipline: every formula checked here is also transcribed
literally on top of term_iterative_oracle (fresh values, plain Fraction
arithmetic), so the kernel's own term engine and caches are never the only
route to an expected value.
"""

import collections
import inspect
import itertools
import math
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from horadam import (
    DegeneracyError,
    DomainError,
    HoradamError,
    PreconditionError,
    ThreeTermRelation,
    UsageError,
    basis_coefficients,
    catalog_entry,
    catalog_list,
    catalog_run,
    check_identity,
    f_g,
    get_named,
    identity_variables,
    make_grid,
    make_sequence,
    parse_grid,
    run_grid,
    term_fn,
    term_iterative_oracle,
    verify_identity_grid,
)
from horadam import kernel
from horadam.kernel import IDENTITIES, IDENTITY_NAMES, identity_outcome
from horadam.sequences import _Terms, term_tables
from conftest import random_pair, sweep_routes

F = get_named("fibonacci")
L = get_named("lucas")
P = get_named("pell")
J = get_named("jacobsthal")

idx = st.integers(min_value=-5, max_value=5)


def _tables_of(seq):
    """term_tables over a new store of seq."""
    return term_tables(_Terms(seq))


def _oracle(seq):
    """Independent term accessor: fresh iterative computation, tiny local cache."""
    cache = {}

    def t(n: int) -> Fraction:
        if n not in cache:
            cache[n] = Fraction(term_iterative_oracle(seq, n))
        return cache[n]

    return t


def _fg_literal(t, u, v, s, tt) -> Fraction:
    return t(u - s) * t(v - tt) - t(u - tt) * t(v - s)


class TestKernelForm:
    @given(u=idx, v=idx, s=idx, t=idx)
    @settings(max_examples=60)
    def test_matches_literal_transcription(self, u, v, s, t):
        value = f_g(F, (u, v, s, t))
        assert type(value) is Fraction
        assert value == _fg_literal(_oracle(F), u, v, s, t)

    @given(u=idx, v=idx, s=idx, t=idx)
    @settings(max_examples=60)
    def test_antisymmetry(self, u, v, s, t):
        assert f_g(L, (u, v, s, t)) == -f_g(L, (v, u, s, t))
        assert f_g(L, (u, v, s, t)) == -f_g(L, (u, v, t, s))

    def test_vanishes_on_repeated_arguments(self):
        assert f_g(P, (3, 3, 1, 0)) == 0
        assert f_g(P, (4, 1, 2, 2)) == 0


class TestBasisCoefficients:
    def test_lucas_from_fibonacci_neighbors(self):
        # H(m) = G(m-1) + G(m+1) for the (fibonacci, lucas) pair
        l1, l2 = basis_coefficients(F, L, 0, 1, -1, 0, 1, verify_window=(-8, 8))
        assert (l1, l2) == (1, 1)

    def test_decomposition_reproduces_terms(self, rng):
        for _ in range(5):
            g, h = random_pair(rng)
            gt, ht = _oracle(g), _oracle(h)
            try:
                l1, l2 = basis_coefficients(g, h, 2, 0, 1, 0, 1)
            except DegeneracyError:
                continue
            for m in range(-4, 5):
                assert ht(2 + m) == l1 * gt(m) + l2 * gt(m - 1)

    def test_singular_system_rejected(self):
        with pytest.raises(DegeneracyError):
            basis_coefficients(F, L, 0, 0, 1, 2, 2)  # c == d

    def test_mismatched_recurrences_rejected(self):
        with pytest.raises(UsageError):
            basis_coefficients(F, P, 0, 0, 1, 0, 1)


class TestTheorem1:
    def test_case_report_shape(self):
        report = check_identity("theorem1", F, L, {"n": 1, "m": 2, "a": 0, "b": 1, "c": -1, "d": 2})
        assert report.identity == "theorem1"
        assert report.holds and report.cases_total == 1

    def test_missing_and_extra_variables_rejected(self):
        with pytest.raises(UsageError):
            check_identity("theorem1", F, L, {"n": 1, "m": 2, "a": 0, "b": 1, "c": -1})
        with pytest.raises(UsageError):
            check_identity(
                "theorem1", F, L, {"n": 1, "m": 2, "a": 0, "b": 1, "c": -1, "d": 2, "k": 0}
            )

    def test_mismatched_recurrences_rejected(self):
        with pytest.raises(UsageError):
            check_identity("theorem1", F, P, {"n": 0, "m": 0, "a": 0, "b": 1, "c": 0, "d": 1})

    @given(
        n=idx, m=idx,
        a=st.integers(-2, 2), b=st.integers(-2, 2),
        c=st.integers(-2, 2), d=st.integers(-2, 2),
    )
    @settings(max_examples=80)
    def test_outcome_matches_literal_transcription(self, n, m, a, b, c, d):
        gt, ht = _oracle(J), _oracle(J)
        outcome = identity_outcome("theorem1", J, J)
        lhs, rhs = outcome({"n": n, "m": m, "a": a, "b": b, "c": c, "d": d})
        assert lhs == _fg_literal(gt, d, c, b, a) * ht(n + m)
        assert rhs == (
            _fg_literal(gt, d, m, b, a) * ht(n + c)
            + _fg_literal(gt, c, m, a, b) * ht(n + d)
        )

    def test_degenerate_kernel_cases_still_hold(self):
        # c == d makes the lhs multiplier vanish; the relation must still balance
        for c in range(-2, 3):
            case = {"n": 2, "m": -1, "a": 0, "b": 1, "c": c, "d": c}
            report = check_identity("theorem1", F, L, case)
            assert report.holds

    def test_grid_over_named_pairs(self):
        grid = make_grid({v: (-1, 1) for v in ("a", "b", "c", "d", "m", "n")})
        for g, h in ((F, L), (P, get_named("pell-lucas")), (J, get_named("jacobsthal-lucas"))):
            report = verify_identity_grid("theorem1", g, h, grid)
            assert report.holds
            assert report.cases_checked == report.cases_total == 3 ** 6

    def test_grid_over_random_pairs(self, rng):
        grid = make_grid({v: (-1, 1) for v in ("a", "b", "c", "d", "m", "n")})
        for _ in range(3):
            g, h = random_pair(rng)
            assert verify_identity_grid("theorem1", g, h, grid).holds


class TestCorollary:
    @pytest.mark.parametrize("pair", ["fibonacci/lucas", "random"])
    def test_matches_literal_transcription(self, pair, rng):
        # the corollary's own statement, on oracle values
        g, h = random_pair(rng) if pair == "random" else (F, L)
        gt, ht = _oracle(g), _oracle(h)
        corollary = identity_outcome("corollary", g, h)
        g0 = gt(0)
        for n, m, a, b in itertools.product(range(-2, 3), repeat=4):
            literal_lhs = (gt(a - b) * gt(b - a) - g0 * g0) * ht(n + m)
            literal_rhs = (gt(b - a) * gt(m - b) - g0 * gt(m - a)) * ht(n + a) + (
                gt(a - b) * gt(m - a) - g0 * gt(m - b)
            ) * ht(n + b)
            assert corollary({"n": n, "m": m, "a": a, "b": b}) == (literal_lhs, literal_rhs)

    def test_equals_negated_theorem1_at_collapsed_shifts(self, rng):
        # the kernel evaluates the corollary this way, so this restates the
        # code; the literal transcription above is the independent check
        g, h = random_pair(rng)
        theorem = identity_outcome("theorem1", g, h)
        corollary = identity_outcome("corollary", g, h)
        for n in range(-3, 4):
            for m in range(-2, 3):
                for a in range(-2, 3):
                    for b in range(-2, 3):
                        case = {"n": n, "m": m, "a": a, "b": b}
                        t_lhs, t_rhs = theorem({**case, "c": a, "d": b})
                        c_lhs, c_rhs = corollary(case)
                        assert c_lhs == -t_lhs and c_rhs == -t_rhs

    def test_grid_over_named_pairs(self):
        grid = make_grid({"a": (-2, 2), "b": (-2, 2), "m": (-2, 2), "n": (-2, 2)})
        for g, h in ((F, L), (J, get_named("jacobsthal-lucas"))):
            report = verify_identity_grid("corollary", g, h, grid)
            assert report.holds and report.cases_checked == 5 ** 4

    def test_case_validation(self):
        with pytest.raises(UsageError):
            check_identity("corollary", F, L, {"n": 0, "m": 0, "a": 0})


def _default_rel(seq) -> ThreeTermRelation:
    return ThreeTermRelation(seq.params.p, seq.params.q, 1, 2)


class TestLemma1:
    def test_matches_literal_transcription(self):
        rel = ThreeTermRelation(Fraction(2), Fraction(3), 1, 2)
        x = make_sequence(2, 3, 1, 5)
        y = make_sequence(2, 3, 1, 5)
        xt, yt = _oracle(x), _oracle(y)
        outcome = identity_outcome("lemma1", x, y, rel=rel)
        for n in range(-3, 4):
            for k in range(0, 5):
                lhs, rhs = outcome({"n": n, "k": k})
                f1, f2, a, b = rel.f1, rel.f2, rel.a, rel.b
                literal_lhs = f2 * sum(
                    yt(n - k * a - b + a * j) / f1 ** j for j in range(k + 1)
                )
                literal_rhs = xt(n) / f1 ** k - f1 * xt(n - (k + 1) * a)
                # the kernel states the lemma multiplied through by f1^k
                assert (lhs, rhs) == (literal_lhs * f1 ** k, literal_rhs * f1 ** k)
                assert lhs == rhs

    def test_two_sequence_form(self):
        # F(n) = 2*F(n+1) - L(n) couples the two sequences with shifts (-1, 0)
        rel = ThreeTermRelation(2, -1, -1, 0)
        for n in (-4, 0, 3):
            for k in (0, 1, 4):
                assert check_identity("lemma1", F, L, {"n": n, "k": k}, rel).holds

    def test_standard_relation_form(self):
        report = check_identity("lemma1", L, L, {"n": -4, "k": 5}, _default_rel(L))
        assert report.holds

    def test_wrong_relation_rejected_up_front(self):
        with pytest.raises(PreconditionError):
            check_identity("lemma1", F, F, {"n": 0, "k": 2}, ThreeTermRelation(2, 1, 1, 2))

    def test_negative_k_rejected(self):
        with pytest.raises(DomainError):
            check_identity("lemma1", F, F, {"n": 0, "k": -1}, _default_rel(F))
        # Every summation identity, since the two sum evaluators check k themselves.
        for name in IDENTITY_NAMES:
            if "k" in identity_variables(name):
                case = dict.fromkeys(identity_variables(name), 0) | {"k": -1}
                with pytest.raises(DomainError, match="non-negative, got -1"):
                    check_identity(name, F, F if name.startswith("lemma") else L, case)

    def test_zero_weight_rejected(self):
        with pytest.raises(UsageError):
            ThreeTermRelation(0, 1, 1, 2)
        with pytest.raises(UsageError):
            ThreeTermRelation(1, 1, 2, 2)  # equal shifts


class TestLemma2:
    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_grid_on_named_sequences(self, variant):
        grid = make_grid({"k": (0, 5), "n": (-4, 4)})
        for seq in (F, P, J):
            report = verify_identity_grid(
                f"lemma2:{variant}", seq, seq, grid, rel=_default_rel(seq)
            )
            assert report.holds and report.cases_checked == 54

    def test_variant_validation(self):
        with pytest.raises(UsageError):
            check_identity("lemma2:4", F, F, {"n": 0, "k": 1}, _default_rel(F))

    def test_variant3_matches_literal_transcription(self):
        rel = _default_rel(J)
        xt = _oracle(J)
        outcome = identity_outcome("lemma2:3", J, J, rel=rel)
        f1, f2, a, b = rel.f1, rel.f2, rel.a, rel.b
        r = -Fraction(f1) / f2
        for n in range(-2, 3):
            for k in range(0, 4):
                lhs, rhs = outcome({"n": n, "k": k})
                step = a - b
                literal_lhs = sum(
                    xt(n - step * k + b + step * j) / r ** j for j in range(k + 1)
                )
                literal_rhs = f2 * xt(n) / r ** k + f1 * xt(n - (k + 1) * step)
                assert (lhs, rhs) == (literal_lhs * f1 ** k, literal_rhs * f1 ** k)


class TestLemma3:
    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_grid_on_named_sequences(self, variant):
        grid = make_grid({"k": (0, 5), "n": (-4, 4)})
        for seq in (L, get_named("pell-lucas"), get_named("jacobsthal-lucas")):
            report = verify_identity_grid(
                f"lemma3:{variant}", seq, seq, grid, rel=_default_rel(seq)
            )
            assert report.holds

    def test_variant1_matches_literal_transcription(self):
        rel = _default_rel(P)
        xt = _oracle(P)
        outcome = identity_outcome("lemma3:1", P, P, rel=rel)
        f1, f2, a, b = rel.f1, rel.f2, rel.a, rel.b
        for n in range(-2, 3):
            for k in range(0, 4):
                lhs, rhs = outcome({"n": n, "k": k})
                literal_lhs = sum(
                    math.comb(k, j)
                    * (Fraction(f1) / f2) ** j
                    * xt(n - b * k + (b - a) * j)
                    for j in range(k + 1)
                )
                literal_rhs = xt(n) / Fraction(f2) ** k
                assert (lhs, rhs) == (literal_lhs * f2 ** k, literal_rhs * f2 ** k)

    def test_wrong_relation_rejected(self):
        with pytest.raises(PreconditionError):
            check_identity("lemma3:1", F, F, {"n": 0, "k": 2}, ThreeTermRelation(1, 3, 1, 2))


_LEMMA_NAMES = ("lemma1", "lemma2:1", "lemma2:2", "lemma2:3", "lemma3:1", "lemma3:2", "lemma3:3")
small_rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)


class TestLemmasAtPowerRelations:
    """Every sequence X of the recurrence (p, q) satisfies
    X(n) = V(a)*X(n-a) - (-q)^a*X(n-2a), where V is the Lucas-type sequence
    with V(0) = 2, V(1) = p; each lemma must hold at that relation for every a
    and must reject the relation once one weight is perturbed."""

    @settings(max_examples=30, deadline=None)
    @given(
        p=small_rational, q=small_rational.filter(bool), a=st.integers(1, 3),
        x0=small_rational, x1=small_rational,
    )
    def test_lemmas_hold_and_reject_a_perturbed_weight(self, p, q, a, x0, x1):
        assume(x0 or x1)
        v = term_iterative_oracle(make_sequence(p, q, 2, p), a)
        assume(v != 0)
        x = make_sequence(p, q, x0, x1)
        y = make_sequence(p, q, x0, x1)  # a second object, which lemma1 reads as Y
        grid = make_grid({"k": (0, 3), "n": (-2, 2)})
        rel = ThreeTermRelation(v, -((-q) ** a), a, 2 * a)
        perturbed = ThreeTermRelation(v, 2 * rel.f2, a, 2 * a)
        for name in _LEMMA_NAMES:
            report = verify_identity_grid(name, x, y, grid, rel)
            assert report.holds and report.cases_checked == 20, name
            with pytest.raises(PreconditionError):
                verify_identity_grid(name, x, y, grid, perturbed)


class TestRelationAnchors:
    """A lemma outcome verifies each anchor of its relation once per sweep,
    however many cases apply the relation there."""

    LEMMAS = {
        "lemma1": ("telescope", False), "lemma2:1": ("telescope", False),
        "lemma2:2": ("telescope", True), "lemma2:3": ("mixed", False),
        "lemma3:1": ("binomial", False), "lemma3:2": ("backward", False),
        "lemma3:3": ("backward", True),
    }

    @pytest.mark.parametrize("name", _LEMMA_NAMES)
    def test_each_anchor_is_checked_once(self, name, monkeypatch):
        reads = collections.Counter()

        class Counting(_Terms):
            def value(self, i):
                reads[i] += 1
                return super().value(i)

        # The relation check reads the store's values; the sums read its term tables.
        monkeypatch.setattr(kernel, "_Terms", Counting)
        grid = make_grid({"k": (0, 6), "n": (-5, 5)})
        assert verify_identity_grid(name, J, J, grid).holds
        row, swapped = self.LEMMAS[name]
        a, b = (2, 1) if swapped else (1, 2)
        anchors = {s for k, n in itertools.product(range(7), range(-5, 6))
                   for s in kernel._LEMMAS[row].anchors(n, k, a, b)}
        # Checking anchor s reads X(s), X(s-a) and Y(s-b) once each.
        assert reads == collections.Counter(i for s in anchors for i in (s, s - a, s - b))


class TestSumOrdinary:
    def test_known_skip_case_variant1(self):
        # any case with f_g(d, m; b, a) = 0 and k >= 1 must be skipped;
        # m == d forces that kernel to vanish
        case = {"n": 0, "m": 1, "a": 0, "b": -1, "c": 0, "d": 1, "k": 2}
        assert f_g(F, (case["d"], case["m"], case["b"], case["a"])) == 0
        report = check_identity("sum-ordinary:1", F, L, case)
        assert report.cases_total == 1
        assert report.cases_skipped_precondition == 1
        assert report.cases_checked == 0
        assert report.holds  # vacuous

    def test_k_zero_never_skipped(self):
        case = {"n": 0, "m": 1, "a": 0, "b": -1, "c": 0, "d": 1, "k": 0}
        report = check_identity("sum-ordinary:1", F, L, case)
        assert report.cases_checked == 1 and report.holds

    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_grid_with_skip_accounting(self, variant):
        grid = make_grid(
            {"a": (-1, 1), "b": (-1, 1), "c": (-1, 1), "d": (-1, 1),
             "k": (0, 3), "m": (-1, 1), "n": (0, 0)}
        )
        report = verify_identity_grid(f"sum-ordinary:{variant}", F, L, grid)
        assert report.holds
        assert report.cases_checked + report.cases_skipped_precondition == report.cases_total
        assert report.cases_skipped_precondition < report.cases_total / 2

    def test_variant1_matches_literal_transcription(self, rng):
        g, h = random_pair(rng)
        gt, ht = _oracle(g), _oracle(h)
        outcome = identity_outcome("sum-ordinary:1", g, h)
        checked = 0
        for n in (-1, 0, 2):
            for (a, b, c, d) in ((0, 1, -1, 1), (1, -1, 0, 2), (0, 1, 0, 1)):
                for m in (-1, 0, 1, 2):
                    for k in (0, 1, 2, 3):
                        case = dict(n=n, m=m, a=a, b=b, c=c, d=d, k=k)
                        got = outcome(case)
                        A = _fg_literal(gt, d, c, b, a)
                        B = _fg_literal(gt, d, m, b, a)
                        C = _fg_literal(gt, c, m, a, b)
                        if k == 0:
                            expected = (
                                C * ht(n - (m - d)),
                                A * ht(n) - B * ht(n - (m - c)),
                            )
                        elif B == 0:
                            expected = None
                        else:
                            r = A / B
                            expected = (
                                C * sum(
                                    r ** j * ht(n - (m - c) * k - (m - d) + (m - c) * j)
                                    for j in range(k + 1)
                                ),
                                A ** (k + 1) / B ** k * ht(n)
                                - B * ht(n - (m - c) * (k + 1)),
                            )
                            # the kernel states the sum multiplied through by Z^k = B^k
                            expected = tuple(B ** k * side for side in expected)
                        assert got == expected, case
                        if expected is not None:
                            checked += 1
                            assert got[0] == got[1], case
        assert checked > 50


class TestSumBinomial:
    def test_known_skip_case_variant1(self):
        # variant 1 skips when f_g(c, m; a, b) = 0 (k >= 1); m == c forces it
        case = {"n": 0, "m": 1, "a": 0, "b": -1, "c": 1, "d": 0, "k": 2}
        assert f_g(F, (case["c"], case["m"], case["a"], case["b"])) == 0
        report = check_identity("sum-binomial:1", F, L, case)
        assert report.cases_skipped_precondition == 1

    def test_k_zero_reduces_to_trivial_equality(self):
        case = {"n": 3, "m": 1, "a": 0, "b": -1, "c": 1, "d": 0, "k": 0}
        report = check_identity("sum-binomial:1", F, L, case)
        assert report.cases_checked == 1 and report.holds

    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_grid_with_skip_accounting(self, variant):
        grid = make_grid(
            {"a": (-1, 1), "b": (-1, 1), "c": (-1, 1), "d": (-1, 1),
             "k": (0, 3), "m": (-1, 1), "n": (0, 0)}
        )
        report = verify_identity_grid(f"sum-binomial:{variant}", P, P, grid)
        assert report.holds
        assert report.cases_skipped_precondition < report.cases_total / 2

    def test_variant3_matches_literal_transcription(self, rng):
        g, h = random_pair(rng)
        gt, ht = _oracle(g), _oracle(h)
        outcome = identity_outcome("sum-binomial:3", g, h)
        for n in (-1, 1):
            for (a, b, c, d) in ((0, 1, -1, 1), (1, 0, 2, -1)):
                for m in (-1, 0, 1):
                    for k in (0, 1, 2):
                        case = dict(n=n, m=m, a=a, b=b, c=c, d=d, k=k)
                        got = outcome(case)
                        A = _fg_literal(gt, d, c, b, a)
                        B = _fg_literal(gt, d, m, b, a)
                        C = _fg_literal(gt, c, m, a, b)
                        if k == 0:
                            expected = (ht(n), ht(n))
                        elif B == 0:
                            expected = None
                        else:
                            r = -A / B
                            expected = (
                                sum(
                                    math.comb(k, j) * r ** j
                                    * ht(n + (c - d) * k + (m - c) * j)
                                    for j in range(k + 1)
                                ),
                                (-C / B) ** k * ht(n),
                            )
                            # the kernel states the sum multiplied through by Z^k = B^k
                            expected = tuple(B ** k * side for side in expected)
                        assert got == expected, case


class TestSkippedCasesBalance:
    """The kernel skips the sum cases with k >= 1 and Z = 0, because the
    paper's statements divide by Z; the division-free statements it evaluates
    must balance there too, so a route that never skips can check them."""

    # Each sum is a lemma row at Theorem 1's relation T = (A, B, C, m-c, m-d)
    # or at swap(T) = (A, C, B, m-d, m-c).
    SUMS = {
        "sum-ordinary:1": ("telescope", False), "sum-ordinary:2": ("telescope", True),
        "sum-ordinary:3": ("mixed", True), "sum-binomial:1": ("binomial", False),
        "sum-binomial:2": ("backward", False), "sum-binomial:3": ("backward", True),
    }

    @pytest.mark.parametrize("pair", ["fibonacci/lucas", "jacobsthal/jacobsthal-lucas", "random"])
    def test_division_free_sums_hold_where_z_vanishes(self, pair, rng):
        if pair == "random":
            g, h = random_pair(rng)
        else:
            g, h = (get_named(name) for name in pair.split("/"))
        gt, table = _oracle(g), _tables_of(h)
        outcomes = {name: identity_outcome(name, g, h) for name in self.SUMS}
        balanced = dict.fromkeys(outcomes, 0)
        for a, b, c, d, m in itertools.product(range(-1, 3), repeat=5):
            A, B, C = (
                _fg_literal(gt, d, c, b, a), _fg_literal(gt, d, m, b, a),
                _fg_literal(gt, c, m, a, b),
            )
            for name, (row, swapped) in self.SUMS.items():
                lemma = kernel._LEMMAS[row]
                values = lemma.roles(*((A, C, B, m - d, m - c) if swapped else (A, B, C, m - c, m - d)))
                if values[lemma.z_at] != 0:
                    continue
                for k in (1, 2, 3):
                    for n in (-1, 0, 1):
                        case = dict(n=n, m=m, a=a, b=b, c=c, d=d, k=k)
                        assert outcomes[name](case) is None, (name, case)
                        lhs, rhs = lemma.evaluate(table, table, n, k, *kernel._scaled_row(values))
                        assert lhs == rhs, (name, case)
                        balanced[name] += 1
        assert min(balanced.values()) > 0, balanced


# The Fraction Horner evaluators the integer ones replaced, kept as references:
# the same statements, with every product normalized as it is formed.


def _ordinary_sum_reference(st, rt, n, k, X, Y, Z, s, t, sign):
    base = n - s * k + t
    tot, y = 0, 1
    for j in range(k + 1):
        tot = tot * Z + y * st(base + s * j)
        y = y * Y
    rhs = y * rt(n) - Z ** (k + 1) * rt(n - s * (k + 1))
    return X * tot, (rhs if sign == 1 else -rhs)


def _binomial_sum_reference(st, rt, n, k, Y, Z, W, s, t):
    base = n + s * k
    tot, y = 0, 1
    for j in range(k + 1):
        tot = tot * Z + math.comb(k, j) * y * st(base + t * j)
        y = y * Y
    return tot, W ** k * rt(n)


small_rational = st.fractions(min_value=-6, max_value=6, max_denominator=6)
nonzero_rational = small_rational.filter(lambda x: x != 0)
weight = st.one_of(st.integers(-6, 6), small_rational)


@st.composite
def term_sequences(draw):
    """(sequence, whole): an integer sequence (integer p, g0, g1 and q = +-1), one
    with integer p, g0, g1 and |q| > 1 (a different power of q under each negative
    index), or a random rational one."""
    kind = draw(st.sampled_from(("whole", "q-power", "rational")))
    if kind == "rational":
        p, q = draw(small_rational), draw(nonzero_rational)
        g0, g1 = draw(small_rational), draw(nonzero_rational)
        return make_sequence(p, q, g0, g1), False
    p, q = draw(st.integers(-3, 3)), draw(st.sampled_from((1, -1) if kind == "whole" else (2, -3)))
    g0, g1 = draw(st.integers(-5, 5)), draw(st.integers(1, 5))
    return make_sequence(p, q, g0, g1), kind == "whole"


# With (s, t) = (1, 0) in the ordinary sum and (-1, 1) in the binomial one, the
# summed terms are J(-4), ..., J(-1), with the denominators 16, 8, 4 and 2.
_MIXED_DENOMINATORS = dict(st_=(J, False), rt_=(J, False), weights=(1, Fraction(1, 3), -2),
                           k=3, n=-1)
# A rational sequence whose tables' scales differ from Jacobsthal's at every key.
RATIONAL = make_sequence(Fraction(3, 2), Fraction(2, 3), Fraction(1, 2), -3)


class TestIntegerSumEvaluators:
    """The integer evaluators, reading each sequence from its term tables, against
    the Fraction references: equal pairs, and ints whenever the weights are ints
    and the sequences whole. Whole and non-whole sequences share one path, and
    two different sequences are read at their own scales."""

    @given(
        st_=term_sequences(), rt_=term_sequences(), weights=st.tuples(weight, weight, weight),
        k=st.integers(0, 6), n=idx, s=st.integers(-3, 3), t=st.integers(-3, 3),
        sign=st.sampled_from((1, -1)),
    )
    @example(**_MIXED_DENOMINATORS, s=1, t=0, sign=-1)
    @settings(max_examples=300, deadline=None)
    def test_ordinary(self, st_, rt_, weights, k, n, s, t, sign):
        (sg, s_int), (rg, r_int) = st_, rt_
        row = kernel._scaled_row((*weights, s, t, sign))
        got = kernel._ordinary_sum(_tables_of(sg), _tables_of(rg), n, k, *row)
        assert got == _ordinary_sum_reference(term_fn(sg), term_fn(rg), n, k, *weights, s, t, sign)
        if s_int and r_int and all(type(w) is int for w in weights):
            assert all(type(side) is int for side in got)

    @given(
        st_=term_sequences(), rt_=term_sequences(), weights=st.tuples(weight, weight, weight),
        k=st.integers(0, 6), n=idx, s=st.integers(-3, 3), t=st.integers(-3, 3),
    )
    @example(**_MIXED_DENOMINATORS, s=-1, t=1)
    @settings(max_examples=300, deadline=None)
    def test_binomial(self, st_, rt_, weights, k, n, s, t):
        (sg, s_int), (rg, r_int) = st_, rt_
        row = kernel._scaled_row((*weights, s, t))
        got = kernel._binomial_sum(_tables_of(sg), _tables_of(rg), n, k, *row)
        assert got == _binomial_sum_reference(term_fn(sg), term_fn(rg), n, k, *weights, s, t)
        if s_int and r_int and all(type(w) is int for w in weights):
            assert all(type(side) is int for side in got)

    def test_two_sequences_at_different_scales(self):
        weights = (2, Fraction(-1, 3), Fraction(3, 2))
        jt, rt = _tables_of(J), _tables_of(RATIONAL)
        ja, ra = _oracle(J), _oracle(RATIONAL)
        for n in range(-9, 10):
            assert jt(n - 9, n + 9)[1] != rt(n - 9, n + 9)[1]
            for k in range(5):
                got = kernel._ordinary_sum(jt, rt, n, k, *kernel._scaled_row((*weights, 2, -1, 1)))
                assert got == _ordinary_sum_reference(ja, ra, n, k, *weights, 2, -1, 1), (n, k)
                got = kernel._binomial_sum(rt, jt, n, k, *kernel._scaled_row((*weights, -1, 2)))
                assert got == _binomial_sum_reference(ra, ja, n, k, *weights, -1, 2), (n, k)


@st.composite
def sequence_pairs(draw):
    """(g, h, whole): two sequences on one recurrence, either both whole (integer
    p and initial terms, q = +-1) or on a random rational (p, q)."""
    whole = draw(st.booleans())
    if whole:
        p, q = draw(st.integers(-3, 3)), draw(st.sampled_from((1, -1)))
        inits, nonzero = st.integers(-5, 5), st.integers(1, 5)
    else:
        p, q = draw(small_rational), draw(nonzero_rational)
        inits, nonzero = small_rational, nonzero_rational
    g = make_sequence(p, q, draw(inits), draw(nonzero))
    h = make_sequence(p, q, draw(inits), draw(nonzero))
    return g, h, whole


class TestTheorem1OnIntegers:
    """Theorem 1's core and the corollary clear G's and H's terms to integers;
    both must equal the literal Fraction statements over oracle terms, and be
    ints on whole pairs."""

    @given(
        pair=sequence_pairs(), a=st.integers(-3, 3), b=st.integers(-3, 3),
        c=st.integers(-3, 3), d=st.integers(-3, 3), m=idx, n=idx,
    )
    @settings(max_examples=300, deadline=None)
    def test_core_and_corollary_match_literal_statements(self, pair, a, b, c, d, m, n):
        g, h, whole = pair
        gt, ht = _oracle(g), _oracle(h)
        theorem = IDENTITIES["theorem1"].core(g, h).positional(a, b, c, d, m, n)
        assert theorem == (
            _fg_literal(gt, d, c, b, a) * ht(n + m),
            _fg_literal(gt, d, m, b, a) * ht(n + c) + _fg_literal(gt, c, m, a, b) * ht(n + d),
        )
        corollary = identity_outcome("corollary", g, h)({"a": a, "b": b, "m": m, "n": n})
        g0 = gt(0)
        assert corollary == (
            (gt(a - b) * gt(b - a) - g0 * g0) * ht(n + m),
            (gt(b - a) * gt(m - b) - g0 * gt(m - a)) * ht(n + a)
            + (gt(a - b) * gt(m - a) - g0 * gt(m - b)) * ht(n + b),
        )
        if whole:
            assert all(type(side) is int for side in (*theorem, *corollary))

    def test_rational_pair_across_table_keys(self):
        # n + m runs over -52..52, so H's reads cross several table keys on each side
        # of 0; the last three rows put G's six indices past +-9 and out to +-21.
        g, h = make_sequence(Fraction(3, 2), Fraction(2, 3), 2, -3), RATIONAL
        gt, ht = _oracle(g), _oracle(h)
        pair = IDENTITIES["theorem1"].core(g, h).positional
        rows = [(*abcd, m) for abcd in ((1, 0, -1, 1), (0, -1, 2, 0), (2, 1, -2, -1))
                for m in (-2, 0, 2)]
        for a, b, c, d, m in rows + [(10, -9, -8, 11, 12), (-10, 9, 8, -11, -12), (0, 9, -9, 0, 0)]:
            A = _fg_literal(gt, d, c, b, a)
            B, C = _fg_literal(gt, d, m, b, a), _fg_literal(gt, c, m, a, b)
            for n in range(-40, 41):
                expected = (A * ht(n + m), B * ht(n + c) + C * ht(n + d))
                assert pair(a, b, c, d, m, n) == expected, (a, b, c, d, m, n)


class TestRelationMemo:
    """Outcomes memoize Theorem 1's relation per (a, b, c, d, m) in a bounded
    cache; reusing one closure must give what a fresh closure gives."""

    NAMES = ("theorem1",) + tuple(name for name in IDENTITY_NAMES if name.startswith("sum-"))

    @pytest.mark.parametrize("name", NAMES)
    def test_reused_closure_in_shuffled_order_matches_fresh_ones(self, name, rng):
        g, h = random_pair(rng)
        ranges = {v: (-1, 1) for v in identity_variables(name)}
        if "k" in ranges:
            ranges.update(k=(0, 2), n=(0, 0))
        cases = list(make_grid(ranges).cases())
        rng.shuffle(cases)
        reused = identity_outcome(name, g, h)
        for case in cases:
            assert reused(case) == identity_outcome(name, g, h)(case), case

    @pytest.mark.parametrize("name", NAMES)
    def test_grid_wider_than_the_memo(self, name):
        # 7^4 distinct (a, b, c, d, m), more than the memo holds.
        ranges = {v: (-3, 3) for v in "abcd"}
        ranges.update(m=(0, 0), n=(0, 0))
        if name != "theorem1":
            ranges.update(k=(0, 1))
        assert 7 ** 4 > kernel._MEMO_SIZE
        grid = make_grid(ranges)
        fresh = run_grid(name, grid, lambda case: identity_outcome(name, F, L)(case))
        assert verify_identity_grid(name, F, L, grid) == fresh


SUM_NAMES = tuple(name for name in IDENTITY_NAMES if name.startswith("sum-"))
MEMO_PAIRS = {
    "fibonacci-lucas": (F, L),
    "jacobsthal": (J, get_named("jacobsthal-lucas")),
    "rational": (make_sequence(Fraction(3, 2), Fraction(2, 3), 2, -3), RATIONAL),
}
CATALOG_SUM_IDS = [entry.id for entry in catalog_list() if entry.identity.startswith("sum-")]


def _per_case(outcome, grid) -> list:
    """Each case's (lhs, rhs) or None, or the error it raised as (type, message)."""
    results = []
    for values in grid.values():
        try:
            results.append(outcome.positional(*values))
        except HoradamError as exc:
            results.append((type(exc), str(exc)))
    return results


def _rendered(report) -> tuple:
    return tuple(report.render(fmt) for fmt in ("json", "csv", "text"))


class TestSumResultMemo:
    """A sum core stores the result of each distinct (evaluator arguments, k, n), up to
    kernel._RESULTS_CAP of them, in dicts that each core call builds afresh. With the
    cap at 0 nothing is stored: that sweep is the reference."""

    # k = -1 raises DomainError, which is never stored; the reports need k >= 0.
    CASES = parse_grid("a=-1..1,b=0..1,c=-1..1,d=0..1,k=-1..3,m=-1..1,n=-1..1")
    GRID = parse_grid("a=-1..1,b=0..1,c=-1..1,d=0..1,k=0..3,m=-1..1,n=-1..1")
    CATALOG_CASES = parse_grid("a=-2..1,b=-1..1,k=-1..3,m=-1..1,n=-1..1")
    CATALOG_GRID = parse_grid("a=-2..1,b=-1..1,k=0..3,m=-1..1,n=-1..1")

    def sweep(self, name: str, pair: str, cases=CASES, grid=GRID) -> tuple:
        g, h = MEMO_PAIRS[pair]
        return (_per_case(identity_outcome(name, g, h), cases),
                _rendered(verify_identity_grid(name, g, h, grid)))

    @pytest.mark.parametrize("pair", sorted(MEMO_PAIRS))
    @pytest.mark.parametrize("name", SUM_NAMES)
    def test_every_case_and_report_equal_the_unmemoized_sweep(self, name, pair, monkeypatch):
        memoized = self.sweep(name, pair)
        monkeypatch.setattr(kernel, "_RESULTS_CAP", 0)
        assert memoized == self.sweep(name, pair)

    # Lines with holes: n != 0 leaves (-2, -1, 1, 2), and n > m lines of 1 to 3 values whose
    # first value moves with m, so that a translated row meets lines of other lengths.
    HOLES = ("a=-1..1,b=0..1,c=-1..1,d=0..1,k=0..2,m=-1..1,n=-2..2;n!=0",
             "a=-1..1,b=0..1,c=-1..1,d=0..1,k=0..2,m=-1..1,n=-2..2;n>m")
    # k = -1 raises: a != k puts its first line after lines that pass or are skipped, and
    # n > m starts that line at n = 0.
    RAISING = "a=-1..1,b=0..1,c=-1..1,d=0..1,k=-1..2,m=-1..1,n=-2..2;a!=k;n>m"

    @pytest.mark.parametrize("pair", sorted(MEMO_PAIRS))
    @pytest.mark.parametrize("name", SUM_NAMES)
    def test_lines_cases_and_unstored_lines_give_one_sweep(self, name, pair, monkeypatch):
        g, h = MEMO_PAIRS[pair]
        make = partial(identity_outcome, name, g, h)
        for text in self.HOLES:
            grid = parse_grid(text)
            lines, cases, unstored = sweep_routes(name, make, grid, monkeypatch)
            assert lines == cases == unstored, text
            # whole lines are skipped (the rows at a = b = 0 have Z = 0), and only at k > 0
            skipped = [values for values, result in zip(grid.values(), lines[1]) if result is None]
            assert skipped and all(values[4] > 0 for values in skipped), text
        lines, cases, unstored = sweep_routes(name, make, parse_grid(self.RAISING), monkeypatch)
        assert lines == cases == unstored
        assert lines[0] == (DomainError, "summation bound k must be non-negative, got -1"
                            " (case a=0;b=0;c=-1;d=0;k=-1;m=-1;n=0)")

    @pytest.mark.parametrize("entry_id", CATALOG_SUM_IDS)
    def test_catalog_sum_entries_equal_the_unmemoized_sweep(self, entry_id, monkeypatch):
        entry = catalog_entry(entry_id)

        def sweep():
            return (_per_case(entry.make_outcome(), self.CATALOG_CASES),
                    _rendered(catalog_run(entry_id, self.CATALOG_GRID)))

        memoized = sweep()
        monkeypatch.setattr(kernel, "_RESULTS_CAP", 0)
        assert memoized == sweep()

    @pytest.mark.parametrize("name", SUM_NAMES)
    def test_a_full_memo_changes_nothing(self, name, monkeypatch):
        # Every row at a = b = 0 has Z = 0, so its cases are skipped and store nothing:
        # keys fills before results does, and later rows are keyed by their arguments.
        full = parse_grid("a=0..1,b=0..1,c=-1..1,d=0..1,k=1..3,m=-1..1,n=-1..1")
        monkeypatch.setattr(kernel, "_RESULTS_CAP", 0)
        reference = self.sweep(name, "rational", full, full)
        monkeypatch.setattr(kernel, "_RESULTS_CAP", 5)
        assert self.sweep(name, "rational", full, full) == reference

    @staticmethod
    def install(monkeypatch, name: str, wrap) -> None:
        """Bind the identity's core to wrap(its evaluator) instead of its evaluator."""
        spec = IDENTITIES[name]
        lemma, swapped = spec.core.args
        core = partial(kernel._sum_pair, lemma._replace(evaluate=wrap(lemma.evaluate)), swapped)
        monkeypatch.setitem(IDENTITIES, name, spec._replace(core=core))

    @pytest.mark.parametrize("pair", ["fibonacci-lucas", "rational"])
    @pytest.mark.parametrize("name", SUM_NAMES)
    def test_counterexamples_are_reported_alike(self, name, pair, monkeypatch):
        # Off by one on the right at odd k, so that stored results hold both equal sides
        # (one Fraction for a rational pair) and unequal ones, and the reports list them.
        def off_by_one(evaluate):
            def wrapped(st_, rt_, n, k, *values):
                lhs, rhs = evaluate(st_, rt_, n, k, *values)
                return (lhs, rhs + 1) if k % 2 else (lhs, rhs)
            return wrapped

        self.install(monkeypatch, name, off_by_one)
        g, h = MEMO_PAIRS[pair]
        memoized = verify_identity_grid(name, g, h, self.GRID)
        assert 0 < len(memoized.counterexamples) < memoized.cases_checked
        monkeypatch.setattr(kernel, "_RESULTS_CAP", 0)
        reference = verify_identity_grid(name, g, h, self.GRID)
        assert memoized == reference and _rendered(memoized) == _rendered(reference)

    @pytest.mark.parametrize("name", SUM_NAMES)
    def test_each_distinct_input_is_evaluated_once_per_sweep(self, name, monkeypatch):
        calls = []

        def recording(evaluate):
            def wrapped(st_, rt_, n, k, *values):
                calls.append((values, k, n))
                return evaluate(st_, rt_, n, k, *values)
            return wrapped

        self.install(monkeypatch, name, recording)

        def sweep() -> tuple:
            calls.clear()
            return verify_identity_grid(name, F, L, self.GRID), list(calls)

        with monkeypatch.context() as unmemoized:
            unmemoized.setattr(kernel, "_RESULTS_CAP", 0)
            reference, every = sweep()
        # one evaluation per checked case, none for a skipped one; the grid repeats inputs
        assert len(every) == reference.cases_checked
        assert reference.cases_skipped_precondition > 0
        distinct = set(every)
        assert len(distinct) < len(every)
        for _ in range(2):  # each sweep builds a fresh core, so nothing carries over
            report, evaluated = sweep()
            assert report == reference
            assert len(evaluated) == len(distinct) and set(evaluated) == distinct

    def test_both_stores_stay_within_the_cap(self, monkeypatch):
        # The grid meets far more than 5 distinct rows and (row, k, n) inputs. The cap counts
        # results, not lines: one case at a time stores 5 lines of one, and lines of 3 one.
        monkeypatch.setattr(kernel, "_RESULTS_CAP", 5)
        for lines, stored, results in ((False, 5, 5), (True, 1, 3)):
            outcome = identity_outcome("sum-ordinary:1", F, L)
            if lines:
                for prefix, last in self.GRID.lines(64):
                    outcome.line(prefix, last, [])
            else:
                for values in self.GRID.values():
                    outcome.positional(*values)
            stores = inspect.getclosurevars(outcome.line).nonlocals
            keys = inspect.getclosurevars(inspect.unwrap(stores["row"])).nonlocals["keys"]
            assert len(keys) == 5
            assert len(stores["results"]) == stored
            assert sum(map(len, stores["results"].values())) == results

    def test_rows_that_differ_only_in_scale_keep_their_own_results(self, monkeypatch):
        # A translated row has the same weights and shifts, and here a scale twice as large
        # where a is odd; a key that left out the scale would hand it the other's results.
        relation = kernel._theorem1

        def rescaled(table, a, b, c, d, m):
            *row, scale = relation(table, a, b, c, d, m)
            return (*row, scale * (1 + a % 2))

        monkeypatch.setattr(kernel, "_theorem1", rescaled)
        for name in SUM_NAMES:
            memoized = _per_case(identity_outcome(name, F, L), self.GRID)
            with monkeypatch.context() as unmemoized:
                unmemoized.setattr(kernel, "_RESULTS_CAP", 0)
                assert _per_case(identity_outcome(name, F, L), self.GRID) == memoized, name


class TestIdentityDispatch:
    def test_names_cover_all_checkers(self):
        assert set(IDENTITY_NAMES) == {
            "theorem1", "corollary", "lemma1",
            "lemma2:1", "lemma2:2", "lemma2:3",
            "lemma3:1", "lemma3:2", "lemma3:3",
            "sum-ordinary:1", "sum-ordinary:2", "sum-ordinary:3",
            "sum-binomial:1", "sum-binomial:2", "sum-binomial:3",
        }

    def test_identity_variables(self):
        assert identity_variables("theorem1") == ("a", "b", "c", "d", "m", "n")
        assert identity_variables("corollary") == ("a", "b", "m", "n")
        assert identity_variables("lemma1") == ("k", "n")
        assert identity_variables("sum-ordinary:2") == ("a", "b", "c", "d", "k", "m", "n")
        with pytest.raises(UsageError):
            identity_variables("nosuch")

    @pytest.mark.parametrize("pair", ["fibonacci-lucas", "rational"])
    @pytest.mark.parametrize("name", IDENTITY_NAMES)
    def test_one_core_per_identity(self, name, pair):
        # identity_outcome is core(g, h, rel) read from a dict case; with skips=False
        # the core skips nothing, and only the sums skip at all, at k > 0.
        if pair == "rational":
            g = make_sequence(Fraction(3, 2), Fraction(2, 3), 2, -3)
            h = make_sequence(Fraction(3, 2), Fraction(2, 3), Fraction(-1, 2), 3)
        else:
            g, h = F, L
        spec, rel = IDENTITIES[name], None
        if spec.takes_relation:  # the default relation holds when Y is X; other lemmas ignore h
            rel = ThreeTermRelation(g.params.p, g.params.q, 1, 2)
            h = g if spec.takes_companion else h
        cases = list(parse_grid(spec.default_grid).cases())
        outcome = identity_outcome(name, g, h, rel)
        skipping, full = spec.core(g, h, rel).positional, spec.core(g, h, rel, False).positional
        skipped = 0
        for case in cases[:: max(1, len(cases) // 600)]:
            values = tuple(case[v] for v in spec.variables)
            result, unskipped = skipping(*values), full(*values)
            assert result == outcome(case), case
            assert unskipped is not None, case
            if result is None:
                assert name.startswith("sum-") and case["k"] > 0, case
                skipped += 1
            else:
                assert result == unskipped, case
        if name.startswith("sum-"):
            assert skipped > 0  # the cut grid still meets Z = 0

    def test_grid_variable_mismatch_rejected(self):
        grid = make_grid({"n": (0, 1)})
        with pytest.raises(UsageError):
            verify_identity_grid("theorem1", F, L, grid)
        extra = make_grid({"k": (0, 1), "n": (0, 1), "z": (0, 1)})
        with pytest.raises(UsageError):
            verify_identity_grid("lemma1", F, F, extra)
