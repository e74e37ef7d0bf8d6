"""Catalog registry: metadata integrity, native checkers, and literal spot checks."""

import inspect
from fractions import Fraction

import pytest

from horadam import (
    UsageError,
    catalog_entry,
    catalog_list,
    catalog_run,
    default_registry,
    eval_expr,
    get_named,
    make_grid,
    make_sequence,
    parse_grid,
    parse_identity,
    term_iterative_oracle,
)
from horadam.kernel import IDENTITIES

ALL_ENTRIES = catalog_list()
ALL_IDS = [entry.id for entry in ALL_ENTRIES]


def _oracle(seq):
    cache = {}

    def t(n: int) -> Fraction:
        if n not in cache:
            cache[n] = Fraction(term_iterative_oracle(seq, n))
        return cache[n]

    return t


class TestRegistry:
    def test_at_least_forty_entries(self):
        assert len(ALL_ENTRIES) >= 40
        assert len(ALL_ENTRIES) == 47

    def test_listing_is_sorted_and_unique(self):
        assert ALL_IDS == sorted(ALL_IDS)
        assert len(set(ALL_IDS)) == len(ALL_IDS)

    def test_every_family_represented(self):
        families = {entry.family for entry in ALL_ENTRIES}
        assert families == {"fibonacci", "pell", "jacobsthal"}

    def test_metadata_complete(self):
        for entry in ALL_ENTRIES:
            assert entry.description, entry.id
            assert entry.dsl_texts, entry.id
            grid = parse_grid(entry.default_grid)
            assert grid.var_names == entry.free_vars, entry.id

    def test_expected_shape(self):
        # 15 identities per family plus the two Pell/Pell-Lucas pairings
        for prefix in ("fib", "pell", "jac"):
            count = sum(1 for i in ALL_IDS if i.startswith(prefix + "."))
            assert count >= 15, prefix
        assert "pell.double-shift-lucas" in ALL_IDS
        assert "pell.halton-lucas" in ALL_IDS

    def test_substitutions_take_the_free_variables_in_order(self):
        # Substitutions and signs are called with the binding's values by position.
        for entry in ALL_ENTRIES:
            for fn in entry.substitutions + ((entry.sign,) if entry.sign else ()):
                assert tuple(inspect.signature(fn).parameters) == entry.free_vars, entry.id
            assert entry.identity in IDENTITIES, entry.id

    def test_lookup_unknown_id_suggests(self):
        with pytest.raises(UsageError, match="did you mean 'fib.catalan'"):
            catalog_entry("fib.catalann")
        with pytest.raises(UsageError):
            catalog_entry("zzz")


class TestRun:
    @pytest.mark.parametrize("entry_id", ALL_IDS)
    def test_entry_passes_small_grid(self, entry_id):
        entry = catalog_entry(entry_id)
        ranges = {v: (0, 2) if v == "k" else (-2, 2) for v in entry.free_vars}
        report = catalog_run(entry_id, make_grid(ranges))
        assert report.holds, report.counterexamples[:1]
        assert report.cases_checked == report.cases_total  # never skips

    @pytest.mark.parametrize("entry_id", [e.id for e in ALL_ENTRIES if e.generalized])
    def test_generalized_initials_accepted(self, entry_id):
        # The non-integer companion sends the sums through the clearing path
        # of the kernel's sum rows.
        entry = catalog_entry(entry_id)
        grid = make_grid({v: (0, 2) if v == "k" else (-1, 1) for v in entry.free_vars})
        for initials in ((2, 1), (3, -5), (Fraction(1, 2), Fraction(-3, 7))):
            report = catalog_run(entry_id, grid, initials)
            assert report.holds, initials
            assert report.cases_checked == report.cases_total

    def test_initials_rejected_for_fixed_entries(self):
        with pytest.raises(UsageError):
            catalog_run("fib.catalan", None, (2, 1))
        with pytest.raises(UsageError):
            catalog_run("pell.halton-lucas", None, (0, 1))

    def test_grid_variable_mismatch_rejected(self):
        with pytest.raises(UsageError):
            catalog_run("fib.catalan", make_grid({"n": (0, 2)}))
        with pytest.raises(UsageError):
            catalog_run("fib.catalan", make_grid({"n": (0, 2), "m": (0, 2), "k": (0, 1)}))

    def test_grid_text_accepted(self):
        report = catalog_run("fib.catalan", "m=0..3,n=0..3")
        assert report.holds and report.cases_total == 16

    def test_default_grid_used_when_omitted(self):
        report = catalog_run("pell.halton-lucas")
        assert report.grid == catalog_entry("pell.halton-lucas").default_grid
        assert report.holds


class TestCompanionDiffersFromBase:
    """With H = (3, -5), unlike the base of any family, a substitution that
    swapped the G and H roles would change the native values."""

    @pytest.mark.parametrize("entry_id", [e.id for e in ALL_ENTRIES if e.generalized])
    def test_native_values_equal_dsl_values(self, entry_id):
        entry = catalog_entry(entry_id)
        base = get_named(entry.family)
        registry = dict(default_registry())
        registry["H"] = make_sequence(base.params.p, base.params.q, 3, -5)
        ast = parse_identity(entry.dsl_texts[0])
        outcome = entry.make_outcome(3, -5)
        grid = make_grid({v: (0, 2) if v == "k" else (-2, 1) for v in entry.free_vars})
        for case in grid.cases():
            dsl_pair = (eval_expr(ast.lhs, case, registry), eval_expr(ast.rhs, case, registry))
            assert outcome(case) == dsl_pair, (entry_id, case)


class TestLiteralSpotChecks:
    """Transcribe a few entries directly from their classical statements."""

    def test_fib_catalan(self):
        t = _oracle(get_named("fibonacci"))
        outcome = catalog_entry("fib.catalan").make_outcome()
        for n in range(-4, 5):
            for m in range(-4, 5):
                lhs, rhs = outcome({"n": n, "m": m})
                assert lhs == t(n - m) * t(n + m)
                assert rhs == t(n) ** 2 + Fraction(-1) ** ((n + m + 1) % 2) * t(m) ** 2

    def test_jac_catalan_carries_power_of_two(self):
        t = _oracle(get_named("jacobsthal"))
        outcome = catalog_entry("jac.catalan").make_outcome()
        for n in range(-3, 4):
            for m in range(-3, 4):
                lhs, rhs = outcome({"n": n, "m": m})
                sign = 1 if (n + m + 1) % 2 == 0 else -1
                assert lhs == t(n - m) * t(n + m)
                assert rhs == t(n) ** 2 + sign * Fraction(2) ** (n - m) * t(m) ** 2
                assert lhs == rhs

    def test_fib_vajda8_with_custom_companion(self):
        t = _oracle(get_named("fibonacci"))
        companion = make_sequence(1, 1, 3, -5)
        ht = _oracle(companion)
        outcome = catalog_entry("fib.vajda8").make_outcome(3, -5)
        for n in range(-3, 4):
            for m in range(-3, 4):
                lhs, rhs = outcome({"n": n, "m": m})
                assert lhs == ht(n + m)
                assert rhs == t(m) * ht(n + 1) + t(m - 1) * ht(n)

    def test_jac_vajda8_weighted_by_q(self):
        t = _oracle(get_named("jacobsthal"))
        ht = _oracle(make_sequence(1, 2, 2, 1))
        outcome = catalog_entry("jac.vajda8").make_outcome(2, 1)
        for n in range(-3, 4):
            for m in range(-3, 4):
                lhs, rhs = outcome({"n": n, "m": m})
                assert lhs == ht(n + m)
                assert rhs == t(m) * ht(n + 1) + 2 * t(m - 1) * ht(n)
                assert lhs == rhs

    def test_pell_halton_lucas(self):
        pt = _oracle(get_named("pell"))
        qt = _oracle(get_named("pell-lucas"))
        outcome = catalog_entry("pell.halton-lucas").make_outcome()
        for n in range(-4, 5):
            for m in range(-4, 5):
                lhs, rhs = outcome({"n": n, "m": m})
                assert lhs == 2 * qt(n + m)
                assert rhs == pt(m + 1) * qt(n + 1) - pt(m - 1) * qt(n - 1)
                assert lhs == rhs

    def test_jac_double_shift_carries_power_of_two(self):
        t = _oracle(get_named("jacobsthal"))
        outcome = catalog_entry("jac.double-shift").make_outcome()
        for a in range(-2, 3):
            for n in range(-2, 3):
                for m in range(-2, 3):
                    lhs, rhs = outcome({"a": a, "n": n, "m": m})
                    assert lhs == t(2 * a) * t(n + m)
                    assert rhs == t(m + a) * t(n + a) - Fraction(2) ** (2 * a) * t(m - a) * t(n - a)
                    assert lhs == rhs


class TestOddEvenSplit:
    def test_both_equations_checked(self):
        # the checker returns the first failing pair, so a passing report
        # means both the odd and even shift equations balanced
        report = catalog_run("fib.odd-even-split", make_grid({"k": (0, 3), "m": (-3, 3), "n": (-3, 3)}))
        assert report.holds

    def test_literal_even_equation(self):
        t = _oracle(get_named("fibonacci"))
        outcome = catalog_entry("fib.odd-even-split").make_outcome()
        for k in range(0, 4):
            for n in range(-2, 3):
                for m in range(-2, 3):
                    lhs1, rhs1 = outcome({"k": k, "n": n, "m": m})
                    # returned pair is the odd-shift equation when both hold
                    assert lhs1 == t(2 * k - 1) * t(n + m)
                    assert rhs1 == t(m - 2 * k) * t(n + 1) + t(m - 1) * t(n + 2 * k)
