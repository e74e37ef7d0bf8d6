"""Sequence construction, the term engine, and the iterative oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from horadam import (
    ParameterError,
    RangeError,
    RecurrenceParams,
    UsageError,
    get_named,
    make_sequence,
    named_sequences,
    term,
    term_fn,
    term_iterative_oracle,
    term_range,
)
from conftest import EXPECTED_TABLE, TABLE_COLUMNS, random_pair, random_sequence

rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=3
)
# Denominators built from 2 and 3, so the initial terms' denominators share
# primes with the coefficients' and p*s, q*s*s often share a prime as well.
shared_prime_rationals = st.builds(
    Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 9, 12))
)


# Near powers of two the doubling walk's index (n - 1 for n > 0, -n otherwise)
# is all ones, a single one, or ones at both ends.
NEAR_POWERS = {d * (2 ** k + e) for k in range(12) for e in (-1, 0, 1) for d in (1, -1)}


def _in_lowest_terms(value) -> bool:
    return (
        type(value) is Fraction
        and value.denominator > 0
        and math.gcd(value.numerator, value.denominator) == 1
    )


class TestConstruction:
    def test_coerces_ints_to_rationals(self):
        seq = make_sequence(1, 2, 0, 1)
        assert seq.params.p == Fraction(1) and seq.params.q == Fraction(2)
        assert seq.g0 == Fraction(0) and seq.g1 == Fraction(1)

    def test_zero_q_rejected(self):
        with pytest.raises(ParameterError):
            make_sequence(1, 0, 0, 1)

    def test_both_initial_terms_zero_rejected(self):
        with pytest.raises(ParameterError):
            make_sequence(1, 1, 0, 0)

    def test_params_are_hashable_and_frozen(self):
        params = RecurrenceParams(Fraction(1), Fraction(1))
        assert hash(params) == hash(RecurrenceParams(Fraction(1), Fraction(1)))


class TestNamedRegistry:
    def test_six_sequences_registered(self):
        named = named_sequences()
        assert sorted(named) == sorted(TABLE_COLUMNS)

    @pytest.mark.parametrize(
        "alias,canonical",
        [("F", "fibonacci"), ("L", "lucas"), ("P", "pell"), ("Q", "pell-lucas"),
         ("J", "jacobsthal"), ("j", "jacobsthal-lucas"),
         ("pell_lucas", "pell-lucas"), ("jacobsthal_lucas", "jacobsthal-lucas")],
    )
    def test_aliases_resolve(self, alias, canonical):
        assert get_named(alias) is get_named(canonical)

    def test_unknown_name_rejected(self):
        with pytest.raises(UsageError):
            get_named("fibonaccci")

    def test_named_parameters(self):
        fib = get_named("fibonacci")
        assert (fib.params.p, fib.params.q, fib.g0, fib.g1) == (1, 1, 0, 1)
        jac = get_named("jacobsthal")
        assert (jac.params.p, jac.params.q) == (1, 2)


class TestTerm:
    def test_reproduces_reference_table(self):
        for n, row in EXPECTED_TABLE.items():
            for name, expected in zip(TABLE_COLUMNS, row):
                assert term(get_named(name), n) == Fraction(expected), (name, n)

    def test_initial_terms_round_trip(self):
        seq = make_sequence(Fraction(1, 2), Fraction(-3), Fraction(2, 7), Fraction(5))
        assert term(seq, 0) == Fraction(2, 7)
        assert term(seq, 1) == Fraction(5)

    def test_integral_values_are_exact_integers(self):
        fib = get_named("fibonacci")
        assert term(fib, 30) == 832040 and term(fib, 30).denominator == 1
        assert term(fib, -7) == 13

    def test_fractional_values_come_back_as_fractions(self):
        jac = get_named("jacobsthal")
        assert term(jac, -5) == Fraction(11, 32)

    @given(
        p=rationals,
        q=rationals.filter(lambda v: v != 0),
        g0=rationals,
        g1=rationals,
        n=st.integers(min_value=-8, max_value=10),
    )
    @settings(max_examples=120)
    def test_recurrence_holds_everywhere(self, p, q, g0, g1, n):
        if g0 == 0 and g1 == 0:
            g1 = Fraction(1)
        seq = make_sequence(p, q, g0, g1)
        assert term(seq, n) == p * term(seq, n - 1) + q * term(seq, n - 2)

    def test_agrees_with_iterative_oracle_on_named(self):
        for name in TABLE_COLUMNS:
            seq = get_named(name)
            for n in range(-30, 31):
                assert term(seq, n) == term_iterative_oracle(seq, n), (name, n)

    def test_agrees_with_iterative_oracle_on_random(self, rng):
        for _ in range(8):
            seq = random_sequence(rng)
            for n in range(-15, 16):
                assert term(seq, n) == term_iterative_oracle(seq, n)

    def test_large_index_matches_oracle(self):
        cases = (
            (get_named("fibonacci"), (2000, -1201)),
            (get_named("pell"), (2000, -1201)),  # P = 2
            (get_named("jacobsthal"), (2000, -1201)),  # Q = 2
            (make_sequence(0, 3, 1, 2), ()),  # p = 0
            (make_sequence(1, -1, 0, 1), ()),  # q = -1
            (make_sequence(2, -1, 1, 3), ()),  # repeated root x = 1
            (make_sequence(3, 2, Fraction(-2, 3), Fraction(5, 7)), ()),
            (make_sequence(Fraction(3, 2), Fraction(2, 3), 2, -3), (1500, -1500, 2000, -2000)),
            (make_sequence(Fraction(-3, 2), Fraction(2, 3), 3, -2), (2000, -2000)),
            # g0 and g1 denominators share the primes 2 and 3 with s = 12
            (make_sequence(Fraction(5, 6), Fraction(1, 4), Fraction(1, 2), Fraction(5, 12)), ()),
            # G(n) = 2**-n: the roots are 1/2 and 1/3, and the power of 3 in
            # s**(n-1) cancels only against the whole numerator
            (make_sequence(Fraction(5, 6), Fraction(-1, 6), 1, Fraction(1, 2)), ()),
        )
        for seq, extra in cases:
            for n in sorted(NEAR_POWERS | {0, 1, -1} | set(extra)):
                value = term(seq, n)
                assert _in_lowest_terms(value), (seq, n)
                assert value == term_iterative_oracle(seq, n), (seq, n)

    @pytest.mark.parametrize(
        "p, q, g0, g1",
        [
            (1, 1, 1, 0),  # g1 = 0
            (1, 1, 0, 1),  # g0 = 0
            (1, 1, 1, -1),  # G(2) = 0
            (2, 3, 1, 2),  # G(-1) = 0, i.e. g1 = p*g0
            (0, 3, 1, 2),  # p = 0
            (Fraction(3, 2), Fraction(2, 3), 2, -3),  # for n > 0 the walk strips 3
        ],
        ids=["g1-zero", "g0-zero", "G2-zero", "Gm1-zero", "p-zero", "strip"],
    )
    def test_fused_last_doubling_matches_oracle(self, p, q, g0, g1):
        # gamma, the y**2 coefficient of term()'s last step, is zero exactly
        # when g1, G(2), g0 or G(-1) is, by the sign of n and the parity of
        # the walk index; each of the first four sequences has one such zero.
        seq = make_sequence(p, q, g0, g1)
        for n in sorted(set(range(-40, 41)) | NEAR_POWERS):
            value = term(seq, n)
            assert _in_lowest_terms(value), n
            assert value == term_iterative_oracle(seq, n), n

    @given(
        p=shared_prime_rationals,
        q=shared_prime_rationals.filter(lambda v: v != 0),
        g0=shared_prime_rationals,
        g1=shared_prime_rationals,
        n=st.integers(-300, 300),
    )
    @settings(max_examples=150, deadline=None)
    def test_rational_terms_in_lowest_terms(self, p, q, g0, g1, n):
        if g0 == 0 and g1 == 0:
            g1 = Fraction(1)
        seq = make_sequence(p, q, g0, g1)
        value = term(seq, n)
        assert _in_lowest_terms(value)
        assert value == term_iterative_oracle(seq, n)

    @pytest.mark.parametrize(
        "p, q, g0, g1, indices",
        [
            # the prime 2**61 - 1 of the step, above the trial-division bound,
            # divides gcd(P, Q): q's denominator for n > 0, p and q for n <= 0
            (1, Fraction(1, 2**61 - 1), 1, 2, (300, 257, -300)),
            (2**61 - 1, 2**61 - 1, Fraction(1, 2), 1, (-300, -257, 300)),
            # an unfactored cofactor 1031*1033 of the step -q; P and Q hold
            # its two primes to different powers, so stripping it leaves a
            # large common power of 1033
            (1031**2 * 1033, 1031 * 1033**2, 1, 2, (-2000, 2000, -1)),
        ],
    )
    def test_step_primes_above_the_trial_bound(self, p, q, g0, g1, indices):
        seq = make_sequence(p, q, g0, g1)
        for n in indices:
            value = term(seq, n)
            assert _in_lowest_terms(value), n
            assert value == term_iterative_oracle(seq, n), n


class TestNegativeIndexLaws:
    """Closed forms for terms at negated indices of the six named sequences."""

    def test_fibonacci_pell_jacobsthal(self):
        cases = (("fibonacci", 1), ("pell", 1), ("jacobsthal", 2))
        for name, q in cases:
            seq = get_named(name)
            for n in range(0, 41):
                sign = -1 if n % 2 == 0 else 1
                assert term(seq, -n) == Fraction(sign * term(seq, n), q ** n), (name, n)

    def test_lucas_pell_lucas_jacobsthal_lucas(self):
        cases = (("lucas", 1), ("pell-lucas", 1), ("jacobsthal-lucas", 2))
        for name, q in cases:
            seq = get_named(name)
            for n in range(0, 41):
                sign = 1 if n % 2 == 0 else -1
                assert term(seq, -n) == Fraction(sign * term(seq, n), q ** n), (name, n)


class TestTermRange:
    def test_matches_per_index_calls(self):
        lucas = get_named("lucas")
        values = term_range(lucas, -6, 6)
        assert values == [term(lucas, n) for n in range(-6, 7)]

    def test_reversed_bounds_rejected(self):
        with pytest.raises(RangeError):
            term_range(get_named("fibonacci"), 3, 2)

    def test_single_point(self):
        assert term_range(get_named("lucas"), 0, 0) == [2]

    @settings(max_examples=150, deadline=None)
    @given(
        p=shared_prime_rationals,
        q=shared_prime_rationals.filter(lambda v: v != 0),
        g0=shared_prime_rationals,
        g1=shared_prime_rationals,
        lo=st.integers(-20, 3),
        length=st.integers(0, 30),
    )
    def test_rational_sequences_match_the_oracle(self, p, q, g0, g1, lo, length):
        assume(g0 != 0 or g1 != 0)
        assume(p.denominator != 1 or q.denominator != 1)  # scale != 1
        s = make_sequence(p, q, g0, g1)
        values = term_range(s, lo, lo + length)
        assert len(values) == length + 1
        for n, value in zip(range(lo, lo + length + 1), values):
            assert _in_lowest_terms(value), (n, value)
            assert value == term_iterative_oracle(s, n), n


class TestTermFn:
    def test_memoized_accessor_matches_term(self):
        pell = get_named("pell")
        fn = term_fn(pell)
        for n in (-9, -1, 0, 1, 13):
            assert fn(n) == term(pell, n)
            assert fn(n) == term(pell, n)  # cached second read

    def test_accessor_returns_plain_ints_when_integral(self):
        fn = term_fn(get_named("fibonacci"))
        assert isinstance(fn(10), int)

    def test_distinct_sequences_get_distinct_caches(self, rng):
        g, h = random_pair(rng)
        fg, fh = term_fn(g), term_fn(h)
        mismatch = any(fg(n) != fh(n) for n in range(0, 6))
        assert mismatch or (g.g0 == h.g0 and g.g1 == h.g1)
