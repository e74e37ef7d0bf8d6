"""Sequence construction, the term engine, and the iterative oracle."""

import gc
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from horadam import (
    ParameterError,
    RangeError,
    RecurrenceParams,
    Sequence,
    UsageError,
    get_named,
    make_sequence,
    named_sequences,
    term,
    term_fn,
    term_iterative_oracle,
    term_range,
)
from horadam import catalog_run, dsl, kernel, parse_grid, parse_identity, sequences, verify_over_grid
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
            # integer roots 4 and 2 (gcd 2) in closed form for n > 0; for n <= 0
            # the walk strips 2
            (make_sequence(6, -8, 1, 3), (2000, -2000)),
            (make_sequence(1, 6, 0, 1), (2000, -2000)),  # roots 3 and -2
            (make_sequence(0, 4, 1, 2), (2000, -2000)),  # p = 0, roots 2 and -2
            (make_sequence(-2, -1, 1, 3), (2000, -2000)),  # repeated root -1
            # repeated root 2 of W (s = 4); for n > 0 the walk strips 2
            (make_sequence(1, Fraction(-1, 4), 1, 3), (2000, -2000)),
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
            (0, Fraction(2, 9), 1, 2),  # p = 0; the walk strips 3 for n > 0, 2 for n <= 0
        ],
        ids=["g1-zero", "g0-zero", "G2-zero", "Gm1-zero", "p-zero", "strip", "p-zero-strip"],
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

    @given(
        r1=rationals.filter(lambda v: v != 0),
        r2=st.none() | rationals.filter(lambda v: v != 0),
        g0=shared_prime_rationals,
        g1=shared_prime_rationals,
        n=st.integers(-300, 300),
    )
    @settings(max_examples=150, deadline=None)
    def test_split_polynomials_match_the_oracle(self, r1, r2, g0, g1, n):
        # x**2 - p*x - q = (x - r1)*(x - r2), with None for a repeated root r1
        r2 = r1 if r2 is None else r2
        assume(g0 != 0 or g1 != 0)
        seq = make_sequence(r1 + r2, -r1 * r2, g0, g1)
        value = term(seq, n)
        assert _in_lowest_terms(value)
        assert value == term_iterative_oracle(seq, n)

    @pytest.mark.parametrize("seq, n, walks", [
        (get_named("jacobsthal"), 1000, 0),
        (get_named("jacobsthal"), -1000, 0),
        (get_named("jacobsthal-lucas"), 1000, 0),
        (get_named("jacobsthal-lucas"), -1000, 0),
        (make_sequence(6, -8, 1, 3), 1000, 0),  # roots 4 and 2; the step 1 strips nothing
        (make_sequence(6, -8, 1, 3), -1000, 1),  # the step 8 shares 2 with P and Q
        (get_named("fibonacci"), 1000, 1),
        (get_named("fibonacci"), -1000, 1),
        (get_named("pell-lucas"), -1001, 1),
        (make_sequence(-3, -1, Fraction(1, 2), -3), 1001, 1),  # Q = -1
        (make_sequence(0, -1, 1, 3), 1000, 1),  # |Q| = 1 but P = 0
        (make_sequence(-2, -1, 1, 3), -1000, 0),  # |Q| = 1, repeated root -1
        (make_sequence(0, 1, 1, 3), 1000, 0),  # |Q| = 1, roots 1 and -1
        (make_sequence(1, 3, 1, 3), 1000, 1),  # |Q| = 3, no integer roots
    ])
    def test_closed_form_only_where_the_walk_strips_nothing(self, monkeypatch, seq, n, walks):
        # Each walk counts its calls by name; an integer p with q = +-1 (so |Q| = 1)
        # and p != 0 takes the Cassini walk, anything else the three-squaring one.
        calls, lucas, cassini = [], sequences._lucas_pair, sequences._cassini_pair

        def counting_lucas(P, Q, m, strip):
            calls.append("lucas")
            return lucas(P, Q, m, strip)

        def counting_cassini(P, Q, m):
            calls.append("cassini")
            return cassini(P, Q, m)

        monkeypatch.setattr(sequences, "_lucas_pair", counting_lucas)
        monkeypatch.setattr(sequences, "_cassini_pair", counting_cassini)
        assert term(seq, n) == term_iterative_oracle(seq, n)
        p, q = seq.params.p, seq.params.q
        kind = "cassini" if abs(q) == 1 and p and p.denominator == 1 else "lucas"
        assert calls == [kind] * walks

    @pytest.mark.parametrize("Q", [1, -1])
    @pytest.mark.parametrize("P", [1, -1, 2, -2, 3, -3, 5])
    @pytest.mark.parametrize("g0, g1", [(2, -3), (Fraction(1, 2), Fraction(-5, 3)), (0, 1), (1, 0)])
    def test_unit_q_walk_matches_oracle(self, P, Q, g0, g1):
        # _cassini_pair's two-squaring walk and one-product finish; P = +-2 with
        # Q = -1 has a repeated root and takes the closed form instead. Both signs
        # of n and NEAR_POWERS give both parities of the walk index and of its
        # bits, so tau is both +1 and -Q at the last step.
        seq = make_sequence(P, Q, g0, g1)
        for n in sorted(set(range(-40, 41)) | NEAR_POWERS):
            value = term(seq, n)
            assert _in_lowest_terms(value), n
            assert value == term_iterative_oracle(seq, n), n

    @given(
        p=st.integers(-9, 9),
        q=st.sampled_from((1, -1)),
        g0=shared_prime_rationals,
        g1=shared_prime_rationals,
        n=st.integers(-600, 600),
    )
    @settings(max_examples=150, deadline=None)
    def test_unit_q_terms_match_the_oracle(self, p, q, g0, g1, n):
        assume(g0 != 0 or g1 != 0)
        seq = make_sequence(p, q, g0, g1)
        value = term(seq, n)
        assert _in_lowest_terms(value)
        assert value == term_iterative_oracle(seq, n)

    @pytest.mark.parametrize("p, q, g0, g1, n, expected", [
        # G(n) = 3**n: roots 4 and 3, and c1*R2 + c0 = 0 for n <= 0
        (7, -12, 1, 3, -300000, Fraction(1, 3**300000)),
        (1, 6, 1, 3, -300000, Fraction(1, 3**300000)),  # roots 3 and -2
        # G(n) = 2**-n: W's roots 3 and 2 against the step 6 for n > 0
        (Fraction(5, 6), Fraction(-1, 6), 1, Fraction(1, 2), 300000, Fraction(1, 2**300000)),
        # repeated roots: G(n) = 2**n (root 2 for n > 0) and 2**-n (W's root 2
        # against the step 1 for n <= 0)
        (4, -4, 1, 2, 300000, Fraction(2**300000)),
        (1, Fraction(-1, 4), 1, Fraction(1, 2), -300000, Fraction(2**300000)),
        (-4, -4, 3, -6, 300001, Fraction(3 * (-2) ** 300001)),
        # G(n) = 2**n: roots 4 and 2 share the prime 2 with the step 8, which the walk
        # strips for n <= 0; the ratio 2/8 is reduced before its power
        (6, -8, 1, 2, -200000, Fraction(1, 2**200000)),
    ])
    def test_geometric_terms_are_single_powers(self, p, q, g0, g1, n, expected):
        value = term(make_sequence(p, q, g0, g1), n)
        assert _in_lowest_terms(value)
        assert value == expected

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


# G(n) modulo two Mersenne primes, from a modular power of [[p, q], [1, 0]]: a reference
# for term() at indices where the iterative oracle would take too long.
PRIMES = (2**61 - 1, 2**89 - 1)


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


small_ints = st.integers(-6, 6).filter(bool)
# (p, q) of each route term() can take at large |n|; see TestModularReference.
ROUTE_COEFFICIENTS = {
    # p and q share a prime r with the step -q, which the walk strips for n <= 0
    "strip": st.builds(lambda r, u, v: (r * u, r * v), st.sampled_from((2, 3, 5)),
                       st.integers(-4, 4), st.integers(-4, 4).filter(bool)),
    # |Q| = 1 and no integer roots (P**2 +- 4 is a square only at P = 0, +-2): Cassini
    "unit-q": st.tuples(st.integers(-9, 9).filter(lambda p: p not in (-2, 0, 2)),
                        st.sampled_from((1, -1))),
    # integer roots r1 and r2, or a repeated root r1 (r2 None): the closed form, unless
    # gcd(r1, r2) > 1 makes the walk strip it for n <= 0
    "roots": st.tuples(small_ints, st.none() | small_ints),
    # integer roots sharing a prime r with the step -q = -r1*r2, which the walk strips
    # for n <= 0; drawn geometric, so term() takes the one-power form at both signs
    "shared-roots": st.builds(lambda r, u, v: (r * u, r * v), st.sampled_from((2, 3, 5)),
                              small_ints, small_ints),
    # p or q not an integer
    "rational": st.tuples(shared_prime_rationals, shared_prime_rationals.filter(bool)).filter(
        lambda pq: pq[0].denominator > 1 or pq[1].denominator > 1),
}


class TestModularReference:
    @pytest.mark.parametrize("route", sorted(ROUTE_COEFFICIENTS))
    @given(data=st.data(), n=st.integers(-10**5, 10**5))
    @settings(max_examples=40, deadline=None)
    def test_large_indices_match_the_reference(self, route, data, n):
        p, q = data.draw(ROUTE_COEFFICIENTS[route])
        g0, g1 = data.draw(shared_prime_rationals), data.draw(shared_prime_rationals)
        if route == "strip":
            n = -abs(n)
        elif route in ("roots", "shared-roots"):
            r1, r2 = p, p if q is None else q
            p, q = r1 + r2, -r1 * r2
            if route == "shared-roots" or data.draw(st.booleans()):  # G(n) = g0 * r**n, r a root
                g1 = data.draw(st.sampled_from((r1, r2))) * g0
        assume(g0 != 0 or g1 != 0)
        seq = make_sequence(p, q, g0, g1)
        # Every prime of G(n)'s denominator divides this product, so a gcd with it,
        # not with the huge denominator, finds any factor left in common.
        p, q = seq.params.p, seq.params.q
        primes_of = (p.denominator * q.denominator * q.numerator
                     * seq.g0.denominator * seq.g1.denominator)
        assume(all(primes_of % prime for prime in PRIMES))
        value = term(seq, n)
        assert type(value) is Fraction and value.denominator > 0
        assert math.gcd(math.gcd(value.numerator, primes_of), value.denominator) == 1
        assert fingerprint(value) == reference_fingerprint(seq, n)

    @pytest.mark.parametrize("Q", [1, -1])
    @pytest.mark.parametrize("P", [1, -1, 2, -2, 3, -5, 12])
    def test_cassini_walk_matches_the_lucas_walk(self, P, Q):
        # Where both walks apply, they agree, whichever one term() selects; so a
        # wrong selection guard cannot hide a wrong walk.
        for m in sorted(set(range(70)) | {abs(n) for n in NEAR_POWERS}):
            x, y, tau = sequences._cassini_pair(P, Q, m)
            assert (x, y, ()) == sequences._lucas_pair(P, Q, m, ()), m
            assert tau == (-Q) ** m, m

    @given(roots=ROUTE_COEFFICIENTS["roots"], g0=shared_prime_rationals, g1=shared_prime_rationals,
           geometric=st.booleans(), data=st.data(),
           n=st.integers(-10**4, 10**4) | st.sampled_from(sorted(NEAR_POWERS)))
    @settings(max_examples=150, deadline=None)
    def test_closed_form_matches_the_lucas_walk(self, roots, g0, g1, geometric, data, n):
        # Where W has integer roots and the walk strips nothing at n's sign, term()
        # takes the closed form; the same params with the roots hidden from the
        # engine take the Lucas walk. Both give the same lowest-terms fraction.
        r1, r2 = roots[0], roots[0] if roots[1] is None else roots[1]
        if geometric:  # G(n) = g0 * r**n for a root r
            g1 = data.draw(st.sampled_from((r1, r2))) * g0
        assume(g0 != 0 or g1 != 0)
        seq = make_sequence(r1 + r2, -r1 * r2, g0, g1)
        engine = seq.params._engine
        _, P, _, Q, found, pos, neg = engine
        assume(found and not (pos if n > 0 else neg)[2] and not (Q * Q == 1 and P))
        walked = RecurrenceParams(seq.params.p, seq.params.q)
        vars(walked)["_engine"] = (*engine[:4], None, pos, neg)
        value, expected = term(seq, n), term(Sequence(walked, seq.g0, seq.g1), n)
        assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)


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



def _outward(indices: list) -> list:
    """0, 1, -1, 2, -2, ...: every read after the first two crosses 0."""
    return sorted(indices, key=lambda i: (abs(i), -i))


class TestTermCaches:
    """term_fn and the term store fill a miss by one recurrence step from two stored
    neighbours, forwards or backwards, or else by term()."""

    @settings(max_examples=150, deadline=None)
    @given(
        p=shared_prime_rationals,
        q=shared_prime_rationals.filter(lambda v: v != 0),
        g0=shared_prime_rationals,
        g1=shared_prime_rationals,
        order=st.sampled_from(("ascending", "descending", "shuffled", "outward")),
        rnd=st.randoms(use_true_random=False),
    )
    def test_reads_equal_term_in_value_and_type(self, p, q, g0, g1, order, rnd):
        assume(g0 != 0 or g1 != 0)
        s = make_sequence(p, q, g0, g1)
        indices = list(range(-15, 16))
        if order == "descending":
            indices.reverse()
        elif order == "shuffled":
            rnd.shuffle(indices)
        elif order == "outward":
            indices = _outward(indices)
        values, store = term_fn(s), sequences._Terms(s)
        for i in indices:
            want = term(s, i)
            got = values(i)
            # Fraction equality compares numerator and denominator as stored.
            assert got == want and type(got) is (int if want.denominator == 1 else Fraction), i
            # The sequence fixes the store's form: ints if whole, else lowest-terms pairs.
            stored = store[i]
            assert stored == (want.numerator if store.whole else want.as_integer_ratio()), i
            assert type(store.value(i)) is type(got), i

    def test_a_sweep_calls_term_only_to_start(self, monkeypatch, capsys):
        from horadam.cli import main

        calls = []

        def counting(seq, n):
            calls.append(n)
            return term(seq, n)

        fib = term_range(get_named("fibonacci"), -1500, 1501)
        monkeypatch.setattr(sequences, "term", counting)
        code = main(["check", "--expr", "F[n+1]=F[n]", "--grid", "n=-1500..1500", "--format", "csv"])
        rows = capsys.readouterr().out.splitlines()[1:]
        assert code == 1 and len(calls) <= 4, calls
        expected = [f"n={n},{fib[n + 1501]},{fib[n + 1500]}" for n in range(-1500, 1501) if n != 1]
        assert [row.split(",", 5)[5] for row in rows] == expected

    @pytest.mark.parametrize("run, limit", [
        # Theorem 1 reads G and H from their tables, each filled from one pair store.
        (lambda: kernel.verify_identity_grid(
            "theorem1", make_sequence(Fraction(3, 2), Fraction(2, 3), 2, -3),
            make_sequence(Fraction(3, 2), Fraction(2, 3), Fraction(-1, 2), 3),
            parse_grid(kernel.IDENTITIES["theorem1"].default_grid)), 8),
        (lambda: catalog_run("jac.sum.ordinary.1", None, (3, -5)), 40),
    ], ids=["theorem1-rational", "jac-sum-ordinary"])
    def test_tables_call_term_only_to_start(self, monkeypatch, run, limit):
        calls = []

        def counting(seq, n):
            calls.append(n)
            return term(seq, n)

        monkeypatch.setattr(sequences, "term", counting)
        report = run()
        assert report.holds and len(calls) <= limit, calls

    @pytest.mark.parametrize("seq", [
        get_named("jacobsthal"), make_sequence(Fraction(3, 2), Fraction(2, 3), 2, -3),
    ], ids=["jacobsthal", "rational"])
    @pytest.mark.parametrize("name, limit", [
        ("lemma1", 2), ("lemma2:1", 2), ("lemma2:2", 9), ("lemma2:3", 2),
        ("lemma3:1", 2), ("lemma3:2", 2), ("lemma3:3", 2),
    ])
    def test_a_lemma_sweep_walks_twice(self, monkeypatch, seq, name, limit):
        # The relation check and the sums read one store: term() for its first two
        # reads, then steps (lemma2:2's swapped relation reads a gap that steps cannot fill).
        calls = []

        def counting(s, n):
            calls.append(n)
            return term(s, n)

        monkeypatch.setattr(sequences, "term", counting)
        grid = parse_grid(kernel.IDENTITIES[name].default_grid)
        assert kernel.verify_identity_grid(name, seq, seq, grid).holds
        assert len(calls) <= limit, calls

# Index bounds at and around multiples of 8, where a table's key changes.
KEY_EDGES = st.sampled_from(sorted({8 * j + e for j in range(-3, 4) for e in (-1, 0, 1)}))


class TestTermTables:
    @given(
        p=shared_prime_rationals,
        q=shared_prime_rationals.filter(lambda v: v != 0),
        g0=shared_prime_rationals,
        g1=shared_prime_rationals,
        bounds=st.lists(st.one_of(KEY_EDGES, st.integers(-30, 30)), min_size=2, max_size=2),
    )
    def test_reads_are_terms_times_the_scale(self, p, q, g0, g1, bounds):
        assume(g0 != 0 or g1 != 0)
        s = make_sequence(p, q, g0, g1)
        lo, hi = sorted(bounds)
        read, scale = sequences.term_tables(sequences._Terms(s))(lo, hi)
        for i in range(lo, hi + 1):
            value = read(i)
            assert type(value) is int, i
            assert value == term_iterative_oracle(s, i) * scale, i

    def test_whole_sequences_read_ints_at_scale_one(self):
        store = sequences._Terms(get_named("pell"))
        table = sequences.term_tables(store)
        read, scale = table(-40, 40)
        assert scale == 1 and table(0, 1)[0] == read
        assert [read(i) for i in (-3, 0, 5)] == [5, 0, 29]
        assert read == store.__getitem__ and store[5] == 29  # the store itself, not a copy

    def test_a_scale_that_does_not_clear_raises(self):
        # J(-1) = 1/2 and J(-2) = -1/4: scale 2 clears the first and not the second.
        table = sequences._Table(sequences._Terms(get_named("jacobsthal")), 2)
        assert table[-1] == 1
        with pytest.raises(ArithmeticError, match=r"does not clear G\(-2\) = -1/4"):
            table[-2]
        assert -2 not in table

    def test_a_dropped_store_is_freed_without_the_cycle_collector(self, monkeypatch):
        # A store that held its tables, or a bound method of its own, would live on
        # in a reference cycle until the collector ran.
        made = []

        class Recorded(sequences._Terms):
            def __init__(self, s):
                super().__init__(s)
                made.append(weakref.ref(self))

        for module in (kernel, dsl):
            monkeypatch.setattr(module, "_Terms", Recorded)
        jac, rational = get_named("jacobsthal"), make_sequence(Fraction(3, 2), Fraction(2, 3), 2, -3)
        gc.disable()
        try:
            for identity in ("lemma1", "theorem1", "sum-ordinary:1"):
                grid = parse_grid(kernel.IDENTITIES[identity].default_grid.replace("-2..2", "0..1"))
                assert kernel.verify_identity_grid(identity, rational, rational, grid).holds
            ast = parse_identity("J[n+2] = J[n+1] + 2*J[n] + 0*F[n]")
            assert verify_over_grid(ast, parse_grid("n=-9..9")).holds
            for seq in (get_named("pell"), jac, rational):
                store = Recorded(seq)
                read, scale = sequences.term_tables(store)(-9, 9)
                assert read(4) == store.value(4) * scale and store.value(-3) == term(seq, -3)
                del store, read
            assert len(made) == 8 and all(ref() is None for ref in made)
        finally:
            gc.enable()
