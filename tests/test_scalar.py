"""Exact scalar building blocks."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horadam import (
    DomainError,
    ParameterError,
    binom,
    m1,
    rat,
    rat_from_text,
    rat_text,
)
from horadam.scalar import _DECIMAL_BITS

small_ints = st.integers(min_value=-30, max_value=30)
nonzero_small = small_ints.filter(lambda v: v != 0)
# Integers whose bit length lies within 64 of the decimal-rendering threshold.
near_threshold = st.builds(
    lambda bits, rnd: rnd.getrandbits(bits) | 1 << (bits - 1),
    st.integers(_DECIMAL_BITS - 64, _DECIMAL_BITS + 64),
    st.randoms(use_true_random=False),
)
signs = st.sampled_from((1, -1))


def _signed(num: int, den: int, sign: int) -> Fraction:
    return Fraction(sign * num, den)


@pytest.fixture
def digit_limit_4300():
    """The interpreter's default int-string digit limit, restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-string digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


class TestRational:
    def test_reduces_to_lowest_terms(self):
        assert rat(2, 4) == Fraction(1, 2)
        assert rat(-6, -4) == Fraction(3, 2)

    def test_sign_lives_on_the_numerator(self):
        value = rat(1, -2)
        assert value.numerator == -1 and value.denominator == 2

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParameterError):
            rat(1, 0)

    @pytest.mark.parametrize(
        "text,expected",
        [("3", Fraction(3)), ("-7/2", Fraction(-7, 2)), ("+4", Fraction(4)),
         ("0", Fraction(0)), ("10/4", Fraction(5, 2))],
    )
    def test_parse_accepts_integer_and_slash_forms(self, text, expected):
        assert rat_from_text(text) == expected

    @pytest.mark.parametrize(
        "text", ["1.5", "1e3", "", "a/b", "7/-2", "1/2/3", "1 / 2", "٣", "٣/٢", "1/²"]
    )
    def test_parse_rejects_non_rational_text(self, text):
        with pytest.raises(ParameterError):
            rat_from_text(text)

    def test_parse_rejects_zero_denominator(self):
        with pytest.raises(ParameterError):
            rat_from_text("1/0")

    def test_text_is_canonical(self):
        assert rat_text(Fraction(34, 2)) == "17"
        assert rat_text(Fraction(-3, 6)) == "-1/2"
        assert rat_text(5) == "5"

    @given(num=small_ints, den=nonzero_small)
    def test_text_round_trips(self, num, den):
        value = rat(num, den)
        assert rat_from_text(rat_text(value)) == value


class TestRationalTextAtScale:
    """rat_text against str(Fraction) around the decimal-rendering threshold."""

    @settings(max_examples=60, deadline=None)
    @given(
        value=st.one_of(
            st.builds(lambda n, sign: sign * n, near_threshold, signs),
            st.builds(_signed, near_threshold, st.integers(1, 10**6), signs),
            st.builds(_signed, st.integers(0, 10**6), near_threshold, signs),
            st.builds(_signed, near_threshold, near_threshold, signs),
        )
    )
    @example(value=1 << _DECIMAL_BITS)
    @example(value=-(1 << (_DECIMAL_BITS - 1)))
    @example(value=Fraction(1, 1 << (_DECIMAL_BITS + 1)))
    @example(value=(1 << _DECIMAL_BITS) - 1)
    @example(value=Fraction(-((1 << (_DECIMAL_BITS + 1)) - 1), (1 << _DECIMAL_BITS) - 1))
    @example(value=Fraction(3**189_000 + 1, 1 << 300_000))
    def test_matches_str_of_fraction(self, value):
        assert rat_text(value) == str(Fraction(value))

    @pytest.mark.parametrize(
        "value",
        [1 << (_DECIMAL_BITS + 1), -(3**30_000), Fraction(1, 7**20_000), Fraction(-(5**20_000), 3)],
    )
    def test_keeps_the_int_string_digit_limit(self, digit_limit_4300, value):
        value = Fraction(value)
        big = max(value.numerator, value.denominator, key=abs)
        with pytest.raises(ValueError) as expected:
            str(big)
        with pytest.raises(ValueError) as got:
            rat_text(value)
        assert str(got.value) == str(expected.value)

    def test_renders_under_the_digit_limit(self, digit_limit_4300):
        assert rat_text(Fraction(-(10**4299), 3)) == "-1" + "0" * 4299 + "/3"


class TestBinom:
    def test_matches_math_comb_inside_range(self):
        for k in range(0, 12):
            for j in range(0, k + 1):
                assert binom(k, j) == math.comb(k, j)

    def test_zero_outside_range(self):
        assert binom(4, -1) == 0
        assert binom(4, 5) == 0

    def test_negative_k_rejected(self):
        with pytest.raises(DomainError):
            binom(-1, 0)

    @given(k=st.integers(min_value=0, max_value=40), j=st.integers(min_value=-5, max_value=45))
    def test_symmetry(self, k, j):
        assert binom(k, j) == binom(k, k - j)


class TestM1:
    def test_negative_exponents_stay_integral(self):
        # (-1) ** e on a negative int would produce a float; m1 must not.
        assert m1(-3) == -1 and isinstance(m1(-3), int)
        assert m1(-4) == 1

    @given(e=st.integers(min_value=-1000, max_value=1000))
    def test_matches_parity(self, e):
        assert m1(e) == (-1) ** abs(e)
