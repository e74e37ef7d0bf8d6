"""Exact scalar building blocks."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
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

small_ints = st.integers(min_value=-30, max_value=30)
nonzero_small = small_ints.filter(lambda v: v != 0)


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

    @pytest.mark.parametrize("text", ["1.5", "1e3", "", "a/b", "7/-2", "1/2/3", "1 / 2"])
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
