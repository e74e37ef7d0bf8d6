"""Grid parsing, enumeration order, and constraint filtering."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horadam import ParseError, make_grid, parse_expression, parse_grid
from horadam.dsl import Var


class TestParse:
    def test_ranges_and_var_names(self):
        grid = parse_grid("n=-2..2,m=0..1")
        assert grid.var_names == ("m", "n")
        assert grid.case_count() == 10

    def test_single_value_shorthand(self):
        grid = parse_grid("n=3")
        assert list(grid.cases()) == [{"n": 3}]

    def test_negative_bounds(self):
        grid = parse_grid("a=-5..-3")
        assert [case["a"] for case in grid.cases()] == [-5, -4, -3]

    def test_reversed_bounds_mean_empty(self):
        grid = parse_grid("n=3..1")
        assert grid.case_count() == 0
        assert list(grid.cases()) == []

    @pytest.mark.parametrize(
        "text",
        ["", "n", "n=", "n=1..", "n=1..2..3", "n=x..2", "n=1..2,n=0..1", "=1..2",
         "n=1..2;;", "n=1..2,"],
    )
    def test_malformed_text_rejected(self, text):
        if text == "":
            # the empty grid is legal: one case with no bindings
            assert list(parse_grid("").cases()) == [{}]
            return
        with pytest.raises(ParseError):
            parse_grid(text)

    def test_unknown_constraint_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_grid("n=0..2;m<=n")

    def test_bad_constraint_operator_rejected(self):
        with pytest.raises(ParseError):
            parse_grid("n=0..2;n~3")


class TestEnumeration:
    def test_odometer_order_over_sorted_names(self):
        grid = parse_grid("n=0..1,m=0..1")
        assert list(grid.cases()) == [
            {"m": 0, "n": 0},
            {"m": 0, "n": 1},
            {"m": 1, "n": 0},
            {"m": 1, "n": 1},
        ]

    def test_deterministic_repetition(self):
        grid = parse_grid("a=-1..1,b=0..2;a<b")
        assert list(grid.cases()) == list(grid.cases())

    def test_empty_grid_has_one_empty_case(self):
        grid = make_grid({})
        assert grid.case_count() == 1
        assert list(grid.cases()) == [{}]


class TestConstraints:
    @pytest.mark.parametrize(
        "op,keep",
        [("<=", lambda m, n: m <= n), (">=", lambda m, n: m >= n),
         ("<", lambda m, n: m < n), (">", lambda m, n: m > n),
         ("=", lambda m, n: m == n), ("==", lambda m, n: m == n),
         ("!=", lambda m, n: m != n)],
    )
    def test_each_operator_filters(self, op, keep):
        grid = parse_grid(f"m=-2..2,n=-2..2;m{op}n")
        expected = [
            {"m": m, "n": n}
            for m, n in itertools.product(range(-2, 3), range(-2, 3))
            if keep(m, n)
        ]
        assert list(grid.cases()) == expected

    def test_integer_literal_operand(self):
        grid = parse_grid("n=-3..3;n>=0")
        assert [case["n"] for case in grid.cases()] == [0, 1, 2, 3]

    def test_conjunction_of_constraints(self):
        grid = parse_grid("m=0..5,n=0..5;m<n;n<=3")
        assert all(case["m"] < case["n"] <= 3 for case in grid.cases())
        assert grid.case_count() == 6

    def test_constraints_filter_but_total_counts_them_out(self):
        # case_count reflects post-filter cases; they are not "skips"
        grid = parse_grid("m=0..1,n=0..1;m=n")
        assert grid.case_count() == 2


class TestMakeGrid:
    def test_round_trips_through_text(self):
        grid = make_grid({"n": (-2, 2), "k": (0, 3)}, constraints=("k<=n",))
        reparsed = parse_grid(grid.text)
        assert list(reparsed.cases()) == list(grid.cases())

    def test_canonical_text_sorts_variables(self):
        grid = make_grid({"n": (0, 1), "a": (2, 2)})
        assert grid.text == "a=2,n=0..1"

    @given(
        ranges=st.dictionaries(
            st.sampled_from("abkmn"),
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=50)
    def test_count_matches_enumeration(self, ranges):
        grid = make_grid(ranges)
        assert grid.case_count() == len(list(grid.cases()))


class TestNamesAgreeWithTheDsl:
    @staticmethod
    def _dsl_reads_a_variable(name: str) -> bool:
        try:
            return parse_expression(name) == Var(name)
        except ParseError:
            return False

    @staticmethod
    def _grid_reads_a_variable(name: str) -> bool:
        try:
            return parse_grid(f"{name}=0").var_names == (name,)
        except ParseError:
            return False

    @given(name=st.text(alphabet="aZ_09αé٣²$", max_size=4))
    @settings(max_examples=200)
    def test_dsl_and_grid_accept_the_same_variable_names(self, name):
        assert self._dsl_reads_a_variable(name) == self._grid_reads_a_variable(name), name
