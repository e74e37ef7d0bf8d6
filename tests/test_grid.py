"""Grid parsing, enumeration order, and constraint filtering."""

import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horadam import GridSpec, ParseError, make_grid, parse_expression, parse_grid
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


_KEEP = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt,
         "=": operator.eq, "==": operator.eq, "!=": operator.ne}


class TestValues:
    @given(data=st.data())
    @settings(max_examples=150)
    def test_values_are_the_cases_values_in_order(self, data):
        names = data.draw(st.lists(st.sampled_from("abkmn"), min_size=1, max_size=4, unique=True))
        ranges = {}
        for name in names:  # a range, an inverted (empty) range or a pinned value
            lo = data.draw(st.integers(-3, 3))
            ranges[name] = (lo, data.draw(st.sampled_from((lo, lo - 1, lo + 1, lo + 3))))
        operand = st.sampled_from(names) | st.integers(-3, 3)
        constraints = data.draw(st.lists(st.tuples(operand, st.sampled_from(sorted(_KEEP)), operand),
                                         max_size=3))
        grid = make_grid(ranges, tuple(f"{left}{op}{right}" for left, op, right in constraints))
        values = list(grid.values())
        assert values == [tuple(case.values()) for case in grid.cases()]
        assert all(list(case) == sorted(names) for case in grid.cases())
        slot = {name: i for i, name in enumerate(sorted(names))}
        spans = [range(ranges[name][0], ranges[name][1] + 1) for name in sorted(names)]
        expected = [
            v for v in itertools.product(*spans)
            if all(_KEEP[op](*(v[slot[x]] if isinstance(x, str) else x for x in (left, right)))
                   for left, op, right in constraints)
        ]
        assert values == expected
        assert grid.case_count() == len(values)
        # the same cases as lines: runs of at most size values of the last variable
        size = data.draw(st.integers(1, 3))
        lines = [(prefix, tuple(last)) for prefix, last in grid.lines(size)]
        assert [(*prefix, value) for prefix, last in lines for value in last] == values
        assert all(0 < len(last) <= size for _, last in lines)
        assert all(len(prefix) == len(names) - 1 for prefix, _ in lines)

    def test_literals_on_either_side(self):
        assert list(parse_grid("n=0..4;1<n;n!=3").values()) == [(2,), (4,)]
        assert list(parse_grid("n=0..2;2<1").values()) == []

    def test_empty_grid_yields_one_empty_tuple(self):
        assert list(make_grid({}).values()) == [()]
        # as a line: no prefix, and one value that no variable takes
        assert [(prefix, list(last)) for prefix, last in make_grid({}).lines(64)] == [((), [0])]
        assert list(parse_grid(";1<0").lines(64)) == []

    def test_case_count_counts_values_not_dicts(self, monkeypatch):
        def no_dicts(self):
            raise AssertionError("case_count built dict cases")

        monkeypatch.setattr(GridSpec, "cases", no_dicts)
        assert parse_grid("m=0..5,n=0..5;m<n;n<=3").case_count() == 6


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
