"""Verification report construction and serialization."""

import csv
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horadam import (
    EvalError,
    VerificationReport,
    catalog,
    catalog_list,
    catalog_run,
    dsl,
    get_named,
    kernel,
    make_grid,
    parse_grid,
    parse_identity,
    rat_text,
    report,
    run_grid,
    verify_identity_grid,
    verify_over_grid,
)
from horadam.grid import NAME
from horadam.report import Outcome, render_bindings


def _failing_outcome(case):
    # fails whenever n is even; skips n == 3
    n = case["n"]
    if n == 3:
        return None
    return (n, n + 1) if n % 2 == 0 else (n, n)


class TestRunGrid:
    def test_counts_and_counterexamples(self):
        report = run_grid("demo", parse_grid("n=0..4"), _failing_outcome)
        assert report.cases_total == 5
        assert report.cases_checked == 4
        assert report.cases_skipped_precondition == 1
        assert [b for b, _, _ in report.counterexamples] == [{"n": 0}, {"n": 2}, {"n": 4}]
        assert not report.holds
        assert report.exit_code() == 1

    def test_all_pass(self):
        report = run_grid("demo", parse_grid("n=1..5;n!=3"), lambda c: (1, 1))
        assert report.holds and report.exit_code() == 0
        assert report.cases_total == 4

    def test_empty_grid_holds_vacuously(self):
        report = run_grid("demo", parse_grid("n=2..1"), lambda c: (1, 2))
        assert report.cases_total == 0 and report.holds

    def test_rational_values_kept_exact(self):
        report = run_grid(
            "demo", parse_grid("n=0..0"), lambda c: (Fraction(1, 3), Fraction(2, 3))
        )
        _, lhs, rhs = report.counterexamples[0]
        assert lhs == Fraction(1, 3) and rhs == Fraction(2, 3)


# Constraints with literals, a skip at a = 0, and counterexamples with rational sides.
_CONTRACT_GRID = "n=-3..4,a=-2..2;a!=1;-2<=n"


def _positional(a, n):
    if a == 0:
        return None
    return (Fraction(a * n, 3), Fraction(n * a, 3)) if (a + n) % 3 else (a, Fraction(n, 2))


def _by_name(case):
    return _positional(case["a"], case["n"])


class TestOutcomeContract:
    def test_an_outcome_and_a_dict_function_give_one_report(self):
        grid = parse_grid(_CONTRACT_GRID)
        fast = run_grid("demo", grid, Outcome(_positional, ("a", "n")))
        plain = run_grid("demo", grid, _by_name)
        assert fast.counterexamples and fast.cases_skipped_precondition
        assert fast == plain
        assert [b for b, _, _ in fast.counterexamples] == [b for b, _, _ in plain.counterexamples]
        for fmt in ("json", "csv", "text"):
            assert fast.render(fmt) == plain.render(fmt)

    def test_a_skipped_line_skips_each_of_its_cases(self, monkeypatch):
        # a line function returns None for the whole line at a = 0, which is cut into
        # chunks of 3 values: every case of each chunk counts as skipped
        def line(prefix, last, out):
            if prefix == (0,):
                return None
            out += [_positional(*prefix, n) for n in last]
            return out

        monkeypatch.setattr(report, "_LINE", 3)
        grid = parse_grid(_CONTRACT_GRID)
        lines = run_grid("demo", grid, Outcome(_positional, ("a", "n"), line))
        cases = run_grid("demo", grid, Outcome(_positional, ("a", "n")))
        assert lines.cases_skipped_precondition == 7 and lines.counterexamples  # n = -2..4
        assert lines == cases
        for fmt in ("json", "csv", "text"):
            assert lines.render(fmt) == cases.render(fmt)

    def test_an_error_names_its_case_either_way(self):
        def raising(a, n):
            if (a, n) == (2, 3):
                raise EvalError("boom")
            return 1, 1

        outcomes = Outcome(raising, ("a", "n")), lambda case: raising(case["a"], case["n"])
        for outcome in outcomes:
            with pytest.raises(EvalError) as err:
                run_grid("demo", parse_grid(_CONTRACT_GRID), outcome)
            assert str(err.value) == "boom (case a=2;n=3)"
        # the one case of the empty grid binds nothing, so its errors carry no suffix
        for outcome in Outcome(lambda: raising(2, 3), ()), lambda case: raising(2, 3):
            with pytest.raises(EvalError) as err:
                run_grid("demo", make_grid({}), outcome)
            assert str(err.value) == "boom"

    def test_names_in_the_grids_order_are_called_by_position(self, monkeypatch):
        def by_name(self, case):
            raise AssertionError("run_grid built a dict case")

        monkeypatch.setattr(Outcome, "__call__", by_name)
        grid = parse_grid(_CONTRACT_GRID)
        assert run_grid("demo", grid, Outcome(_positional, ("a", "n"))).cases_total == 28

    def test_names_in_another_order_go_through_a_dict(self):
        # called with the grid's (a, n) by position, this outcome would swap them
        swapped = Outcome(lambda n, a: _positional(a, n), ("n", "a"))
        grid = parse_grid(_CONTRACT_GRID)
        assert run_grid("demo", grid, swapped) == run_grid("demo", grid, _by_name)

    def test_an_outcome_reads_a_dict_case_by_name(self):
        assert Outcome(lambda n, a: (n, a), ("n", "a"))({"a": 1, "n": 2}) == (2, 1)


class TestFrontEndsTakeThePositionalPath:
    def test_variables_are_in_sorted_order(self):
        # a grid's names are sorted, so an unsorted tuple would fall to the dict path
        for name, spec in kernel.IDENTITIES.items():
            assert list(spec.variables) == sorted(spec.variables), name
        for entry in catalog_list():
            assert list(entry.free_vars) == sorted(entry.free_vars), entry.id

    def test_run_grid_gets_outcomes_over_the_grids_names(self, monkeypatch):
        seen = []

        def recording(identity, grid, outcome):
            seen.append((identity, isinstance(outcome, Outcome) and outcome.names == grid.var_names))
            return report.run_grid(identity, grid, outcome)

        for module in (kernel, catalog, dsl):
            monkeypatch.setattr(module, "run_grid", recording)
        fib, one = get_named("fibonacci"), lambda names: make_grid({v: (1, 1) for v in names})
        for identity, spec in kernel.IDENTITIES.items():
            verify_identity_grid(identity, fib, fib, one(spec.variables))
        for entry in catalog_list():
            catalog_run(entry.id, one(entry.free_vars))
            for text in entry.dsl_texts:
                ast = parse_identity(text)
                registry = {**dsl.default_registry(), "H": get_named(entry.family)}
                verify_over_grid(ast, one(ast.free_vars), registry, entry.id)
        assert len(seen) == len(kernel.IDENTITIES) + sum(1 + len(e.dsl_texts) for e in catalog_list())
        assert [identity for identity, fast in seen if not fast] == []


class TestJson:
    def test_schema_key_order_and_values(self):
        report = run_grid("demo", parse_grid("n=0..2"), _failing_outcome)
        payload = report.to_json()
        assert payload.endswith("\n")
        obj = json.loads(payload)
        assert list(obj) == [
            "identity",
            "grid",
            "cases_total",
            "cases_checked",
            "cases_skipped_precondition",
            "counterexamples",
        ]
        assert obj["identity"] == "demo"
        assert obj["grid"] == "n=0..2"
        first = obj["counterexamples"][0]
        assert list(first) == ["bindings", "lhs", "rhs"]
        assert first["bindings"] == {"n": 0}
        assert isinstance(first["lhs"], str) and first["lhs"] == "0"

    def test_bindings_keys_sorted(self):
        grid = make_grid({"b": (1, 1), "a": (2, 2)})
        report = run_grid("demo", grid, lambda c: (c["a"], c["b"]))
        obj = json.loads(report.to_json())
        assert list(obj["counterexamples"][0]["bindings"]) == ["a", "b"]

    def test_byte_identical_for_equal_inputs(self):
        first = run_grid("demo", parse_grid("n=0..4"), _failing_outcome)
        second = run_grid("demo", parse_grid("n=0..4"), _failing_outcome)
        assert first.to_json() == second.to_json()
        assert first.to_csv() == second.to_csv()
        assert first.to_text() == second.to_text()


class TestCsv:
    def test_header_and_rows(self):
        report = run_grid("demo", parse_grid("n=0..2"), _failing_outcome)
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert rows[0] == [
            "identity",
            "grid",
            "cases_total",
            "cases_checked",
            "cases_skipped_precondition",
            "bindings",
            "lhs",
            "rhs",
        ]
        assert rows[1][:5] == ["demo", "n=0..2", "3", "3", "0"]
        assert rows[1][5:] == ["n=0", "0", "1"]
        assert rows[2][5:] == ["n=2", "2", "3"]

    def test_pass_emits_single_row_with_empty_cells(self):
        report = run_grid("demo", parse_grid("n=1..1"), lambda c: (1, 1))
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert len(rows) == 2
        assert rows[1][5:] == ["", "", ""]


class TestText:
    def test_pass_and_fail_lines(self):
        passing = run_grid("demo", parse_grid("n=1..1"), lambda c: (1, 1))
        assert "result: PASS" in passing.to_text()
        failing = run_grid("demo", parse_grid("n=0..0"), lambda c: (1, 2))
        text = failing.to_text()
        assert "result: FAIL" in text and "n=0" in text

    def test_counterexample_display_capped(self):
        report = run_grid("demo", parse_grid("n=1..50"), lambda c: (c["n"], 0))
        text = report.to_text()
        assert text.count("lhs=") == 20
        assert "30 more" in text


class TestSingleCase:
    def test_pass_report(self):
        report = run_grid("one", make_grid({"n": (4, 4), "k": (1, 1)}), lambda c: (7, 7))
        assert report.holds and report.cases_total == 1
        assert report.grid == "k=1,n=4"

    def test_fail_report(self):
        report = run_grid("one", make_grid({"n": (4, 4)}), lambda c: (7, 8))
        assert not report.holds
        bindings, lhs, rhs = report.counterexamples[0]
        assert bindings == {"n": 4} and (lhs, rhs) == (7, 8)


def _reference_csv(report) -> str:
    """Every row through csv.writer, as to_csv wrote them before it joined fields."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    fields = ["identity", "grid", "cases_total", "cases_checked", "cases_skipped_precondition"]
    writer.writerow([*fields, "bindings", "lhs", "rhs"])
    head = [getattr(report, name) for name in fields]
    if report.counterexamples:
        for bindings, lhs, rhs in report.counterexamples:
            writer.writerow(head + [render_bindings(bindings), rat_text(lhs), rat_text(rhs)])
    else:
        writer.writerow(head + ["", "", ""])
    return buf.getvalue()


def _outcome(render):
    """render()'s text, or its error: csv refuses a NUL before Python 3.11."""
    try:
        return render()
    except csv.Error as exc:
        return repr(exc)


# Labels mix what JSON escapes and CSV quotes with arbitrary text.
_AWKWARD = st.sampled_from([",", '"', "\\", "\t", "\n", "\r", "\x00", "\x1f", "\x7f", "é", "\u2028", "∑"])
_LABELS = st.text(_AWKWARD | st.characters(), max_size=12)
# Integers of 2**15 bits and more go through rat_text's decimal conversion.
_HUGE = st.sampled_from(((1 << (1 << 15)) + 1, -(3**20700), -(1 << 40000) + 7))
_VALUES = st.integers() | _HUGE | st.fractions() | st.builds(Fraction, _HUGE, st.integers(2, 10**9))
_BINDINGS = st.dictionaries(st.from_regex(rf"\A{NAME}\Z"), st.integers(), max_size=3)
_REPORTS = st.builds(
    VerificationReport, _LABELS, _LABELS,
    st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6),
    st.lists(st.tuples(_BINDINGS, _VALUES, _VALUES), max_size=5).map(tuple),
)


class TestWritersMatchTheStdlib:
    @settings(max_examples=150, deadline=None)
    @given(report=_REPORTS)
    def test_json_and_csv(self, report):
        assert report.to_json() == json.dumps(report.to_json_obj(), indent=2) + "\n"
        assert _outcome(report.to_csv) == _outcome(lambda: _reference_csv(report))

    def test_labels_with_newlines_and_quotes(self):
        report = VerificationReport('a,"b"\n\\', "n=0..1\n", 2, 2, 0, (({"n": 0}, 1, Fraction(-1, 2)), ({}, 0, 0)))
        assert report.to_json() == json.dumps(report.to_json_obj(), indent=2) + "\n"
        assert report.to_csv() == _reference_csv(report)
        assert json.loads(report.to_json())["identity"] == 'a,"b"\n\\'
        assert [row[:2] for row in csv.reader(io.StringIO(report.to_csv()))][1:] == [['a,"b"\n\\', "n=0..1\n"]] * 2
