"""Verification report construction and serialization."""

import csv
import io
import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from horadam import VerificationReport, make_grid, parse_grid, rat_text, run_grid
from horadam.grid import NAME
from horadam.report import render_bindings


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
