"""Command-line interface: subcommands, formats, and the exit-code contract."""

import contextlib
import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import horadam
from horadam.cli import main
from conftest import EXPECTED_TABLE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_named_sequence(self, capsys):
        code, out, _ = run(capsys, "eval", "--seq", "fibonacci", "-n", "8")
        assert (code, out) == (0, "21\n")

    def test_custom_parameters_with_negative_index(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--p", "1", "--q", "2", "--g0", "0", "--g1", "1", "-n", "-5"
        )
        assert (code, out) == (0, "11/32\n")

    def test_zero_index(self, capsys):
        code, out, _ = run(capsys, "eval", "--seq", "fibonacci", "-n", "0")
        assert (code, out) == (0, "0\n")

    def test_alias(self, capsys):
        code, out, _ = run(capsys, "eval", "--seq", "Q", "-n", "3")
        assert (code, out) == (0, "14\n")

    def test_missing_selector_fails(self, capsys):
        code, _, err = run(capsys, "eval", "-n", "3")
        assert code == 2 and "error" in err

    def test_conflicting_selectors_fail(self, capsys):
        code, _, err = run(capsys, "eval", "--seq", "fibonacci", "--p", "1", "-n", "3")
        assert code == 2

    def test_partial_custom_parameters_fail(self, capsys):
        code, _, err = run(capsys, "eval", "--p", "1", "--q", "2", "-n", "3")
        assert code == 2 and "missing" in err

    def test_decimal_rational_rejected(self, capsys):
        code, _, _ = run(capsys, "eval", "--p", "1.5", "--q", "1", "--g0", "0", "--g1", "1", "-n", "2")
        assert code == 2

    def test_negative_fraction_as_separate_word(self, capsys):
        split = run(capsys, "eval", "--p", "-3/2", "--q", "2/3", "--g0", "-1/2", "--g1", "1", "-n", "3")
        joined = run(capsys, "eval", "--p=-3/2", "--q=2/3", "--g0=-1/2", "--g1=1", "-n", "3")
        assert split == joined == (0, "41/12\n", "")

    def test_unknown_sequence_suggests(self, capsys):
        code, _, err = run(capsys, "eval", "--seq", "fibonaci", "-n", "1")
        assert code == 2 and "did you mean" in err


class TestTable:
    def test_all_reproduces_reference_table(self, capsys):
        code, out, _ = run(capsys, "table", "--all", "--from", "-5", "--to", "8", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 14
        for line in lines:
            cells = line.split(",")
            n = int(cells[0])
            assert tuple(cells[1:]) == EXPECTED_TABLE[n]

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "table", "--seq", "lucas", "--from", "0", "--to", "0")
        assert (code, out) == (0, "0,2\n")

    def test_rational_cell(self, capsys):
        code, out, _ = run(capsys, "table", "--seq", "jacobsthal-lucas", "--from", "-4", "--to", "-4")
        assert (code, out) == (0, "-4,17/16\n")

    def test_reversed_bounds_fail(self, capsys):
        code, _, err = run(capsys, "table", "--seq", "lucas", "--from", "3", "--to", "2")
        assert code == 2
        assert err == "error: --from 3 is greater than --to 2\n"

    def test_all_excludes_seq(self, capsys):
        code, _, _ = run(capsys, "table", "--all", "--seq", "lucas", "--from", "0", "--to", "1")
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "table", "--all", "--from", "0", "--to", "1", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["columns"][0] == "n"
        assert obj["rows"][0][0] == "0"

    def test_text_format_has_header(self, capsys):
        code, out, _ = run(capsys, "table", "--seq", "pell", "--from", "0", "--to", "2", "--format", "text")
        assert code == 0
        assert out.splitlines()[0].split() == ["n", "pell"]

    @pytest.mark.parametrize("selector", [
        ("--all",),
        ("--p", "3/2", "--q", "-2/3", "--g0", "1/2", "--g1", "-3"),
    ])
    def test_json_and_csv_equal_the_stdlib_writers(self, capsys, selector):
        # The reference rows come from term(), not from the table's own recurrence.
        if selector == ("--all",):
            named = horadam.named_sequences()
            columns, seqs = ["n", *named], list(named.values())
        else:
            columns, seqs = ["n", "sequence"], [horadam.make_sequence("3/2", "-2/3", "1/2", -3)]
        rows = [[str(n)] + [horadam.rat_text(horadam.term(s, n)) for s in seqs] for n in range(-40, 41)]
        argv = ["table", *selector, "--from", "-40", "--to", "40", "--format"]
        assert run(capsys, *argv, "json") == (
            0, json.dumps({"columns": columns, "rows": rows}, indent=2) + "\n", "")
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert run(capsys, *argv, "csv") == (0, buf.getvalue(), "")


class TestVerify:
    def test_theorem1_small_grid(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "theorem1", "--seq", "fibonacci",
            "--h", "lucas",
            "--grid", "n=-2..2,m=-2..2,a=0..1,b=0..1,c=0..1,d=0..1",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["cases_total"] == 400
        assert obj["counterexamples"] == []

    def test_sum_with_skips(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "sum-ordinary:1", "--seq", "fibonacci",
            "--grid", "a=-1..1,b=-1..1,c=-1..1,d=-1..1,k=0..2,m=-1..1,n=0..0",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["cases_skipped_precondition"] >= 1
        assert obj["cases_checked"] + obj["cases_skipped_precondition"] == obj["cases_total"]

    def test_lemma_with_custom_relation(self, capsys):
        # F(n) = 2*F(n+1) - L(n)
        code, out, _ = run(
            capsys, "verify", "--identity", "lemma1", "--seq", "fibonacci",
            "--h", "lucas", "--f1", "2", "--f2", "-1", "--rel-a", "-1", "--rel-b", "0",
            "--grid", "k=0..4,n=-3..3",
        )
        assert code == 0
        assert json.loads(out)["counterexamples"] == []

    @pytest.mark.parametrize(
        "shifts, shown", [(("-1", "0"), "2*X(n+1) + 1*Y(n)"), (("1", "2"), "2*X(n-1) + 1*Y(n-2)")]
    )
    def test_failed_relation_names_its_shifts(self, capsys, shifts, shown):
        code, out, err = run(
            capsys, "verify", "--identity", "lemma1", "--seq", "fibonacci", "--h", "lucas",
            "--f1", "2", "--f2", "1", "--rel-a", shifts[0], "--rel-b", shifts[1],
            "--grid", "n=0,k=1",
        )
        assert (code, out) == (2, "")
        assert err == f"error: relation X(n) = {shown} fails at n=0 (case k=1;n=0)\n"

    @pytest.mark.parametrize(
        "identity, shown", [("lemma2:3", "2*X(n-1) + 1*X(n-2)"), ("lemma3:3", "1*X(n-2) + 2*X(n-1)")]
    )
    def test_failed_single_sequence_relation_names_only_x(self, capsys, identity, shown):
        code, out, err = run(
            capsys, "verify", "--identity", identity, "--seq", "fibonacci", "--f1", "2",
            "--grid", "n=0,k=1",
        )
        assert (code, out) == (2, "")
        assert err == f"error: relation X(n) = {shown} fails at n=2 (case k=1;n=0)\n"

    def test_negative_fractions_as_separate_words(self, capsys):
        # F(n) = -1/3*F(n+3) - 3/2*H(n+1) with H = -4/9*L
        grid = ["--rel-a", "-3", "--rel-b", "-1", "--grid", "k=0..4,n=-3..3"]
        split = run(
            capsys, "verify", "--identity", "lemma1", "--seq", "fibonacci",
            "--h0", "-8/9", "--h1", "-4/9", "--f1", "-1/3", "--f2", "-3/2", *grid,
        )
        joined = run(
            capsys, "verify", "--identity", "lemma1", "--seq", "fibonacci",
            "--h0=-8/9", "--h1=-4/9", "--f1=-1/3", "--f2=-3/2", *grid,
        )
        assert split == joined and split[0] == 0
        assert json.loads(split[1])["counterexamples"] == []

    @pytest.mark.parametrize("companion", [("--h", "lucas"), ("--h0", "2", "--h1", "1")])
    def test_companion_without_relation_refused_up_front(self, capsys, companion):
        code, out, err = run(
            capsys, "verify", "--identity", "lemma1", "--seq", "fibonacci", *companion,
        )
        assert (code, out) == (2, "")
        assert "fails at" not in err
        assert all(flag in err for flag in ("--f1", "--f2", "--rel-a", "--rel-b"))

    def test_companion_equal_to_base_keeps_default_relation(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "lemma1", "--seq", "fibonacci", "--h", "fibonacci",
        )
        assert code == 0 and json.loads(out)["counterexamples"] == []

    def test_relation_flags_on_non_lemma_fail(self, capsys):
        code, _, err = run(
            capsys, "verify", "--identity", "theorem1", "--seq", "fibonacci",
            "--f1", "2", "--grid", "a=0..0,b=1..1,c=0..0,d=1..1,m=0..0,n=0..0",
        )
        assert code == 2 and "lemma" in err

    def test_unknown_identity_fails(self, capsys):
        code, _, _ = run(capsys, "verify", "--identity", "nosuch", "--seq", "fibonacci")
        assert code == 2

    @pytest.mark.parametrize(
        "identity, companion",
        [("lemma3:1", ["--h", "pell"]), ("lemma2:2", ["--h0", "5", "--h1", "7"]),
         ("lemma2:3", ["--h", "fibonacci"])],
    )
    def test_companion_flags_on_single_sequence_lemma_fail(self, capsys, identity, companion):
        code, out, err = run(capsys, "verify", "--identity", identity, "--seq", "fibonacci",
                             *companion)
        assert (code, out) == (2, "")
        assert err.startswith("error: --h/--h0/--h1 do not apply to " + identity)

    def test_companion_initials(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "corollary", "--seq", "pell",
            "--h0", "3", "--h1", "-5", "--grid", "a=-1..1,b=-1..1,m=-1..1,n=-1..1",
        )
        assert code == 0 and json.loads(out)["counterexamples"] == []

    def test_mismatched_pair_fails(self, capsys):
        code, _, err = run(
            capsys, "verify", "--identity", "theorem1", "--seq", "fibonacci",
            "--h", "pell", "--grid", "a=0..0,b=1..1,c=0..0,d=1..1,m=0..0,n=0..0",
        )
        assert code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "corollary", "--seq", "fibonacci",
            "--grid", "a=0..1,b=0..1,m=0..1,n=0..1", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("identity,grid,cases_total")


class TestCatalog:
    def test_list_lines(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) >= 40
        assert all("\t" in line for line in lines)

    def test_run_entry(self, capsys):
        code, out, _ = run(capsys, "catalog", "run", "fib.catalan", "--grid", "n=0..8,m=0..8")
        assert code == 0
        assert json.loads(out)["cases_total"] == 81

    def test_run_unknown_id_fails_with_hint(self, capsys):
        code, _, err = run(capsys, "catalog", "run", "fib.catalann")
        assert code == 2 and "did you mean" in err

    def test_run_with_initials(self, capsys):
        code, out, _ = run(
            capsys, "catalog", "run", "jac.master",
            "--grid", "a=-1..1,b=-1..1,m=-1..1,n=-1..1", "--h0", "3", "--h1", "-5",
        )
        assert code == 0 and json.loads(out)["counterexamples"] == []

    def test_run_with_negative_fraction_initials(self, capsys):
        argv = ["catalog", "run", "jac.master", "--grid", "a=-1..1,b=-1..1,m=-1..1,n=-1..1"]
        split = run(capsys, *argv, "--h0", "-1/2", "--h1", "-5/3")
        joined = run(capsys, *argv, "--h0=-1/2", "--h1=-5/3")
        assert split == joined and split[0] == 0

    def test_half_initials_fail(self, capsys):
        code, _, _ = run(capsys, "catalog", "run", "fib.master", "--h0", "1")
        assert code == 2


class TestCheck:
    def test_passing_identity(self, capsys):
        code, out, _ = run(
            capsys, "check",
            "--expr", "F[n-m]*F[n+m] = F[n]^(2) + (-1)^(n+m+1)*F[m]^(2)",
            "--grid", "n=0..6,m=0..6",
        )
        assert code == 0
        assert json.loads(out)["cases_total"] == 49

    def test_false_identity_counterexample(self, capsys):
        code, out, _ = run(capsys, "check", "--expr", "F[n+1]=F[n]", "--grid", "n=0..3")
        assert code == 1
        first = json.loads(out)["counterexamples"][0]
        assert first == {"bindings": {"n": 0}, "lhs": "1", "rhs": "0"}

    def test_sides_that_are_one_rational_term(self, capsys):
        # each side is one Jacobsthal term, read as term()'s int or Fraction
        code, out, _ = run(capsys, "check", "--expr", "J[n+1]=J[n]", "--grid", "n=-3..3")
        jac = horadam.get_named("J")
        terms = {n: str(horadam.term(jac, n)) for n in range(-3, 5)}
        rows = [
            {"bindings": {"n": n}, "lhs": terms[n + 1], "rhs": terms[n]}
            for n in range(-3, 4) if n != 1
        ]
        report = {
            "identity": "J[n+1] = J[n]", "grid": "n=-3..3", "cases_total": 7, "cases_checked": 7,
            "cases_skipped_precondition": 0, "counterexamples": rows,
        }
        assert code == 1 and out == json.dumps(report, indent=2) + "\n"

    def test_underscore_variable_is_swept(self, capsys):
        code, out, _ = run(capsys, "check", "--expr", "_a + 1 = 1 + _a", "--grid", "_a=0..2;_a>=1")
        assert code == 0 and json.loads(out)["cases_checked"] == 2

    def test_parse_error_exit_two(self, capsys):
        code, _, err = run(capsys, "check", "--expr", "F[n", "--grid", "n=0..3")
        assert code == 2 and "column 4" in err

    def test_file_source(self, capsys, tmp_path):
        path = tmp_path / "identity.txt"
        path.write_text("L[n] = F[n-1] + F[n+1]\n", encoding="utf-8")
        code, out, _ = run(capsys, "check", "--file", str(path), "--grid", "n=-6..6")
        assert code == 0 and json.loads(out)["counterexamples"] == []

    @pytest.mark.parametrize(
        "name, message", [("missing.txt", "no such file"), ("", "not a file")],
        ids=["missing", "directory"],
    )
    def test_unreadable_file_fails(self, capsys, tmp_path, name, message):
        path = str(tmp_path / name)
        code, _, err = run(capsys, "check", "--file", path, "--grid", "n=0..1")
        assert code == 2 and err == f"error: {message}: {path}\n"

    def test_grid_required_when_free_vars(self, capsys):
        code, _, err = run(capsys, "check", "--expr", "F[n]=F[n]")
        assert code == 2 and "free variables" in err

    def test_closed_identity_needs_no_grid(self, capsys):
        code, out, _ = run(capsys, "check", "--expr", "F[8] = 21")
        assert code == 0
        assert json.loads(out)["cases_total"] == 1

    def test_declare_custom_sequence(self, capsys):
        code, out, _ = run(
            capsys, "check",
            "--declare", "X=1,1,3,-5",
            "--expr", "X[n+m] = F[m]*X[n+1] + F[m-1]*X[n]",
            "--grid", "n=-3..3,m=-3..3",
        )
        assert code == 0 and json.loads(out)["counterexamples"] == []

    @pytest.mark.parametrize("name", ["b", "_t0", "_power", "KeyError", "__import__", "sum"])
    def test_declared_names_like_generated_code_are_plain(self, capsys, name):
        def check(seq):
            return run(
                capsys, "check", "--declare", f"{seq}=1,1,3,-5",
                "--expr", f"{seq}[n+m] = F[m]*{seq}[n+1] + F[m]*{seq}[n]", "--grid", "n=-2..2,m=-2..2",
            )

        code, out, err = check(name)
        if name == "sum":  # reserved: the parser rejects it before the sweep
            assert code == 2 and "expected '(' after 'sum'" in err
            return
        plain_code, plain_out, _ = check("X")
        assert code == plain_code == 1
        assert json.loads(out)["counterexamples"] == json.loads(plain_out)["counterexamples"]

    def test_bad_declaration_fails(self, capsys):
        code, _, _ = run(capsys, "check", "--declare", "X=1,1", "--expr", "X[0]=1")
        assert code == 2

    @pytest.mark.parametrize("name", ["my seq", "α", "1X", "X[0]"])
    def test_declared_name_follows_the_identifier_rule(self, capsys, name):
        # a name the DSL cannot spell could never be referenced
        declaration = f"{name}=1,1,0,1"
        code, out, err = run(
            capsys, "check", "--expr", "F[n]=F[n]", "--declare", declaration, "--grid", "n=0..1"
        )
        assert (code, out) == (2, "")
        assert err == f"error: bad --declare {declaration!r}; expected NAME=p,q,g0,g1\n"

    @pytest.mark.parametrize("name", ["sum", "binom"])
    def test_declared_name_is_not_reserved(self, capsys, name):
        # sum[n] and binom[n] cannot be read: the DSL takes both words only before '('
        declaration = f"{name}=1,1,0,1"
        code, out, err = run(
            capsys, "check", "--expr", "F[n]=F[n]", "--declare", declaration, "--grid", "n=0..1"
        )
        assert (code, out) == (2, "")
        assert err == f"error: bad --declare {declaration!r}; {name!r} is reserved\n"

    def test_expr_and_file_mutually_exclusive(self, capsys):
        code, _, _ = run(capsys, "check", "--expr", "F[0]=0", "--file", "x", "--grid", "n=0..0")
        assert code == 2


class TestOutputPlumbing:
    def test_output_file_matches_stdout(self, capsys, tmp_path):
        argv = ["catalog", "run", "fib.halton", "--grid", "m=-2..2,n=-2..2"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        path = tmp_path / "report.json"
        code2 = main(argv + ["--output", str(path)])
        capsys.readouterr()
        assert code2 == 0
        assert path.read_text(encoding="utf-8") == out

    def test_reruns_byte_identical(self, capsys):
        argv = ["verify", "--identity", "corollary", "--seq", "jacobsthal",
                "--grid", "a=-2..2,b=-2..2,m=-2..2,n=-2..2"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_no_subcommand_fails(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_fails(self, capsys):
        assert main(["eval", "--seq", "fibonacci", "-n", "1", "--bogus"]) == 2


class TestExitContract:
    """Every failure exits 2 with one "error:" line; 1 means a counterexample."""

    def _assert_usage_failure(self, capsys, *argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_output_into_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.txt"
        self._assert_usage_failure(capsys, "eval", "--seq", "fibonacci", "-n", "3",
                                   "--output", str(target))

    def test_output_names_a_directory(self, capsys, tmp_path):
        self._assert_usage_failure(capsys, "table", "--seq", "lucas", "--from", "0", "--to", "3",
                                   "--output", str(tmp_path))

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "identity.txt"
        path.write_bytes(b"F[n] = F[n] \xff\xfe\n")
        self._assert_usage_failure(capsys, "check", "--file", str(path), "--grid", "n=0..1")

    def test_deeply_nested_expression(self, capsys):
        text = "(" * 3000 + "1" + ")" * 3000 + " = 1"
        self._assert_usage_failure(capsys, "check", "--expr", text)

    @pytest.mark.parametrize(
        "text",
        ["(" * 250 + "1" + ")" * 250 + " = 1", "+".join(["1"] * 1000) + " = 1000"],
        ids=["250-brackets", "1000-term-chain"],
    )
    def test_nesting_cap_names_the_cause(self, capsys, text):
        code, _, err = run(capsys, "check", "--expr", text)
        assert code == 2
        assert "nested too deeply" in err and "recursion" not in err

    @pytest.mark.parametrize(
        "text, grid",
        [("X[n]=1", "n=1..0"), ("sum(j,1,0,X[j])=0*n", "n=1..2")],
        ids=["empty-grid", "empty-sum"],
    )
    def test_unknown_sequence_name_fails_before_the_sweep(self, capsys, text, grid):
        code, out, err = run(capsys, "check", "--expr", text, "--grid", grid)
        assert (code, out, err) == (2, "", "error: unknown sequence name 'X'\n")

    @pytest.mark.parametrize("kind", ["ordinary", "binomial"])
    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_negative_summation_bound_is_a_usage_error(self, capsys, kind, variant):
        grid = "a=0,b=1,k=-1,m=0,n=0"
        code, out, err = run(capsys, "catalog", "run", f"fib.sum.{kind}.{variant}", "--grid", grid)
        assert (code, out) == (2, "")
        assert err == (
            "error: summation bound k must be non-negative, got -1 (case a=0;b=1;k=-1;m=0;n=0)\n"
        )

    def test_odd_even_split_accepts_negative_k(self, capsys):
        code, out, _ = run(capsys, "catalog", "run", "jac.odd-even-split",
                           "--grid", "k=-3..-1,m=-2..2,n=-2..2")
        assert code == 0 and json.loads(out)["cases_checked"] == 75

    @pytest.mark.parametrize(
        "text, bad, col",
        [("F[²] = 1", "²", 3), ("F[٣] = 3", "٣", 3), ("α + 1 = 1 + α", "α", 1)],
        ids=["superscript-digit", "arabic-indic-digit", "greek-letter"],
    )
    def test_non_ascii_literal_or_name_is_a_parse_error(self, capsys, text, bad, col):
        code, out, err = run(capsys, "check", "--expr", text, "--grid", "n=0..1")
        assert (code, out) == (2, "")
        assert err == f"error: unexpected character {bad!r} (line 1, column {col})\n"

    @pytest.mark.parametrize(
        "argv, last_line",
        [
            (["eval", "--seq", "fibonacci", "-n", "١٠"],
             "horadam eval: error: argument -n/--index: not an integer: '١٠'"),
            (["eval", "--p", "٣/٢", "--q", "2/3", "--g0", "2", "--g1", "-3", "-n", "3"],
             "horadam eval: error: argument --p: not a rational literal: '٣/٢' (expected 'n' or 'n/d')"),
            (["table", "--seq", "fibonacci", "--from", "٠", "--to", "2"],
             "horadam table: error: argument --from: not an integer: '٠'"),
        ],
        ids=["eval-index", "eval-p", "table-from"],
    )
    def test_non_ascii_digits_in_numeric_arguments(self, capsys, argv, last_line):
        # argparse puts its usage above the one error line
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"\n{last_line}\n") and err.count("error:") == 1

    @pytest.mark.parametrize(
        "argv, last_line",
        [
            (["eval", "--seq", "fibonacci", "-n", "1_0"],
             "horadam eval: error: argument -n/--index: not an integer: '1_0'"),
            (["table", "--seq", "fibonacci", "--from", " 1_0", "--to", "2"],
             "horadam table: error: argument --from: not an integer: ' 1_0'"),
            (["eval", "--seq", "fibonacci", "-n", "\n10"],
             "horadam eval: error: argument -n/--index: not an integer: '\\n10'"),
            (["eval", "--p", "1_0", "--q", "1", "--g0", "0", "--g1", "1", "-n", "3"],
             "horadam eval: error: argument --p: not a rational literal: '1_0' (expected 'n' or 'n/d')"),
        ],
        ids=["eval-underscore", "table-underscore", "eval-newline", "eval-p-underscore"],
    )
    def test_number_rule_refuses_underscores_and_other_blanks(self, capsys, argv, last_line):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"\n{last_line}\n") and err.count("error:") == 1

    @pytest.mark.parametrize(
        "argv, last_line",
        [
            (["eval", "--seq", "fibonacci", "-n", "-1_0"],
             "horadam eval: error: argument -n/--index: not an integer: '-1_0'"),
            (["eval", "--seq", "fibonacci", "-n", "--5"],
             "horadam eval: error: argument -n/--index: not an integer: '--5'"),
            (["eval", "--seq", "fibonacci", "--index", "--5"],
             "horadam eval: error: argument -n/--index: not an integer: '--5'"),
            (["eval", "--seq", "fibonacci", "-n", "+-5"],
             "horadam eval: error: argument -n/--index: not an integer: '+-5'"),
            (["table", "--seq", "fibonacci", "--from", "-+1", "--to", "2"],
             "horadam table: error: argument --from: not an integer: '-+1'"),
            (["eval", "--p", "--3/2", "--q", "1", "--g0", "0", "--g1", "1", "-n", "3"],
             "horadam eval: error: argument --p: not a rational literal: '--3/2'"
             " (expected 'n' or 'n/d')"),
            (["eval", "--seq", "fibonacci", "-n", "--output", "x"],
             "horadam eval: error: argument -n/--index: expected one argument"),
            (["eval", "--p", "1", "--q", "1", "--g0", "0", "-n", "--g1", "1"],
             "horadam eval: error: argument -n/--index: expected one argument"),
        ],
        ids=["underscore", "double-dash", "long-flag", "plus-minus", "table-minus-plus",
             "rational", "flag-after-flag", "digit-flag-after-flag"],
    )
    def test_signed_word_after_a_number_flag_meets_the_number_rule(self, capsys, argv, last_line):
        # a "-"-led word that looks like a number is the flag's value, judged by
        # the number rule; a real flag after a number flag is still argparse's
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"\n{last_line}\n") and err.count("error:") == 1

    def test_signed_values_after_number_flags_still_parse(self, capsys):
        argv = ["eval", "--p", "-3/2", "--q", "2/3", "--g0", "2", "--g1", "-3", "-n", "-3"]
        assert run(capsys, *argv)[:2] == (0, "27/4\n")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["eval", "--seq", "fibonacci", "-n", " 10 "], "55\n"),
            (["eval", "--seq", "fibonacci", "-n", "\t+10"], "55\n"),
            (["eval", "--p", " 1 ", "--q", "+1", "--g0", "\t0", "--g1", "1/1 ", "-n", "10"], "55\n"),
            (["table", "--seq", "fibonacci", "--from", "+9 ", "--to", " 10"], "9,34\n10,55\n"),
            (["check", "--expr", "F[n]=F[n]", "--grid", "n=+1.. 2 ;n>=\t+2", "--format", "csv"],
             "identity,grid,cases_total,cases_checked,cases_skipped_precondition,bindings,lhs,rhs\n"
             "F[n] = F[n],n=+1.. 2 ;n>=\t+2,1,1,0,,,\n"),
        ],
        ids=["eval-blanks", "eval-tab-plus", "eval-rationals", "table", "grid"],
    )
    def test_number_rule_takes_a_sign_and_blanks_around(self, capsys, argv, expected):
        assert run(capsys, *argv) == (0, expected, "")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--identity", "theorem1", "--seq", "fibonacci", "--grid", "n=0..1"],
             "grid variables do not match identity 'theorem1': missing a, b, c, d, m"),
            (["catalog", "run", "fib.catalan", "--grid", "n=0..1"],
             "grid variables do not match catalog entry 'fib.catalan': missing m"),
            (["catalog", "run", "fib.catalan", "--grid", "k=0,n=0..1"],
             "grid variables do not match catalog entry 'fib.catalan': missing m; unused k"),
            (["check", "--expr", "F[n]=F[m]", "--grid", "k=0,n=0..1"],
             "grid variables do not match identity: missing m; unused k"),
        ],
        ids=["verify", "catalog", "catalog-unused", "check"],
    )
    def test_grid_variable_mismatch_has_one_message(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("n=0..3;n<q", "constraint uses unknown variable 'q'"),
            ("n=0..3,n=1", "duplicate grid variable 'n'"),
            ("n=0..x", "bad grid range 'n=0..x', expected var=lo..hi"),
            ("n=0..3;", "empty grid constraint"),
            ("n=0..3;n<<2", "bad grid constraint 'n<<2'"),
            ("n=٠..٣", "bad grid range 'n=٠..٣', expected var=lo..hi"),
            ("n=0..3;n<٣", "bad grid constraint 'n<٣'"),
            ("n=1_0..2", "bad grid range 'n=1_0..2', expected var=lo..hi"),
            ("n=0..3;n<1_0", "bad grid constraint 'n<1_0'"),
            ("n=0..3,\nm=0", "bad grid range '\\nm=0', expected var=lo..hi"),
        ],
        ids=["unknown-variable", "duplicate", "bad-range", "empty-constraint", "bad-constraint",
             "non-ascii-range", "non-ascii-constraint", "underscore-range", "underscore-constraint",
             "newline"],
    )
    def test_grid_error_carries_no_location(self, capsys, grid, message):
        code, out, err = run(capsys, "check", "--expr", "F[n]=F[n]", "--grid", grid)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_mid_sweep_error_names_binding(self, capsys):
        code, _, err = run(capsys, "check", "--expr", "F[n]^(-1)*F[n] = 1", "--grid", "n=-2..2")
        assert code == 2
        assert "zero raised to a negative power" in err and "n=0" in err


_RANGE = st.tuples(st.integers(-3, 3), st.integers(0, 1)).map(
    lambda t: f"{t[0]}..{min(t[0] + t[1], 3)}"
)
_RATIONAL_WORDS = st.sampled_from(["0", "1", "-5", "3", "1/2", "-3/7"])
_CHECK_TEXTS = (
    "F[n+1] = F[n] + F[n-1]",
    "F[n+1] = F[n]",
    "sum(j,0,k,F[j]) = F[k+2] - 1",
    "F[n]^(-1)*F[n] = 1",
    "binom(k,n) = binom(k,k-n)",
    "F[n",
    "F[²] = 1",
    "F[٣] = 3",
    "α + 1 = 1 + α",
)


def _grid_text(draw, names) -> str:
    return ",".join(f"{name}={draw(_RANGE)}" for name in names)


def _with_format(draw, argv: list) -> list:
    return argv + ["--format", draw(st.sampled_from(["json", "csv", "text"]))]


@st.composite
def _catalog_argvs(draw) -> list:
    entry = draw(st.sampled_from(horadam.catalog_list()))
    argv = ["catalog", "run", entry.id, "--grid", _grid_text(draw, entry.free_vars)]
    if draw(st.booleans()):
        argv += ["--h0", draw(_RATIONAL_WORDS), "--h1", draw(_RATIONAL_WORDS)]
    return _with_format(draw, argv)


@st.composite
def _verify_argvs(draw) -> list:
    identity = draw(st.sampled_from(horadam.IDENTITY_NAMES))
    names = sorted(horadam.named_sequences())
    argv = ["verify", "--identity", identity, "--seq", draw(st.sampled_from(names)),
            "--grid", _grid_text(draw, horadam.identity_variables(identity))]
    companion = draw(st.sampled_from(["none", "named", "initials"]))
    if companion == "named":
        argv += ["--h", draw(st.sampled_from(names))]
    elif companion == "initials":
        argv += ["--h0", draw(_RATIONAL_WORDS), "--h1", draw(_RATIONAL_WORDS)]
    return _with_format(draw, argv)


@st.composite
def _check_argvs(draw) -> list:
    text = draw(st.sampled_from(_CHECK_TEXTS))
    return _with_format(draw, ["check", "--expr", text, "--grid", _grid_text(draw, ("k", "n"))])


@st.composite
def _number_word(draw, value: int) -> str:
    """value's text bent about the number rule: a leading 0 split off by "_", a "+", blanks."""
    digits = str(abs(value))
    if draw(st.booleans()):
        digits = "0" + draw(st.sampled_from(["", "_"])) + digits
    sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
    blank = st.sampled_from(["", " ", "\t", "\n", "\u00a0"])
    return draw(blank) + sign + digits + draw(blank)


@st.composite
def _number_argvs(draw) -> list:
    def word(lo: int, hi: int) -> str:
        return draw(_number_word(draw(st.integers(lo, hi))))

    form = draw(st.sampled_from(["eval", "rational", "table", "declare", "initials", "grid"]))
    if form == "eval":
        return ["eval", "--seq", "lucas", "-n", word(-30, 30)]
    if form == "rational":
        return ["eval", "--p", f"{word(-3, 3)}/{word(1, 3)}", "--q", word(1, 3),
                "--g0", "0", "--g1", "1", "-n", "5"]
    if form == "table":
        return ["table", "--all", "--from", word(-5, 0), "--to", word(0, 5)]
    if form == "declare":
        return ["check", "--expr", "X[n+1] = X[n] + X[n-1]", "--grid", "n=-3..3",
                "--declare", "X=" + ",".join(word(-2, 2) for _ in range(4))]
    if form == "initials":
        return ["catalog", "run", "fib.catalan-general", "--grid", "m=-2..2,n=-2..2",
                "--h0", word(-3, 3), "--h1", word(-3, 3)]
    return _with_format(draw, ["check", "--expr", "F[n+1] = F[n] + F[n-1]",
                               "--grid", f"n={word(-3, 0)}..{word(0, 3)};n!={word(-3, 3)}"])


def _quiet_main(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert "Traceback" not in err.getvalue(), argv
    return code, out.getvalue()


@pytest.mark.parametrize(
    "argvs", [_catalog_argvs(), _verify_argvs(), _check_argvs(), _number_argvs()],
    ids=["catalog", "verify", "check", "numbers"],
)
@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_exit_codes_are_total_and_reruns_repeat(argvs, data):
    # In process, so an escaping exception fails the property itself.
    argv = data.draw(argvs)
    first = _quiet_main(argv)
    assert first[0] in (0, 1, 2), argv
    assert _quiet_main(argv) == first, argv


def test_import_leaves_cli_and_argparse_unloaded():
    src = Path(horadam.__file__).resolve().parent.parent
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import horadam; "
        "print(sorted({'horadam.cli', 'argparse'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout == "[]\n"
