"""DSL tokenizer, parser, pretty printer, and evaluator."""

import math
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horadam import (
    DomainError,
    EvalError,
    ParseError,
    UsageError,
    catalog_list,
    default_registry,
    eval_expr,
    get_named,
    make_grid,
    make_sequence,
    parse_expression,
    parse_grid,
    parse_identity,
    pretty_print,
    term,
    verify_over_grid,
)
from horadam import dsl
from horadam.report import _LINE, Outcome, render_bindings, run_grid
from horadam.sequences import _Terms, is_whole
from horadam.dsl import (
    MAX_DEPTH, Add, Binom, IdentityAst, IntLit, Mul, Neg, Pow, SeqTerm, Sub, Sum, Var, _Node,
)

REG = default_registry()


class TestParsing:
    def test_catalan_identity(self):
        ast = parse_identity("F[n-m]*F[n+m] = F[n]^(2) + (-1)^(n+m+1)*F[m]^(2)")
        assert ast.free_vars == ("n", "m")
        # the (-1) base parses as a negated literal, not a distinct node kind
        power = ast.rhs.right.left
        assert isinstance(power, Pow)
        assert power.base == Neg(IntLit(1))

    def test_trivial_identity(self):
        ast = parse_identity("F[n] = F[n]")
        assert ast.free_vars == ("n",)
        assert ast.lhs == ast.rhs == SeqTerm("F", Var("n"))

    def test_free_vars_in_first_occurrence_order(self):
        ast = parse_identity("H[k+n] = m*H[k] + n - m")
        assert ast.free_vars == ("k", "n", "m")

    def test_sum_binds_its_variable(self):
        ast = parse_identity("sum(j,0,k,F[n+j]) = F[n+k+2] - F[n+1]")
        assert ast.free_vars == ("k", "n")

    def test_index_products_allowed(self):
        ast = parse_expression("H[n-(m-a)*k+(a-b)*(k-j)]")
        assert isinstance(ast, SeqTerm)

    def test_whitespace_insensitive(self):
        a = parse_identity("F[n+1]=F[n]+F[n-1]")
        b = parse_identity("  F[ n + 1 ]\t=\nF[n] + F[ n - 1 ]")
        assert a.lhs == b.lhs and a.rhs == b.rhs


def _nested_sums(depth: int, leaf: str) -> str:
    """depth one-term sums, each over its own variable, around leaf."""
    for i in range(depth):
        leaf = f"sum(i{i},1,1,{leaf})"
    return leaf


def _nested_powers(depth: int) -> str:
    text = "n"
    for _ in range(depth):
        text = f"({text})^(1)"
    return text


def _nest(depth: int, wrap, leaf):
    """leaf wrapped depth times; wrap takes the inner node and its count."""
    for i in range(depth):
        leaf = wrap(leaf, i)
    return leaf


def _tree_depth(node) -> int:
    children = [v for v in node if isinstance(v, _Node)]
    return 1 + max(map(_tree_depth, children), default=0)


class TestParseErrors:
    def test_unclosed_bracket_reports_column(self):
        with pytest.raises(ParseError) as info:
            parse_identity("F[n")
        assert info.value.line == 1 and info.value.column == 4
        assert "column 4" in str(info.value)

    def test_error_on_second_line(self):
        with pytest.raises(ParseError) as info:
            parse_identity("F[n] =\n   +")
        assert info.value.line == 2

    @pytest.mark.parametrize(
        "parse, text, message, line, column",
        [
            (parse_identity, "F[n]\t= F[n] / 2", "unexpected character '/'", 1, 13),
            (parse_identity, "F[n] =\r\n  + 1", "expected an expression, found '+'", 2, 3),
            (parse_identity, "F[n]\r= F[n] F[n]", "unexpected trailing 'F'", 1, 13),
            (parse_identity, "F[n] =\n", "expected an expression, found end of input", 2, 1),
            (parse_identity, "F[n] =\n ²", "unexpected character '²'", 2, 2),
            (
                parse_identity, "F[sum] = 1",
                "'sum' is reserved and cannot be an index variable", 1, 3,
            ),
            (
                parse_identity, "sum(sum,0,1,F[n]) = 0",
                "'sum' is reserved and cannot name a summation variable", 1, 5,
            ),
            (parse_identity, "F[n] = F[n] F[n]", "unexpected trailing 'F'", 1, 13),
            (parse_expression, "F[n]\n  )", "unexpected trailing ')'", 2, 3),
            (parse_expression, "F[n] = 1", "unexpected trailing '='", 1, 6),
        ],
        ids=[
            "tab", "crlf", "cr", "eof-after-newline", "non-ascii-line-2", "sum-index",
            "sum-variable", "trailing-identity", "trailing-expression", "expression-equals",
        ],
    )
    def test_error_text_and_position(self, parse, text, message, line, column):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (info.value.message, info.value.line, info.value.column) == (message, line, column)
        assert str(info.value) == f"{message} (line {line}, column {column})"

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse_identity("F[n] = F[n] / 2")

    def test_missing_equals(self):
        with pytest.raises(ParseError):
            parse_identity("F[n+1]")

    def test_trailing_junk(self):
        with pytest.raises(ParseError):
            parse_identity("F[n] = F[n] F[n]")

    def test_exponent_requires_parentheses(self):
        with pytest.raises(ParseError):
            parse_identity("F[n]^2 = F[n]")

    @pytest.mark.parametrize("text", ["sum = 1", "binom[2] = 1", "F[sum] = 1"])
    def test_reserved_names_rejected(self, text):
        with pytest.raises(ParseError):
            parse_identity(text)

    def test_sum_variable_shadowing_outer_sum_rejected(self):
        with pytest.raises(ParseError, match="shadows"):
            parse_identity("sum(j,0,2,sum(j,0,2,F[j])) = 0")

    def test_sum_variable_shadowing_free_variable_rejected(self):
        with pytest.raises(ParseError, match="shadows"):
            parse_identity("sum(j,0,2,F[j]) + j = 0")

    @pytest.mark.parametrize(
        "text",
        [
            "(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH + " = 1",
            "F[" + "(" * MAX_DEPTH + "n" + ")" * MAX_DEPTH + "] = 0",
            "1 = " + "+".join(["n"] * (MAX_DEPTH + 1)),
        ],
        ids=["brackets", "index-brackets", "flat-chain"],
    )
    def test_nesting_past_the_cap_rejected(self, text):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_identity(text)

    @pytest.mark.parametrize(
        "build, depth, tree",
        [
            (lambda d: "(" * d + "n" + ")" * d + " = n", MAX_DEPTH - 1, lambda d: Var("n")),
            (
                lambda d: "+".join(["n"] * d) + f" = {d}*n",
                MAX_DEPTH,
                lambda d: _nest(d - 1, lambda t, _: Add(t, Var("n")), Var("n")),
            ),
            (
                lambda d: _nested_sums(d, "n") + " = n",
                MAX_DEPTH - 1,
                lambda d: _nest(d, lambda t, i: Sum(f"i{i}", IntLit(1), IntLit(1), t), Var("n")),
            ),
            (
                lambda d: _nested_sums(d, "F[n]") + " = F[n]",
                MAX_DEPTH - 2,
                lambda d: _nest(
                    d, lambda t, i: Sum(f"i{i}", IntLit(1), IntLit(1), t), SeqTerm("F", Var("n"))
                ),
            ),
            (
                lambda d: _nested_powers(d) + " = n",
                MAX_DEPTH - 1,
                lambda d: _nest(d, lambda t, _: Pow(t, IntLit(1)), Var("n")),
            ),
            (
                lambda d: "F[" + "(" * d + "n" + ")" * d + "] = F[n]",
                MAX_DEPTH - 2,
                lambda d: SeqTerm("F", Var("n")),
            ),
        ],
        ids=["brackets", "flat-chain", "sums", "sums-of-terms", "powers", "index-brackets"],
    )
    def test_nesting_at_the_cap_parses(self, build, depth, tree):
        # the deepest tree of each shape parses to the expected tree and
        # evaluates; one level more does not parse
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_identity(build(depth + 1))
        text = build(depth)
        ast = parse_identity(text)
        assert ast.free_vars == ("n",)
        assert ast.lhs == tree(depth)
        assert parse_expression(text.split(" = ")[0]) == tree(depth)
        report = verify_over_grid(ast, make_grid({"n": (-2, 2)}), REG)
        assert report.holds and report.cases_checked == 5
        assert eval_expr(ast.lhs, {"n": -3}, REG) == eval_expr(ast.rhs, {"n": -3}, REG)


class TestPrettyPrint:
    @pytest.mark.parametrize(
        "text",
        [
            "F[n-m]*F[n+m] = F[n]^(2) + (-1)^(n+m+1)*F[m]^(2)",
            "-2*F[n] = F[n] - 3*F[n]",
            "H[n+m] = J[m]*H[n+1] + 2*J[m-1]*H[n]",
            "sum(j,0,k,binom(k,j)*F[j]) = F[2*k] + 1",
            "(F[n] + F[m])*(F[n] - F[m]) = F[n]^(2) - F[m]^(2)",
            "2^(n-(m-a)*k) = 2^(n)*2^(-(m-a)*k)",
            "(-2)^(n+1)*H[n] = -2*(-2)^(n)*H[n]",
        ],
    )
    def test_round_trips_to_equal_tree(self, text):
        ast = parse_identity(text)
        reparsed = parse_identity(pretty_print(ast))
        assert reparsed.lhs == ast.lhs
        assert reparsed.rhs == ast.rhs
        assert reparsed.free_vars == ast.free_vars

    def test_catalog_texts_round_trip(self):
        for entry in catalog_list():
            for text in entry.dsl_texts:
                ast = parse_identity(text)
                assert parse_identity(pretty_print(ast)) == ast, entry.id

    def test_printer_is_stable(self):
        text = "F[n]*(F[m] + 1) = F[n]*F[m] + F[n]"
        once = pretty_print(parse_identity(text))
        assert pretty_print(parse_identity(once)) == once

    @pytest.mark.parametrize(
        "node, text",
        [
            (Mul(Var("n"), IntLit(-3)), "n*(-3)"),
            (SeqTerm("F", Add(Var("n"), IntLit(-1))), "F[n+(-1)]"),
            (Pow(IntLit(-2), IntLit(-1)), "(-2)^(-1)"),
            (Neg(IntLit(-1)), "-(-1)"),
            (Add(IntLit(-1), Var("n")), "-1 + n"),
        ],
    )
    def test_negative_literals_print_as_negations(self, node, text):
        # a hand-built negative literal binds like Neg, so its text re-parses
        assert pretty_print(node) == text
        assert eval_expr(parse_expression(text), {"n": 2}, REG) == eval_expr(node, {"n": 2}, REG)

    def test_composite_power_bases_get_parentheses(self):
        # a bare chain like 2^(n)^(m) is not grammatical, so the printer
        # must parenthesize any non-atomic base
        cases = [
            Pow(Pow(IntLit(2), Var("n")), Var("m")),
            Pow(Mul(IntLit(2), Var("n")), IntLit(3)),
            Neg(Neg(Var("n"))),
        ]
        for node in cases:
            assert parse_expression(pretty_print(node)) == node, pretty_print(node)


# Random expression trees for the round-trip property. Kept small: the point
# is operator/parenthesis interplay, not bulk.
_index_leaf = st.one_of(
    st.integers(min_value=0, max_value=9).map(IntLit),
    st.sampled_from("nmk").map(Var),
)


def _index_nodes(children):
    return st.one_of(
        st.tuples(children, children).map(lambda t: Add(*t)),
        st.tuples(children, children).map(lambda t: Sub(*t)),
        st.tuples(children, children).map(lambda t: Mul(*t)),
        children.map(Neg),
    )


index_exprs = st.recursive(_index_leaf, _index_nodes, max_leaves=6)

_value_leaf = st.one_of(
    st.integers(min_value=0, max_value=9).map(IntLit),
    st.sampled_from("nmk").map(Var),
    index_exprs.map(lambda ix: SeqTerm("F", ix)),
)


def _value_nodes(children):
    return st.one_of(
        st.tuples(children, children).map(lambda t: Add(*t)),
        st.tuples(children, children).map(lambda t: Sub(*t)),
        st.tuples(children, children).map(lambda t: Mul(*t)),
        children.map(Neg),
        st.tuples(children, index_exprs).map(lambda t: Pow(*t)),
        st.tuples(index_exprs, index_exprs).map(lambda t: Binom(*t)),
    )


value_exprs = st.recursive(_value_leaf, _value_nodes, max_leaves=8)

# Trees with hand-built negative literals, which print with a leading "-" and
# re-parse as Neg(IntLit(...)): equal in value, not in shape. Indices and
# exponents stay small so that the values do.
_signed_literal = st.integers(min_value=-9, max_value=9).map(IntLit)
_signed_index = st.recursive(
    st.one_of(st.integers(-3, 3).map(IntLit), st.sampled_from("nm").map(Var)),
    _index_nodes,
    max_leaves=3,
)


def _signed_nodes(children):
    return st.one_of(
        st.tuples(children, children).map(lambda t: Add(*t)),
        st.tuples(children, children).map(lambda t: Sub(*t)),
        st.tuples(children, children).map(lambda t: Mul(*t)),
        children.map(Neg),
        st.tuples(children, st.integers(-2, 2).map(IntLit)).map(lambda t: Pow(*t)),
        st.tuples(_signed_index, _signed_index).map(lambda t: Binom(*t)),
    )


signed_exprs = st.recursive(
    st.one_of(
        _signed_literal,
        st.sampled_from("nm").map(Var),
        _signed_index.map(lambda ix: SeqTerm("F", ix)),
    ),
    _signed_nodes,
    max_leaves=8,
)


class TestRoundTripProperty:
    @given(node=value_exprs)
    @settings(max_examples=200)
    def test_random_trees_round_trip(self, node):
        text = pretty_print(node)
        assert parse_expression(text) == node

    @given(ix=index_exprs)
    @settings(max_examples=150)
    def test_random_index_trees_round_trip(self, ix):
        node = SeqTerm("H", ix)
        assert parse_expression(pretty_print(node)) == node

    @given(node=signed_exprs, n=st.integers(-3, 3), m=st.integers(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_negative_literals_round_trip_in_value(self, node, n, m):
        reparsed = parse_expression(pretty_print(node))
        bindings = {"n": n, "m": m}
        assert _outcome(lambda: eval_expr(reparsed, bindings, REG)) == _outcome(
            lambda: eval_expr(node, bindings, REG)
        )


class TestEval:
    def test_parity_power(self):
        node = parse_expression("(-1)^(n+m+1)")
        assert eval_expr(node, {"n": 5, "m": 3}, REG) == -1
        assert eval_expr(node, {"n": 5, "m": 4}, REG) == 1

    def test_sequence_term_with_negative_index(self):
        assert eval_expr(parse_expression("J[-5]"), {}, REG) == Fraction(11, 32)

    def test_sum_of_binomials(self):
        node = parse_expression("sum(j, 0, 2, binom(2,j))")
        assert eval_expr(node, {}, REG) == 4

    def test_empty_sum_is_zero(self):
        assert eval_expr(parse_expression("sum(j, 1, 0, F[j])"), {}, REG) == 0
        assert eval_expr(parse_expression("sum(j, 1, k, F[j])"), {"k": -3}, REG) == 0

    def test_sum_bounds_from_outer_variables(self):
        node = parse_expression("sum(j, a, a+2, j)")
        assert eval_expr(node, {"a": 5}, REG) == 18

    def test_nested_sums(self):
        node = parse_expression("sum(i, 0, 2, sum(j, 0, i, 1))")
        assert eval_expr(node, {}, REG) == 6

    def test_inner_sum_body_reads_the_outer_variable(self):
        node = parse_expression("sum(i, 0, 2, sum(j, 0, 1, 10*i + j))")
        assert eval_expr(node, {}, REG) == 63

    def test_shadowing_sum_restores_the_outer_binding(self):
        # hand-built (the parser refuses shadowing): after the inner sum over j
        # ends, j is the outer sum's value again
        inner = Sum("j", IntLit(0), IntLit(3), Var("j"))
        node = Sum("j", IntLit(1), IntLit(2), Add(inner, Var("j")))
        assert eval_expr(node, {"j": 100}, REG) == (6 + 1) + (6 + 2)

    def test_negative_exponent_gives_exact_rational(self):
        assert eval_expr(parse_expression("2^(-3)"), {}, REG) == Fraction(1, 8)
        assert eval_expr(parse_expression("2^(n)"), {"n": -2}, REG) == Fraction(1, 4)

    def test_zero_to_negative_power_rejected(self):
        with pytest.raises(EvalError):
            eval_expr(parse_expression("0^(-1)"), {}, REG)
        with pytest.raises(EvalError):
            eval_expr(parse_expression("F[0]^(n)"), {"n": -2}, REG)

    def test_unbound_variable_rejected(self):
        with pytest.raises(EvalError):
            eval_expr(parse_expression("F[n]"), {}, REG)

    def test_unbound_variable_reported_before_a_later_error(self):
        # a walk meets m first; the generated code must not put off reading it
        for text in ("m + 0^(-1)", "m*binom(-1, 0)", "-m - F[n]^(-1)*0^(-1)"):
            with pytest.raises(EvalError, match="unbound variable 'm'"):
                eval_expr(parse_expression(text), {"n": 0}, REG)

    def test_unknown_sequence_rejected(self):
        with pytest.raises(EvalError):
            eval_expr(parse_expression("X[0]"), {}, REG)
        # names resolve before evaluation, so an empty sum does not hide one
        with pytest.raises(EvalError, match="unknown sequence name 'X'"):
            eval_expr(parse_expression("sum(j, 1, 0, X[j])"), {}, REG)

    def test_binomial_domain_error_propagates(self):
        with pytest.raises(DomainError):
            eval_expr(parse_expression("binom(k,0)"), {"k": -1}, REG)

    def test_aliases_resolve_in_default_registry(self):
        for text, expected in (
            ("F[10]", 55), ("L[5]", 11), ("P[4]", 12),
            ("Q[3]", 14), ("J[4]", 5), ("j[4]", 17),
            ("fibonacci[10]", 55), ("pell_lucas[3]", 14),
        ):
            assert eval_expr(parse_expression(text), {}, REG) == expected, text

    def test_custom_registry_entry(self):
        registry = dict(REG)
        registry["H"] = make_sequence(1, 1, 3, -5)
        assert eval_expr(parse_expression("H[2]"), {}, registry) == -2

    def test_bindings_left_unchanged(self):
        bindings = {"n": 3}
        assert eval_expr(parse_expression("sum(j, 0, n, j)"), bindings, REG) == 6
        assert bindings == {"n": 3}

    def test_binding_that_is_not_an_int_or_a_fraction_rejected(self):
        # a str would be repeated by 3*n, and a float would reach an exact result
        node = parse_expression("3*n")
        for bound, shown in (("3", "'3'"), (0.1, "0.1")):
            with pytest.raises(EvalError) as err:
                eval_expr(node, {"n": bound}, REG)
            assert str(err.value) == f"variable 'n' is bound to {shown}, not an int or a Fraction"

    def test_rational_index_rejected(self):
        with pytest.raises(EvalError) as err:
            eval_expr(parse_expression("F[n]"), {"n": Fraction(1, 2)}, REG)
        assert str(err.value) == "sequence index did not evaluate to an integer: 1/2"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("sum(j, n, m, 1)", "sum lower bound did not evaluate to an integer: 1/2"),
            ("binom(n, m)", "binom argument did not evaluate to an integer: 1/2"),
            ("F[n]^(m)", "sequence index did not evaluate to an integer: 1/2"),
            ("(-1)^(n) + m", "exponent did not evaluate to an integer: 1/2"),
        ],
    )
    def test_leftmost_error_wins(self, text, message):
        # n is not an integer and m is unbound: the error about n comes first
        with pytest.raises(EvalError) as err:
            eval_expr(parse_expression(text), {"n": Fraction(1, 2)}, REG)
        assert str(err.value) == message

    def test_equal_trees_compile_once(self):
        # a fresh parse of the same text is an equal tree, so it reuses the code
        fib = get_named("F")
        misses = dsl._compiled.cache_info().misses
        for n in range(-3, 4):
            node = parse_expression("F[n]*F[n+1] + 7919*n")
            assert eval_expr(node, {"n": n}, REG) == term(fib, n) * term(fib, n + 1) + 7919 * n
        assert dsl._compiled.cache_info().misses == misses + 1

    def test_parity_power_at_negative_exponent(self):
        node = parse_expression("(-1)^(n)")
        for n, sign in ((-1, -1), (-2, 1), (-3, -1)):
            value = eval_expr(node, {"n": n}, REG)
            assert value == Fraction(sign) and type(value) is Fraction


def _walk(node, b, registry):
    """Reference tree walker with the DSL's semantics, sharing no evaluation
    code with horadam.dsl: sums bind through a fresh dict, terms come from term()."""
    t = type(node)
    if t is IntLit:
        return node.value
    if t is Var:
        if node.name not in b:
            raise EvalError(f"unbound variable {node.name!r}")
        return b[node.name]
    if t is Neg:
        return -_walk(node.operand, b, registry)
    if t in (Add, Sub, Mul):
        x, y = _walk(node.left, b, registry), _walk(node.right, b, registry)
        return x + y if t is Add else x - y if t is Sub else x * y
    if t is SeqTerm:
        if node.seq not in registry:
            raise EvalError(f"unknown sequence name {node.seq!r}")
        return term(registry[node.seq], _walk_int(node.index, b, registry, "sequence index"))
    if t is Pow:
        x = _walk(node.base, b, registry)
        e = _walk_int(node.exponent, b, registry, "exponent")
        if e < 0 and x == 0:
            raise EvalError("zero raised to a negative power")
        return x ** e if e >= 0 else Fraction(x) ** e
    if t is Binom:
        k = _walk_int(node.first, b, registry, "binom argument")
        j = _walk_int(node.second, b, registry, "binom argument")
        if k < 0:
            raise DomainError(f"binom needs k >= 0, got k={k}")
        return math.comb(k, j) if 0 <= j <= k else 0
    lo = _walk_int(node.lo, b, registry, "sum lower bound")
    hi = _walk_int(node.hi, b, registry, "sum upper bound")
    return sum((_walk(node.body, {**b, node.var: v}, registry) for v in range(lo, hi + 1)), 0)


def _walk_int(node, b, registry, what):
    value = Fraction(_walk(node, b, registry))
    if value.denominator != 1:
        raise EvalError(f"{what} did not evaluate to an integer: {value}")
    return value.numerator


def _outcome(evaluate):
    try:
        return Fraction(evaluate())
    except (DomainError, EvalError) as exc:
        return type(exc), str(exc)


def _walked_sweep(lhs, rhs, grid, registry):
    """A sweep by the walker, case by case: its counterexamples' sides, or the type of its
    first error and its text with the case's."""
    pairs = []
    for case in grid.cases():
        try:
            pair = (_walk(lhs, case, registry), _walk(rhs, case, registry))
        except (DomainError, EvalError) as exc:
            return type(exc), f"{exc} (case {render_bindings(case)})"
        pairs += [pair] if pair[0] != pair[1] else []
    return tuple(pairs)


def _swept(lhs, rhs, grid, registry):
    """The same of verify_over_grid, which sweeps a line at a time."""
    try:
        swept = verify_over_grid(IdentityAst(lhs, rhs, grid.var_names), grid, registry)
    except (DomainError, EvalError) as exc:
        return type(exc), str(exc)
    return tuple((left, right) for _, left, right in swept.counterexamples)


# Random trees for the compiler-against-walker property. Variables n and m are
# bound to -3..3, i and j only inside sums over them (elsewhere they are
# unbound, an error both routes must report alike); sum bounds and exponents
# stay in -3..3 so nested sums and powers keep small. A share of the sums nest
# over non-empty ranges with an inner body that reads the outer variable, the
# case where an inner sum could hide or clobber the outer binding.
_WALK_REG = {**REG, "H": make_sequence(Fraction(3, 2), Fraction(2, 3), Fraction(1, 2), -2)}
_walk_var = st.sampled_from("nmnmnmij").map(Var)
_walk_small = st.one_of(
    _walk_var, st.integers(0, 3).map(IntLit), st.integers(1, 3).map(lambda e: Neg(IntLit(e)))
)
_walk_index = st.recursive(
    st.one_of(_walk_var, st.integers(0, 4).map(IntLit)), _index_nodes, max_leaves=4
)


def _nested_sum(t):
    (outer, inner), lo, width, inner_from_outer, child = t
    inner_lo = Var(outer) if inner_from_outer else IntLit(lo)
    body = Add(SeqTerm("F", Add(Var(outer), Mul(IntLit(3), Var(inner)))), child)
    inner_sum = Sum(inner, inner_lo, Add(inner_lo, IntLit(width)), body)
    return Sum(outer, IntLit(lo), IntLit(lo + width), inner_sum)


def _walk_nodes(children):
    return st.one_of(
        st.tuples(
            st.permutations("ij"), st.integers(-2, 1), st.integers(1, 2), st.booleans(), children
        ).map(_nested_sum),
        st.tuples(children, children).map(lambda t: Add(*t)),
        st.tuples(children, children).map(lambda t: Sub(*t)),
        st.tuples(children, children).map(lambda t: Mul(*t)),
        children.map(Neg),
        st.tuples(children, _walk_small).map(lambda t: Pow(*t)),
        st.tuples(_walk_index, _walk_index).map(lambda t: Binom(*t)),
        st.tuples(st.sampled_from("ij"), _walk_small, _walk_small, children).map(
            lambda t: Sum(*t)
        ),
    )


_walk_exprs = st.recursive(
    st.one_of(
        st.integers(0, 9).map(IntLit),
        _walk_var,
        st.tuples(st.sampled_from("FJH"), _walk_index).map(lambda t: SeqTerm(*t)),
    ),
    _walk_nodes,
    max_leaves=10,
)


def _chain(node):
    """The chain below a sum-on-top shape, or node itself."""
    if type(node) is not Sum:
        return node
    return node.body.right if type(node.body) is Mul else node.body


class TestCompilerAgainstWalker:
    @given(node=_walk_exprs, n=st.integers(-3, 3), m=st.integers(-3, 3))
    @settings(max_examples=300, deadline=None)
    def test_compiled_tree_matches_walker(self, node, n, m):
        bindings = {"n": n, "m": m}
        expected = _outcome(lambda: _walk(node, bindings, _WALK_REG))
        assert _outcome(lambda: eval_expr(node, bindings, _WALK_REG)) == expected

    @given(lhs=_walk_exprs, rhs=_walk_exprs, n=st.integers(-3, 3), m=st.integers(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_one_point_sweep_matches_walker(self, lhs, rhs, n, m):
        # a sweep runs the generated two-sided function, which eval_expr does not
        bindings = {"m": m, "n": n}
        try:
            pair = (_walk(lhs, bindings, _WALK_REG), _walk(rhs, bindings, _WALK_REG))
            expected = () if pair[0] == pair[1] else (pair,)
        except (DomainError, EvalError) as exc:
            expected = type(exc), f"{exc} (case m={m};n={n})"
        grid = make_grid({"m": (m, m), "n": (n, n)})
        try:
            report = verify_over_grid(IdentityAst(lhs, rhs, ("m", "n")), grid, _WALK_REG)
            actual = tuple((left, right) for _, left, right in report.counterexamples)
        except (DomainError, EvalError) as exc:
            actual = type(exc), str(exc)
        assert actual == expected

    @given(lhs=_walk_exprs, rhs=_walk_exprs, m=st.integers(-3, 3), n=st.integers(-3, 2),
           wide=st.booleans(), width=st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_line_sweep_matches_walker(self, lhs, rhs, m, n, wide, width):
        # lines of two to four values of n, for one or two values of m: a statement that does
        # not move runs once per line, and a value at which the tree raises names its case
        grid = make_grid({"m": (m, m + wide), "n": (n, n + width)})
        assert _swept(lhs, rhs, grid, _WALK_REG) == _walked_sweep(lhs, rhs, grid, _WALK_REG)

    @given(
        lo=st.integers(-1, 2),
        hi=st.sampled_from(["n", "n+1", "-1", "0", "1", "2", "3"]),
        n=st.integers(-3, 3),
        m=st.integers(-3, 3),
        form=st.sampled_from([int, Fraction, lambda x: Fraction(2 * x + 1, 2)]),
    )
    @settings(max_examples=300, deadline=None)
    def test_sum_shape_of_the_grammar_facts(self, lo, hi, n, m, form):
        # binom(H, j) over j from 0 is a running product, F[..]^(j) and J[..]^(H-j) need no
        # sign test where j >= 0, 2^(j-H) keeps it, and int bindings go unconverted: from lo
        # in -1..2 and H from -1 to n+1, with empty sums, whole Fractions and halves
        text = f"sum(j,{lo},{hi},binom({hi},j)*F[n+j]^(j)*J[m-j]^({hi}-j)*2^(j-({hi})))"
        node = parse_expression(text)
        bindings = {"n": form(n), "m": form(m)}
        expected = _outcome(lambda: _walk(node, bindings, _WALK_REG))
        assert _outcome(lambda: eval_expr(node, bindings, _WALK_REG)) == expected

    @pytest.mark.parametrize(
        "wrap",
        [
            lambda t: SeqTerm("F", t),
            lambda t: SeqTerm("J", t),
            lambda t: Pow(Neg(IntLit(1)), t),
            lambda t: Binom(t, IntLit(1)),
            lambda t: Sum("j", t, IntLit(1), IntLit(2)),
            lambda t: Sum("j", IntLit(-1), t, Var("j")),
            # one sum on top of a chain that does not read j: its first term
            # assigns the chain to a slot, beside j or J[j] or as the whole body
            lambda t: Sum("j", IntLit(0), IntLit(1), Mul(Var("j"), SeqTerm("J", _chain(t)))),
            lambda t: Sum("j", IntLit(0), IntLit(1), SeqTerm("J", _chain(t))),
            lambda t: Sum(
                "j", IntLit(0), IntLit(1), Mul(SeqTerm("J", Var("j")), Binom(_chain(t), IntLit(1)))
            ),
        ],
        ids=["terms", "jac-terms", "parity", "binoms", "sum-lower-bounds", "sum-upper-bounds",
             "sum-body-slot", "sum-body-in-a-slot", "sum-body-slot-binoms"],
    )
    def test_hand_built_tree_at_the_cap(self, wrap):
        # only hand-built trees nest these shapes, whose generated code holds
        # two parentheses per tree level (J's terms are pairs, normalised
        # before each use as an index): the deepest still evaluates, one
        # level more is refused like a parsed tree
        node = Var("n")
        while _tree_depth(wrap(node)) <= MAX_DEPTH:
            node = wrap(node)
        assert _tree_depth(node) == MAX_DEPTH
        for n in (-2, 2):
            expected = _outcome(lambda: _walk(node, {"n": n}, REG))
            assert _outcome(lambda: eval_expr(node, {"n": n}, REG)) == expected
        report = verify_over_grid(IdentityAst(node, node, ("n",)), make_grid({"n": (2, 2)}), REG)
        assert report.holds and report.cases_checked == 1
        deeper = wrap(node)
        with pytest.raises(EvalError, match="nested too deeply"):
            eval_expr(deeper, {"n": 2}, REG)
        with pytest.raises(EvalError, match="nested too deeply"):
            verify_over_grid(IdentityAst(deeper, IntLit(0), ("n",)), make_grid({"n": (2, 2)}), REG)

    def test_hand_built_tree_past_the_recursion_limit_refused(self):
        # its depth is checked before anything recurses over it, the code cache's hash included
        node = Var("n")
        for _ in range(5 * sys.getrecursionlimit()):
            node = Neg(node)
        with pytest.raises(EvalError, match="nested too deeply"):
            eval_expr(node, {"n": 2}, REG)
        with pytest.raises(EvalError, match="nested too deeply"):
            verify_over_grid(IdentityAst(node, IntLit(0), ("n",)), make_grid({"n": (2, 2)}), REG)


# Names spelled like the generated code's own identifiers and helpers. The
# template holds a free variable x, a sum variable s and a sequence name t;
# each role in turn takes one of these names and must behave like a plain one.
_HOSTILE = (
    "b", "_t0", "_t1", "_v0", "_h0_0", "_i", "_f", "_power", "_span", "_sum", "_peeled", "_index",
    "_binom",
    "_unbound", "_value", "_add", "_sub", "_mul", "_pow", "_pair_sum", "as_integer_ratio",
    "KeyError", "exc", "type", "int", "lambda", "None", "__import__", "__builtins__",
    "_make", "_s0", "_s1", "_v1", "_lo", "_hi", "_a", "_an", "_ad", "_g", "_gcd", "_x0", "_x1",
    "_n0", "_d0", "_n1", "_d1", "_c0", "_c1", "range", "_w", "_ns", "_out", "_l", "append",
    "_p", "_q", "_fraction",
)
_TEMPLATE = "{t}[{x}+1]*{x} + sum({s},0,{x},binom({x},{s})*{t}[{s}]) = {t}[{x}+1]*{x} + {t}[2*{x}]"


def _roles(role, name):
    return {"t": "T", "x": "x", "s": "s", role: name}


def _shape(report):
    """A report without its names: counts and counterexample values in order."""
    rows = [(tuple(b.values()), lhs, rhs) for b, lhs, rhs in report.counterexamples]
    return report.cases_total, report.cases_checked, report.cases_skipped_precondition, rows


class TestHostileNames:
    # fibonacci's terms are ints in the generated code, jacobsthal's are pairs
    @pytest.mark.parametrize("seq", ["fibonacci", "jacobsthal"])
    @pytest.mark.parametrize("role", ["x", "s", "t"])
    @pytest.mark.parametrize("name", _HOSTILE)
    def test_evaluates_like_a_plain_name(self, role, name, seq):
        names = _roles(role, name)
        sequence = get_named(seq)
        plain = parse_identity(_TEMPLATE.format(t="T", x="x", s="s"))
        ast = parse_identity(_TEMPLATE.format(**names))
        registry = {**REG, "T": sequence, names["t"]: sequence}
        x = names["x"]
        for value in range(-3, 4):
            for side in ("lhs", "rhs"):
                assert eval_expr(getattr(ast, side), {x: value}, registry) == eval_expr(
                    getattr(plain, side), {"x": value}, registry
                )
        expected = verify_over_grid(plain, make_grid({"x": (-3, 3)}), registry)
        report = verify_over_grid(ast, make_grid({x: (-3, 3)}), registry)
        # the sums vanish at x < 0 while T[2*x] does not: three counterexamples,
        # and for jacobsthal two more at x = 2 and 3, where the sum is 3^(x-1)
        assert _shape(report) == _shape(expected)
        count = {"fibonacci": 3, "jacobsthal": 5}[seq]
        assert [list(b) for b, _, _ in report.counterexamples] == [[x]] * count
        for bindings, reg, message in (
            ({}, registry, f"unbound variable {x!r}"),
            ({x: 1}, REG, f"unknown sequence name {names['t']!r}"),
            ({x: Fraction(1, 2)}, registry, "sequence index did not evaluate to an integer: 3/2"),
        ):
            with pytest.raises(EvalError) as err:
                eval_expr(ast.lhs, bindings, reg)
            assert str(err.value) == message

    @pytest.mark.parametrize("role", ["x", "s", "t"])
    @pytest.mark.parametrize("name", ["sum", "binom"])
    def test_reserved_names_are_rejected(self, role, name):
        with pytest.raises(ParseError, match="reserved|expected"):
            parse_identity(_TEMPLATE.format(**_roles(role, name)))

    def test_variable_name_is_data_not_code(self):
        name = "x'] + __import__('os').getpid() + b['x"
        node = Add(Var(name), IntLit(1))
        assert eval_expr(node, {name: 2}, REG) == 3
        with pytest.raises(EvalError) as err:
            eval_expr(node, {}, REG)
        assert str(err.value) == f"unbound variable {name!r}"


class TestPairArithmetic:
    """Terms of a sequence that is not whole, and powers beside them, evaluate
    as unreduced (numerator, denominator) pairs of ints."""

    @pytest.mark.parametrize(
        "text", ["sum(j,0,n,2^(-j))", "sum(j,0,n,J[-j])", "sum(j,0,n,2^(-j)*J[j])"]
    )
    def test_long_sums_match_the_walker(self, text):
        # a denominator per term that grew as the product of the terms' ones
        # would make these take seconds, not milliseconds
        node, n = parse_expression(text), 1500
        assert eval_expr(node, {"n": n}, REG) == _walk(node, {"n": n}, REG)
        if text == "sum(j,0,n,2^(-j))":
            assert eval_expr(node, {"n": n}, REG) == 2 - Fraction(1, 2**n)

    def test_sums_carry_the_lcm_of_the_denominators(self, monkeypatch):
        # the generated code normalises a pair side once, by _value: record the
        # unreduced pair it gets. 2^(-2)*J[1] is the pair (1, 4), 6^(-1)*J[1] is
        # (1, 6), and H's terms alternate 1/4, 1/6
        pairs = []

        def recording(num, den):
            pairs.append((num, den))
            return dsl._value(num, den)

        monkeypatch.setitem(dsl._HELPERS, "_value", recording)
        registry = {**REG, "H": make_sequence(0, 1, Fraction(1, 4), Fraction(1, 6))}
        for text, pair in [
            ("2^(-2)*J[1] + 6^(-1)*J[1]", (5, 12)),
            ("2^(-2)*J[1] - 6^(-1)*J[1]", (1, 12)),
            ("sum(j,0,10,2^(-j)*J[1])", (2**11 - 1, 2**10)),
            ("sum(j,0,3,H[j])", (10, 12)),
        ]:
            pairs.clear()
            eval_expr(parse_expression(text), {}, registry)
            assert pairs == [pair], text

    @pytest.mark.parametrize("x, e, pair", [((2, 3), 2, (4, 9)), ((-2, 3), -3, (-27, 8)),
                                            ((-1, 1), -1, (-1, 1)), ((0, 5), 0, (1, 1))])
    def test_powers_keep_a_positive_denominator(self, x, e, pair):
        assert dsl._pow(x, e) == pair

    def test_zero_pair_to_a_negative_power_rejected(self):
        with pytest.raises(EvalError, match="zero raised to a negative power"):
            eval_expr(parse_expression("(J[0]*J[-1])^(-1)"), {}, REG)

    def test_counterexamples_render_in_lowest_terms(self):
        ast = parse_identity("J[n+1] = 2*J[n]")
        report = verify_over_grid(ast, make_grid({"n": (-8, -1)}), REG)
        jac = get_named("J")
        assert len(report.counterexamples) == 8
        for bindings, lhs, rhs in report.counterexamples:
            n = bindings["n"]
            assert (lhs, rhs) == (term(jac, n + 1), 2 * term(jac, n))
            for value in (lhs, rhs):
                assert type(value) in (int, Fraction)
                assert str(value) == str(Fraction(value.numerator, value.denominator))
        row = report.to_json_obj()["counterexamples"][0]
        assert (row["lhs"], row["rhs"]) == ("43/128", "-85/128")

    def test_whole_and_rational_sequences_compile_apart(self):
        # the same text reads its slot as ints for a whole H and as pairs for
        # any other, so the code is cached per set of whole names
        node = parse_expression("H[n] + H[n-1]")
        for p, q in ((1, 1), (1, 2), (1, -1), (Fraction(1, 2), 3)):
            h = make_sequence(p, q, 2, 1)
            assert eval_expr(node, {"n": -3}, {"H": h}) == term(h, -3) + term(h, -4)


class TestPeeledSums:
    """A sum computes what its body does not read of the sum's variable once,
    in its first term, and reads it in the others."""

    @pytest.mark.parametrize(
        "text, bindings, message",
        [
            # the first term raises before it reaches the unbound x
            ("sum(j,0,2,0^(j-1)*F[x])", {}, "zero raised to a negative power"),
            ("sum(j,0,2,F[j]*F[n+1])", {"n": Fraction(1, 2)},
             "sequence index did not evaluate to an integer: 3/2"),
            ("sum(j,0,2,J[n]^(j)*binom(n,j))", {"n": Fraction(1, 2)},
             "sequence index did not evaluate to an integer: 1/2"),
            ("sum(j,0,2,F[j]^(n+m))", {"n": 1}, "unbound variable 'm'"),
            ("sum(j,0,2,(-1)^(j+n)*J[j])", {"n": Fraction(1, 2)},
             "exponent did not evaluate to an integer: 1/2"),
        ],
    )
    def test_first_error_is_the_walkers(self, text, bindings, message):
        node = parse_expression(text)
        assert _outcome(lambda: _walk(node, bindings, REG)) == (EvalError, message)
        assert _outcome(lambda: eval_expr(node, bindings, REG)) == (EvalError, message)

    def test_empty_sum_reads_nothing(self):
        node = parse_expression("sum(j,1,0,F[x])")
        value = eval_expr(node, {}, REG)
        assert value == _walk(node, {}, REG) == 0

    @pytest.mark.parametrize(
        "text",
        [
            "sum(j,0,n,F[m]*F[j])", "sum(j,0,n,J[m-j]*J[m]^(j))",
            "sum(j,n,m,(-1)^(j)*binom(m,j)*J[n])", "sum(j,0,n,(J[m]+J[n])^(j)*2^(-j))",
            "sum(j,0,n,F[m])", "sum(j,0,n,J[m]*sum(i,0,j,J[i]*J[n]))",
        ],
    )
    def test_outcomes_match_the_walker(self, text):
        node = parse_expression(text)
        for n in range(-1, 5):
            for m in range(-3, 4):
                b = {"n": n, "m": m}
                expected = _outcome(lambda: _walk(node, b, REG))
                assert _outcome(lambda: eval_expr(node, b, REG)) == expected

    def test_invariant_term_read_once_per_case(self, monkeypatch):
        reads = []

        class Counting(_Terms):
            def __getitem__(self, i):
                reads.append(i)
                return super().__getitem__(i)

        monkeypatch.setattr(dsl, "_Terms", Counting)
        ast = parse_identity("sum(j,0,5,F[m]*F[j]) = F[m]*(F[7]-1)")
        assert verify_over_grid(ast, make_grid({"m": (-2, 2)}), REG).holds
        # per case: F[m] in the first term, F[1..5] in the others, then the rhs, whose F[7]
        # is read once per line, at its first case (before F[m], which is written into the
        # product that reads it)
        later = [i for m in range(-1, 3) for i in (m, 0, 1, 2, 3, 4, 5, m)]
        assert reads == [-2, 0, 1, 2, 3, 4, 5, 7, -2] + later
        # the same with Jacobsthal terms, which are pairs: J[m] is read once
        reads.clear()
        ast = parse_identity("2*sum(j,0,5,J[m]*J[j]) = J[m]*(J[7]-1)")
        assert verify_over_grid(ast, make_grid({"m": (-2, 2)}), REG).holds
        assert reads == [-2, 0, 1, 2, 3, 4, 5, -2, 7] + later
        # J[m] is in the inner sum, whose function runs once for each i: it is read
        # once per inner sum, that is once for i = 0, 1 and 2, then by the rhs
        reads.clear()
        ast = parse_identity("2*sum(i,0,2,sum(j,0,i,J[m]*J[j])) = 6*J[m]")
        assert verify_over_grid(ast, make_grid({"m": (-2, 2)}), REG).holds
        assert reads == [i for m in range(-2, 3) for i in (m, 0, m, 0, 1, m, 0, 1, 2, m)]
        # a sum whose body holds a sum reads its invariant J[m] in its first term
        reads.clear()
        ast = parse_identity("sum(i,0,2,J[m]*sum(j,0,i,J[j])) = 3*J[m]")
        assert verify_over_grid(ast, make_grid({"m": (-2, 2)}), REG).holds
        assert reads == [i for m in range(-2, 3) for i in (m, 0, 0, 1, 0, 1, 2, m)]
        # equal terms in one function, the sides' included, are read once
        reads.clear()
        ast = parse_identity("F[m]*F[m] = F[m]^(2)")
        assert verify_over_grid(ast, make_grid({"m": (-2, 2)}), REG).holds
        assert reads == [-2, -1, 0, 1, 2]
        reads.clear()
        ast = parse_identity("J[m]*J[m+1] - J[m+1]*J[m] = 0")
        assert verify_over_grid(ast, make_grid({"m": (-2, 2)}), REG).holds
        assert reads == [i for m in range(-2, 3) for i in (m, m + 1)]

    def test_power_of_a_pair_operation_cancels_first(self):
        # 2*J[-1] is the pair (2, 2): raising both parts would build two
        # ten-million-bit integers to return 1
        node = parse_expression("(2*J[-1])^(n)")
        tracemalloc.start()
        try:
            value = eval_expr(node, {"n": 10**7}, REG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 1 and peak < 2**20


class TestGrammarFacts:
    """Code compiled for int bindings converts no index expression, and a sum of j from 0 to
    hi reads binom(hi, j) as a running product."""

    def test_int_and_fraction_bindings_get_their_own_code(self):
        ast = parse_identity("F[n] = F[n]")
        assert verify_over_grid(ast, make_grid({"n": (-2, 2)}), REG).holds
        assert eval_expr(ast.lhs, {"n": 2}, REG) == 1
        with pytest.raises(EvalError) as err:
            eval_expr(ast.lhs, {"n": Fraction(1, 2)}, REG)
        assert str(err.value) == "sequence index did not evaluate to an integer: 1/2"
        node = parse_expression("sum(j,0,n,binom(n,j)*F[j]*2^(j-n))")
        assert eval_expr(node, {"n": Fraction(2)}, REG) == eval_expr(node, {"n": 2}, REG) == 2

    @pytest.mark.parametrize(
        "node",
        [
            # an inner sum rebinds n, which the outer sum's upper bound reads: n - j may be < 0
            Sum("j", IntLit(0), Var("n"), Sum("n", IntLit(0), IntLit(2), Pow(IntLit(3), Sub(
                Var("n"), Var("j"))))),
            # the sum rebinds j, which its upper bound reads: binom(j, j) is 1 at every term
            Sum("j", IntLit(0), Var("j"), Binom(Var("j"), Var("j"))),
        ],
    )
    def test_a_rebound_name_is_not_the_upper_bound(self, node):
        # only a hand-built tree can rebind a name
        for n in range(-1, 4):
            b = {"n": n, "j": n}
            assert _outcome(lambda: eval_expr(node, b, REG)) == _outcome(lambda: _walk(node, b, REG))

    def test_a_power_known_nonnegative_of_a_value_has_no_denominator(self, monkeypatch):
        # F[n+j]^(j) is a value beside pairs: its denominator is the literal 1, so no local
        # is 1 and no product multiplies by it; 2^(j-(n+1)) keeps its sign test, whose
        # branch for e >= 0 sets its denominator to 1
        sources = []
        monkeypatch.setattr(dsl, "compile", lambda source, *args: sources.append(source)
                            or compile(source, *args), raising=False)
        node = parse_expression("sum(j,0,n+1,binom(n+1,j)*F[n+j]^(j)*J[m-j]^(n+1-j)*2^(j-(n+1)))")
        whole = frozenset(name for name, seq in REG.items() if is_whole(seq))
        dsl._compiled.__wrapped__((node,), whole, ("m", "n"), True)
        assert "; _d" in sources[0]
        assert not re.search(r"^ *_n\d+ = [^\n]*; _d\d+ = 1$", sources[0], re.MULTILINE)

    def test_catalog_sweeps_call_no_conversion_and_no_binom(self, monkeypatch):
        # a conversion tests its value's type first, and calls _index only for a non-int
        calls = []
        for name in ("type", "_index", "_binom"):
            helper = dsl._HELPERS[name]
            monkeypatch.setitem(
                dsl._HELPERS, name, lambda *a, f=helper, n=name: calls.append(n) or f(*a)
            )
        for entry in catalog_list():
            registry = dict(REG)
            if entry.generalized:
                base = get_named(entry.family)
                registry["H"] = make_sequence(base.params.p, base.params.q, 3, -5)
            for text in entry.dsl_texts:
                grid = parse_grid(entry.default_grid)
                report = verify_over_grid(parse_identity(text), grid, registry)
                assert report.holds and report.cases_checked > 0, text
        assert calls == []


class TestVerifyOverGrid:
    def test_catalan_holds(self):
        ast = parse_identity("F[n-m]*F[n+m] = F[n]^(2) + (-1)^(n+m+1)*F[m]^(2)")
        report = verify_over_grid(ast, make_grid({"n": (0, 6), "m": (0, 6)}), REG)
        assert report.holds and report.cases_total == 49
        assert report.cases_skipped_precondition == 0

    def test_false_identity_first_counterexample(self):
        ast = parse_identity("F[n+1] = F[n]")
        report = verify_over_grid(ast, make_grid({"n": (0, 3)}), REG)
        bindings, lhs, rhs = report.counterexamples[0]
        assert bindings == {"n": 0}
        assert str(lhs) == "1" and str(rhs) == "0"
        assert report.exit_code() == 1

    def test_counterexample_bindings_hold_no_sum_variable(self):
        ast = parse_identity("sum(j,0,n,1)=n")
        report = verify_over_grid(ast, make_grid({"n": (0, 2)}), REG)
        assert [c[0] for c in report.counterexamples] == [{"n": 0}, {"n": 1}, {"n": 2}]

    def test_empty_grid_vacuous(self):
        ast = parse_identity("F[n+1] = F[n]")
        report = verify_over_grid(ast, make_grid({"n": (3, 0)}), REG)
        assert report.cases_total == 0 and report.holds

    def test_grid_must_cover_free_vars_exactly(self):
        ast = parse_identity("F[n+m] = F[n]*F[m+1] + F[n-1]*F[m]")
        with pytest.raises(UsageError, match="missing m"):
            verify_over_grid(ast, make_grid({"n": (0, 3)}), REG)
        with pytest.raises(UsageError, match="unused k"):
            verify_over_grid(
                ast, make_grid({"n": (0, 3), "m": (0, 3), "k": (0, 1)}), REG
            )

    def test_identity_label_defaults_to_pretty_printed_text(self):
        ast = parse_identity("F[n ] =F[ n]")
        report = verify_over_grid(ast, make_grid({"n": (0, 2)}), REG)
        assert report.identity == "F[n] = F[n]"

    def test_default_registry_used_when_omitted(self):
        ast = parse_identity("L[n] = F[n-1] + F[n+1]")
        report = verify_over_grid(ast, make_grid({"n": (-5, 5)}))
        assert report.holds

    def test_registry_closure_binds_companions(self):
        registry = dict(REG)
        registry["H"] = make_sequence(1, 1, 2, 1)
        ast = parse_identity("H[n+m] = F[m]*H[n+1] + F[m-1]*H[n]")
        report = verify_over_grid(ast, make_grid({"n": (-3, 3), "m": (-3, 3)}), registry)
        assert report.holds


class TestLineSweeps:
    """A sweep calls the generated function once per line of the grid: the cases that share
    the values of every variable but the last."""

    def test_a_later_value_names_its_case_and_raises_the_walkers_error(self):
        # the base is 0 at m = 1, n = 2 only: the third value of the second line
        ast = parse_identity("F[m]*(n - 2 - 5*(1 - m))^(-1) = J[n]")
        grid = make_grid({"m": (0, 1), "n": (0, 4)})
        message = "zero raised to a negative power (case m=1;n=2)"
        assert _walked_sweep(ast.lhs, ast.rhs, grid, REG) == (EvalError, message)
        assert _swept(ast.lhs, ast.rhs, grid, REG) == (EvalError, message)

    def test_what_does_not_read_the_last_variable_is_read_once_per_line(self, monkeypatch):
        reads = []

        class Counting(_Terms):
            def __getitem__(self, i):
                reads.append(i)
                return super().__getitem__(i)

        monkeypatch.setattr(dsl, "_Terms", Counting)
        ast = parse_identity("sum(j,0,2,F[j+m]) + F[n] = F[m+4] - F[m+1] + F[n]")
        assert verify_over_grid(ast, make_grid({"m": (0, 1), "n": (0, 2)}), REG).holds
        # per line: the sum's terms F[m..m+2], F[n], then the rhs's F[m+4] and F[m+1] at the
        # first value of n; only F[n] at the later ones
        assert reads == [i for m in (0, 1) for i in (m, m + 1, m + 2, 0, m + 4, m + 1, 1, 2)]

    def test_pair_sides_compare_by_cross_products(self):
        # at n = 1 the sides are the pairs (1, 2) and (2, 1), whose parts have equal products
        ast = parse_identity("J[-n] = 2*J[n]")
        grid = make_grid({"n": (-3, 3)})
        swept = _swept(ast.lhs, ast.rhs, grid, REG)
        assert swept == _walked_sweep(ast.lhs, ast.rhs, grid, REG)
        assert (Fraction(1, 2), 2) in swept

    def test_pair_sides_compare_after_one_normalisation(self):
        # at n = -1 the sides are the pairs (1, 2) and (1, 3): the left's numerator times
        # 3 // 2 is the right's, but its denominator 2 does not divide 3
        ast = parse_identity("J[n] = J[1]*3^(n)")
        grid = make_grid({"n": (-3, 3)})
        swept = _swept(ast.lhs, ast.rhs, grid, REG)
        assert swept == _walked_sweep(ast.lhs, ast.rhs, grid, REG)
        assert (Fraction(1, 2), Fraction(1, 3)) in swept
        # equal pair sides, whole (n > 0, past the cached small ints) or not, are one value
        ast = parse_identity("J[n+1] = J[n] + 2*J[n-1]")
        outcome = dsl._bind((ast.lhs, ast.rhs), REG, ("n",), True)
        sides = outcome.line((), range(-12, 13), [])
        assert len(sides) == 25 and all(lhs is rhs for lhs, rhs in sides)
        assert {type(lhs) for lhs, _ in sides} == {int, Fraction}

    @pytest.mark.parametrize("text", ["F[n+m] = F[n+1]*F[m] + F[n]*F[m-1]",
                                      "J[n+m] = J[n+1]*J[m] + 2*J[n]*J[m-1]",
                                      "F[n+m] = F[n]*L[m]", "J[n] = 2^(m)*J[n-m]"])
    def test_constraints_with_holes_give_the_dict_paths_report(self, text):
        ast = parse_identity(text)
        grid = parse_grid("m=-3..3,n=-3..3;m<=n;n!=0")
        swept = verify_over_grid(ast, grid, REG)
        by_dict = run_grid(pretty_print(ast), grid, lambda case: (
            eval_expr(ast.lhs, case, REG), eval_expr(ast.rhs, case, REG)))
        assert swept.cases_total == 24
        for fmt in ("json", "csv", "text"):
            assert swept.render(fmt) == by_dict.render(fmt)

    def test_a_text_with_no_variables_is_one_case(self):
        for text in ("F[5] = 5", "F[5] = 4", "J[-3] = J[-3]*1"):
            ast = parse_identity(text)
            for grid in map(parse_grid, ("", ";1<0", ";0<1")):
                by_dict = run_grid(text, grid, lambda case: (
                    eval_expr(ast.lhs, case, REG), eval_expr(ast.rhs, case, REG)))
                assert verify_over_grid(ast, grid, REG) == by_dict
        text_report = verify_over_grid(parse_identity("F[5] = 4"), parse_grid(""), REG).to_text()
        assert text_report == ("identity: F[5] = 4\ngrid: \ncases: total=1 checked=1 skipped=0\n"
                               "counterexamples: 1\n  : lhs=5 rhs=4\nresult: FAIL\n")
        with pytest.raises(EvalError) as err:
            verify_over_grid(parse_identity("0^(-1) = 0"), parse_grid(""), REG)
        assert str(err.value) == "zero raised to a negative power"

    def test_a_long_line_comes_in_chunks_of_the_bound(self):
        ast = parse_identity("F[n+1] = F[n] + F[n-1]")
        grid = make_grid({"n": (-100, 200)})
        line = dsl._bind((ast.lhs, ast.rhs), REG, ("n",), True).line
        calls = []

        def recording(prefix, last, out):
            calls.append((len(last), len(out)))
            return line(prefix, last, out)

        swept = run_grid("x", grid, Outcome(None, ("n",), recording))
        assert swept == verify_over_grid(ast, grid, REG, identity_label="x")
        assert swept.holds
        # a passing sweep holds at most the bound's results: no call gets more than the
        # bound's values, and each starts from an empty list
        assert max(size for size, _ in calls) == _LINE < 301 == sum(s for s, _ in calls)
        assert {held for _, held in calls} == {0}

    def test_a_dsl_outcome_called_on_a_dict_case_gives_the_sweeps_values(self):
        # a traced sweep wraps each outcome as a function of a dict case
        for text in ("J[n+m] = J[n]*J[m]", "F[n]*F[m] = F[n+m] - F[n-1]*F[m-1] + n*m*0"):
            ast = parse_identity(text)
            grid = make_grid({"m": (-2, 2), "n": (-3, 3)})
            failed = {render_bindings(b): (lhs, rhs)
                      for b, lhs, rhs in verify_over_grid(ast, grid, REG).counterexamples}
            outcome = dsl._bind((ast.lhs, ast.rhs), REG, grid.var_names, True)
            for case in grid.cases():
                lhs, rhs = outcome(case)
                expected = failed.get(render_bindings(case), (lhs, lhs))
                assert (lhs, rhs) == expected
                assert list(map(type, (lhs, rhs))) == list(map(type, expected))
