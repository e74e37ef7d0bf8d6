"""DSL tokenizer, parser, pretty printer, and evaluator."""

import math
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
    parse_identity,
    pretty_print,
    term,
    verify_over_grid,
)
from horadam import dsl
from horadam.dsl import (
    MAX_DEPTH, Add, Binom, IdentityAst, IntLit, Mul, Neg, Pow, SeqTerm, Sub, Sum, Var,
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
    children = [v for v in vars(node).values() if not isinstance(v, (int, str, tuple))]
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


    @pytest.mark.parametrize(
        "wrap",
        [
            lambda t: SeqTerm("F", t),
            lambda t: SeqTerm("J", t),
            lambda t: Pow(Neg(IntLit(1)), t),
            lambda t: Binom(t, IntLit(1)),
            lambda t: Sum("j", t, IntLit(1), IntLit(2)),
            lambda t: Sum("j", IntLit(-1), t, Var("j")),
        ],
        ids=["terms", "jac-terms", "parity", "binoms", "sum-lower-bounds", "sum-upper-bounds"],
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


# Names spelled like the generated code's own identifiers and helpers. The
# template holds a free variable x, a sum variable s and a sequence name t;
# each role in turn takes one of these names and must behave like a plain one.
_HOSTILE = (
    "b", "_t0", "_t1", "_v0", "_i", "_f", "_power", "_span", "_sum", "_index", "_binom",
    "_unbound", "_value", "_add", "_sub", "_mul", "_pow", "_pair_sum", "as_integer_ratio",
    "KeyError", "exc", "type", "int", "lambda", "None", "__import__", "__builtins__",
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

    def test_sums_carry_the_lcm_of_the_denominators(self):
        assert dsl._add((1, 4), (1, 6)) == (5, 12)
        assert dsl._sub((1, 4), (1, 6)) == (1, 12)
        assert dsl._pair_sum(lambda j: (1, 2**j), 0, 10) == (2**11 - 1, 2**10)
        assert dsl._pair_sum(lambda j: (1, 6 if j % 2 else 4), 0, 3) == (10, 12)

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
