"""Expression language for writing sequence identities as text.

Grammar (whitespace insensitive; '#' is not a comment character):

    identity  := expr "=" expr
    expr      := ["-"] term (("+" | "-") term)*
    term      := factor ("*" factor)*
    factor    := base ("^" "(" indexExpr ")")?
    base      := INT | IDENT | SEQNAME "[" indexExpr "]" | "(" expr ")"
               | "binom" "(" indexExpr "," indexExpr ")"
               | "sum" "(" IDENT "," indexExpr "," indexExpr "," expr ")"
    indexExpr := ["-"] indexTerm (("+" | "-") indexTerm)*
    indexTerm := indexAtom ("*" indexAtom)*
    indexAtom := INT | IDENT | "(" indexExpr ")"

INT is a non-negative digit run; IDENT is a letter/underscore word; both are
ASCII only. One regular expression splits the text into these and the symbols
+ - * ^ ( ) [ ] , =; spaces, tabs, CRs and newlines only separate, and any other
character is an error at its 1-based line and column. An IDENT directly
followed by "[" is a sequence name, resolved against the registry when the
compiled identity is bound to it, before any case runs; otherwise it is a free
integer variable. "binom" and "sum" are reserved. Exponents and index
expressions always evaluate to integers; exponents may be negative when the
base is nonzero. There is no division operator, so evaluation is total apart
from 0^(negative).

sum(var, lo, hi, body) sums body for var = lo..hi inclusive and is empty
(zero) when lo > hi; the bound variable must not shadow any other variable.

Bracket nesting and syntax-tree depth (a flat chain 1+1+...+1 is as deep as it
is long) are capped at MAX_DEPTH, below the interpreter's recursion limit.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional

from .errors import EvalError, ParseError
from .grid import NAME, GridSpec
from .report import VerificationReport, run_grid
from .scalar import DIGITS, Rational, binom
from .sequences import NAME_ALIASES, Sequence, _coprime_fraction, get_named, is_whole, term_reader

__all__ = [
    "IntLit", "Var", "Neg", "Add", "Sub", "Mul", "Pow", "SeqTerm", "Binom",
    "Sum", "IdentityAst", "parse_identity", "parse_expression", "pretty_print",
    "eval_expr", "verify_over_grid", "default_registry",
]

RESERVED = ("binom", "sum")

MAX_DEPTH = 100  # the catalog's deepest tree has 11 levels
_TOO_DEEP = f"expression is nested too deeply (more than {MAX_DEPTH} levels)"


# ---------------------------------------------------------------------------
# Syntax tree. pos is the 1-based (line, column) of the node's first token;
# it never takes part in equality, so round-tripped trees compare equal.


@dataclass(frozen=True)
class _Node:
    pos: tuple = field(default=(1, 1), compare=False, repr=False, kw_only=True)


@dataclass(frozen=True)
class IntLit(_Node):
    value: int


@dataclass(frozen=True)
class Var(_Node):
    name: str


@dataclass(frozen=True)
class Neg(_Node):
    operand: object


@dataclass(frozen=True)
class Add(_Node):
    left: object
    right: object


@dataclass(frozen=True)
class Sub(_Node):
    left: object
    right: object


@dataclass(frozen=True)
class Mul(_Node):
    left: object
    right: object


@dataclass(frozen=True)
class Pow(_Node):
    base: object
    exponent: object


@dataclass(frozen=True)
class SeqTerm(_Node):
    seq: str
    index: object


@dataclass(frozen=True)
class Binom(_Node):
    first: object
    second: object


@dataclass(frozen=True)
class Sum(_Node):
    var: str
    lo: object
    hi: object
    body: object


@dataclass(frozen=True)
class IdentityAst(_Node):
    lhs: object
    rhs: object
    free_vars: tuple


# ---------------------------------------------------------------------------
# Tokenizer: one regular expression, whose last matched group names the token
# kind; blanks match no group. A column is the offset from the line's start.

_TOKEN = re.compile(
    rf"(?P<newline>\n)|[ \t\r]+|(?P<int>{DIGITS})|(?P<ident>{NAME})"
    r"|(?P<symbol>[-+*^()\[\],=])|(?P<bad>.)"
)


class _Token(NamedTuple):
    kind: str  # "int" | "ident" | a symbol's own text | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list:
    tokens = []
    line, start = 1, 0
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "newline":
            line, start = line + 1, match.end()
        elif kind is not None:
            word, col = match.group(), match.start() - start + 1
            if kind == "bad":
                raise ParseError(f"unexpected character {word!r}", line, col)
            tokens.append(_Token(word if kind == "symbol" else kind, word, line, col))
    tokens.append(_Token("eof", "", line, len(text) - start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent, one token of lookahead). One set of methods
# serves both levels; index=True is the integer-only level, with no "^", no
# sequence terms, no binom or sum.


def _found(tok: _Token) -> str:
    return "end of input" if tok.kind == "eof" else repr(tok.text)


class _Parser:
    def __init__(self, text: str):
        self._tokens = _tokenize(text)
        self._i = 0
        self._depth = 0

    def _peek(self) -> _Token:
        return self._tokens[self._i]

    def _next(self) -> _Token:
        tok = self._tokens[self._i]
        if tok.kind != "eof":
            self._i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self._peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {_found(tok)}", tok.line, tok.col)
        return self._next()

    def finish(self, node):
        """node, once no token is left after it."""
        tok = self._peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.line, tok.col)
        return node

    def chain(self, index: bool):
        """["-"] product (("+" | "-") product)*, one bracket level deeper than the caller."""
        self._depth += 1
        tok = self._peek()
        if self._depth > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, tok.line, tok.col)
        if tok.kind == "-":
            self._next()
            node = Neg(self._product(index), pos=(tok.line, tok.col))
        else:
            node = self._product(index)
        while self._peek().kind in ("+", "-"):
            cls = Add if self._next().kind == "+" else Sub
            node = cls(node, self._product(index), pos=node.pos)
        self._depth -= 1
        return node

    def _product(self, index: bool):
        node = self._factor(index)
        while self._peek().kind == "*":
            self._next()
            node = Mul(node, self._factor(index), pos=node.pos)
        return node

    def _factor(self, index: bool):
        node = self._base(index)
        if not index and self._peek().kind == "^":
            self._next()
            self.expect("(", "'(' after '^'")
            exponent = self.chain(True)
            self.expect(")", "')' closing the exponent")
            node = Pow(node, exponent, pos=node.pos)
        return node

    def _base(self, index: bool):
        tok = self._peek()
        pos = (tok.line, tok.col)
        if tok.kind == "int":
            self._next()
            return IntLit(int(tok.text), pos=pos)
        if tok.kind == "(":
            self._next()
            inner = self.chain(index)
            self.expect(")", "')'")
            return inner
        if tok.kind != "ident":
            what = "an index expression" if index else "an expression"
            raise ParseError(f"expected {what}, found {_found(tok)}", *pos)
        if index and tok.text in RESERVED:
            raise ParseError(f"{tok.text!r} is reserved and cannot be an index variable", *pos)
        self._next()
        if tok.text == "binom":
            self.expect("(", "'(' after 'binom'")
            first = self.chain(True)
            self.expect(",", "','")
            second = self.chain(True)
            self.expect(")", "')'")
            return Binom(first, second, pos=pos)
        if tok.text == "sum":
            self.expect("(", "'(' after 'sum'")
            var = self.expect("ident", "summation variable")
            if var.text in RESERVED:
                raise ParseError(
                    f"{var.text!r} is reserved and cannot name a summation variable",
                    var.line, var.col,
                )
            self.expect(",", "','")
            lo = self.chain(True)
            self.expect(",", "','")
            hi = self.chain(True)
            self.expect(",", "','")
            body = self.chain(False)
            self.expect(")", "')'")
            return Sum(var.text, lo, hi, body, pos=pos)
        if not index and self._peek().kind == "[":
            self._next()
            seq_index = self.chain(True)
            self.expect("]", "']'")
            return SeqTerm(tok.text, seq_index, pos=pos)
        return Var(tok.text, pos=pos)


def _validate(lhs, rhs) -> tuple:
    """Collect free variables in first-occurrence order; ban sum shadowing;
    refuse a tree deeper than MAX_DEPTH before anything else recurses over it."""
    free: list = []
    sum_vars: list = []

    def walk(node, bound: tuple, depth: int = 1):
        if depth > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, *node.pos)
        depth += 1
        t = type(node)
        if t is Var:
            if node.name not in bound and node.name not in free:
                free.append(node.name)
        elif t is Neg:
            walk(node.operand, bound, depth)
        elif t in (Add, Sub, Mul):
            walk(node.left, bound, depth)
            walk(node.right, bound, depth)
        elif t is Pow:
            walk(node.base, bound, depth)
            walk(node.exponent, bound, depth)
        elif t is SeqTerm:
            walk(node.index, bound, depth)
        elif t is Binom:
            walk(node.first, bound, depth)
            walk(node.second, bound, depth)
        elif t is Sum:
            if node.var in bound:
                raise ParseError(
                    f"sum variable {node.var!r} shadows an enclosing sum variable",
                    *node.pos,
                )
            walk(node.lo, bound, depth)
            walk(node.hi, bound, depth)
            walk(node.body, bound + (node.var,), depth)
            sum_vars.append((node.var, node.pos))

    walk(lhs, ())
    walk(rhs, ())
    for name, pos in sum_vars:
        if name in free:
            raise ParseError(
                f"sum variable {name!r} shadows a free variable of the identity", *pos
            )
    return tuple(free)


def parse_identity(text: str) -> IdentityAst:
    """Parse "lhs = rhs" into a syntax tree with its free variables."""
    parser = _Parser(text)
    lhs = parser.chain(False)
    parser.expect("=", "'='")
    rhs = parser.finish(parser.chain(False))
    return IdentityAst(lhs, rhs, _validate(lhs, rhs), pos=lhs.pos)


def parse_expression(text: str):
    """Parse a single expression (no '=') into a syntax tree."""
    parser = _Parser(text)
    node = parser.finish(parser.chain(False))
    _validate(node, IntLit(0))
    return node


# ---------------------------------------------------------------------------
# Pretty printer. Output re-parses to a tree equal to the input.

_PREC = {Add: 1, Sub: 1, Neg: 1, Mul: 2, Pow: 3}


def _prec(node) -> int:
    if type(node) is IntLit and node.value < 0:
        return 1  # a hand-built negative literal prints with a leading "-", as Neg does
    return _PREC.get(type(node), 4)


def _render(node, min_prec: int, index_level: bool) -> str:
    t = type(node)
    if t is Var:
        return node.name
    if t is SeqTerm:
        return f"{node.seq}[{_render(node.index, 1, True)}]"
    if t is Binom:
        return f"binom({_render(node.first, 1, True)},{_render(node.second, 1, True)})"
    if t is Sum:
        return (
            f"sum({node.var},{_render(node.lo, 1, True)},{_render(node.hi, 1, True)},"
            f"{_render(node.body, 1, False)})"
        )
    if t is IntLit:
        text = str(node.value)
    elif t is Pow:
        # a power's base must be an atom in the grammar; anything else
        # (including another power) needs explicit parentheses
        base = _render(node.base, 4, index_level)
        text = f"{base}^({_render(node.exponent, 1, True)})"
    elif t is Neg:
        text = "-" + _render(node.operand, 2, index_level)
    elif t is Mul:
        text = (
            _render(node.left, 2, index_level) + "*" + _render(node.right, 3, index_level)
        )
    elif t in (Add, Sub):
        op = "+" if t is Add else "-"
        joiner = op if index_level else f" {op} "
        text = (
            _render(node.left, 1, index_level)
            + joiner
            + _render(node.right, 2, index_level)
        )
    else:
        raise TypeError(f"not a DSL node: {node!r}")
    if _prec(node) < min_prec:
        return f"({text})"
    return text


def pretty_print(node) -> str:
    """Canonical text for a node or whole identity."""
    if isinstance(node, IdentityAst):
        return f"{_render(node.lhs, 1, False)} = {_render(node.rhs, 1, False)}"
    return _render(node, 1, False)


# ---------------------------------------------------------------------------
# Evaluation. A pair of sides compiles once, into the text of one Python
# function of the binding dict; the code object is cached per syntax tree and
# set of whole sequence names. The text holds only int literals, repr'd
# variable names, the emitter's own error labels and slot names: a sequence is
# a slot _tK filled when the code is bound to a registry, a sum's variable is
# the parameter _vK of its body's lambda. Python's left-to-right evaluation
# keeps left operands before right ones and a base before its exponent, so the
# first error raised is the same as a tree walk's.
#
# Each node is a value or a pair. A value, an int or Fraction computed by
# Python's operators, is a literal, variable, binom, term of a whole sequence
# (term_fn's int) or power of a value, or an operation on values. A pair, an
# unreduced (numerator, denominator > 0) of ints, is a term of any other
# sequence or an operation with a pair operand, where a value operand is lifted
# by as_integer_ratio() and a power of a value by its pair form, so that
# 2^(-j)*J[j] makes no Fraction. Products multiply the parts, a negative power
# swaps them, and + - and sum() put both operands over the lcm of their
# denominators, never their product, which a sum would square term by term. A
# pair side, or a pair used as an integer, is normalised once, into an int or a
# Fraction, so no pair reaches a result or an error text; a side that is one
# term reads term_fn's int or Fraction. A sum whose body holds no sum runs its
# first term as a walk would, filling a slot _hK_N with each largest subtree that
# does not read its variable; later terms read the slots, and an empty sum none.

_CODE_CACHE_SIZE = 256


def default_registry() -> dict:
    """Every built-in sequence under every accepted spelling."""
    return {alias: get_named(alias) for alias in NAME_ALIASES}


def _index(value, what: str) -> int:
    value = _value(value) if type(value) is tuple else value
    if isinstance(value, int) or isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    raise EvalError(f"{what} did not evaluate to an integer: {value}")


def _power(x, e: int):
    return x ** e if e >= 0 else _value(_pow(x.as_integer_ratio(), e))


def _sum(body, lo: int, hi: int):
    return sum(map(body, range(lo, hi + 1)), 0)


def _peeled(total, body, lo: int, hi: int):
    """total(body, lo, hi) for a body that returns its term and the later terms' body."""
    if lo > hi:
        return total(body, lo, hi)
    first, later = body(lo)
    return (operator.add if total is _sum else _add)(first, total(later, lo + 1, hi))


def _unbound(exc: KeyError) -> EvalError:
    return EvalError(f"unbound variable {exc.args[0]!r}")


def _value(x: tuple):
    """A pair as an int or a normalised Fraction."""
    num, den = x
    g = math.gcd(num, den)
    return num // g if g == den else _coprime_fraction(num // g, den // g)


def _mul(x: tuple, y: tuple) -> tuple:
    return x[0] * y[0], x[1] * y[1]


def _pow(x: tuple, e: int) -> tuple:
    num, den = x
    if e >= 0:
        return num ** e, den ** e
    if num == 0:
        raise EvalError("zero raised to a negative power")
    return (den ** -e, num ** -e) if num > 0 else ((-den) ** -e, (-num) ** -e)


def _add(x: tuple, y: tuple) -> tuple:
    (a, b), (c, d) = x, y
    if b == d:
        return a + c, b
    g = math.gcd(b, d)
    return a * (d // g) + c * (b // g), b // g * d


def _sub(x: tuple, y: tuple) -> tuple:
    return _add(x, (-y[0], y[1]))


def _pair_sum(body, lo: int, hi: int) -> tuple:
    return reduce(_add, map(body, range(lo, hi + 1)), (0, 1))


def _nodes(node, depth: int):
    """node and the nodes below it, down to depth MAX_DEPTH."""
    yield node
    if depth < MAX_DEPTH and isinstance(node, _Node):
        for child in vars(node).values():
            yield from _nodes(child, depth + 1)


_HELPERS = {
    "__builtins__": {}, "KeyError": KeyError, "type": type, "int": int, "_binom": binom,
    "_index": _index, "_power": _power, "_sum": _sum, "_unbound": _unbound, "_value": _value,
    "_add": _add, "_sub": _sub, "_mul": _mul, "_pow": _pow, "_pair_sum": _pair_sum,
    "_peeled": _peeled,
}
_OPS = {Add: ("+", "_add"), Sub: ("-", "_sub"), Mul: ("*", "_mul")}


@lru_cache(maxsize=_CODE_CACHE_SIZE)
def _compiled(sides: tuple, whole: frozenset):
    """Code defining _f(b), which returns the tuple of the sides' values, and the
    (sequence name, read as values?) of each slot _tK in order of first use. Each
    tree level adds at most two parentheses and a tree deeper than MAX_DEPTH (only
    a hand-built one can be) is refused: the compiler allows 200 nested ones."""
    seqs: dict = {}
    sums: list = []
    peel: list = []  # in a peeled body: its variable, sum number, slots taken, first term?

    def emit(node, scope: dict, depth: int = 1, walrus: str = "({} := {})") -> tuple:
        """(value text, or None for a pair node; pair text)."""
        if depth > MAX_DEPTH:
            raise EvalError(_TOO_DEEP)
        if hoists(node, scope, depth):
            return hoisted(lambda: emit(node, scope, depth), walrus)
        depth += 1
        t = type(node)
        if t is Neg and type(node.operand) is IntLit:  # a negative literal
            emit(node.operand, scope, depth)  # the operand's depth check
            node, t = IntLit(-operator.index(node.operand.value)), IntLit
        if t is IntLit:
            text = repr(operator.index(node.value))
            return text, f"({text}, 1)"
        if t is Var:
            return lifted(scope.get(node.name) or f"b[{str.__repr__(node.name)}]")
        if t is Neg:
            value, pair = emit(node.operand, scope, depth)
            return value and "-" + value, f"_mul((-1, 1), {pair})"
        if t in _OPS:
            op, helper = _OPS[t]
            (lv, lp), (rv, rp) = emit(node.left, scope, depth), emit(node.right, scope, depth)
            return lv and rv and f"({lv} {op} {rv})", f"{helper}({lp}, {rp})"
        if t is SeqTerm:
            values = node.seq in whole or depth == 2  # or the node is a side
            slot = seqs.setdefault((node.seq, values), f"_t{len(seqs)}")
            text = f"{slot}({integer(node.index, scope, depth, 'sequence index')})"
            return lifted(text) if values else (None, text)
        if t is Pow:
            value, pair = emit(node.base, scope, depth)
            if value == "-1":  # a parity sign
                sign = integer(node.exponent, scope, depth, "exponent", "1 - {} % 2 * 2")
                return f"({sign})", f"({sign}, 1)"
            e = integer(node.exponent, scope, depth, "exponent")
            if value is None and type(node.base) in (Add, Sub, Mul, Neg, Sum):
                pair = f"_value({pair}).as_integer_ratio()"  # raise no common factor
            return value and f"_power({value}, {e})", f"_pow({pair}, {e})"
        if t is Sum:
            lo = integer(node.lo, scope, depth, "sum lower bound")
            hi = integer(node.hi, scope, depth, "sum upper bound")
            var = f"_v{len(sums)}"
            sums.append(var)
            scope = {**scope, node.var: var}
            if not any(type(below) is Sum for below in _nodes(node.body, depth)):
                peel[:] = node.var, len(sums) - 1, 0, True
            texts, totals = emit(node.body, scope, depth, "{} := {}"), ("_sum(", "_pair_sum(")
            if peel and peel[2]:  # the later terms read slots
                peel[2:] = 0, False
                later = emit(node.body, scope, depth, "{} := {}")
                texts = [x and f"({x}, lambda {var}: {rest})" for x, rest in zip(texts, later)]
                totals = "_peeled(_sum, ", "_peeled(_pair_sum, "
            peel.clear()
            return tuple(x and f"{h}lambda {var}: {x}, {lo}, {hi})" for h, x in zip(totals, texts))
        if t is Binom:
            first = integer(node.first, scope, depth, "binom argument")
            second = integer(node.second, scope, depth, "binom argument")
            return lifted(f"_binom({first}, {second})")
        raise TypeError(f"not a DSL node: {node!r}")

    def lifted(value: str) -> tuple:
        return value, f"{value}.as_integer_ratio()"  # value is a name, subscript or call

    def plain(node, scope: dict) -> bool:
        """node's text is an int literal or a sum variable."""
        if type(node) is Neg:
            return type(node.operand) is IntLit
        return type(node) is IntLit or type(node) is Var and node.name in scope

    def hoists(node, scope: dict, depth: int) -> bool:
        """node is in a peeled body, does not read its variable and is not plain."""
        return bool(peel) and not plain(node, scope) and Var(peel[0]) not in _nodes(node, depth)

    def hoisted(make, walrus: str) -> tuple:
        """make()'s texts, hoisting off; the first term assigns them a slot, later ones read it."""
        var, k, n, first = peel
        peel.clear()
        texts = make()
        peel[:] = var, k, n + 1, first
        slot = f"_h{k}_{n}"
        return tuple(text and (walrus.format(slot, text) if first else slot) for text in texts)

    def integer(node, scope: dict, depth: int, what: str, use: str = "{}") -> str:
        """use with node's text as an int, converted by _index unless it is a
        literal or a sum variable; _i holds the value between the test and its use."""
        if hoists(node, scope, depth):
            return hoisted(lambda: (integer(node, scope, depth, what, use),), "{} := {}")[0]
        value, pair = emit(node, scope, depth)
        if value is None:
            return use.format(f"_index({pair}, {what!r})")
        if plain(node, scope):
            return use.format(value)
        convert = use.format(f"_index(_i, {what!r})")
        return f"{use.format('_i')} if type(_i := {value}) is int else {convert}"

    values = "".join(f"{v}, " if v else f"_value({p}), " for v, p in (emit(s, {}) for s in sides))
    source = (
        f"def _f(b):\n try:\n  return {values}\n"
        " except KeyError as exc:\n  raise _unbound(exc) from None\n"
    )
    return compile(source, "<horadam.dsl>", "exec"), tuple(seqs)


def _bind(sides: tuple, registry: Mapping[str, Sequence]):
    """The function of the binding dict for sides, with one term reader per
    sequence name; an unknown name fails here, before any case runs."""
    whole = frozenset(name for name, seq in registry.items() if is_whole(seq))
    code, slots = _compiled(sides, whole)
    namespace = dict(_HELPERS)
    for k, (name, values) in enumerate(slots):
        seq = registry.get(name)
        if seq is None:
            raise EvalError(f"unknown sequence name {name!r}")
        namespace[f"_t{k}"] = term_reader(seq, values)
    exec(code, namespace)
    return namespace.pop("_f")  # so that the function and its globals form no cycle


def eval_expr(node, bindings: Mapping[str, int], registry: Mapping[str, Sequence]) -> Rational:
    """Evaluate one expression tree exactly under integer bindings."""
    value = _bind((node,), registry)(dict(bindings))[0]
    return value if isinstance(value, Fraction) else Fraction(value)


def verify_over_grid(
    ast: IdentityAst,
    grid: GridSpec,
    registry: Optional[Mapping[str, Sequence]] = None,
    identity_label: Optional[str] = None,
) -> VerificationReport:
    """Check lhs = rhs exactly at every grid case; nothing is ever skipped."""
    if registry is None:
        registry = default_registry()
    grid.require_variables(ast.free_vars, "identity")
    outcome = _bind((ast.lhs, ast.rhs), registry)
    label = identity_label if identity_label is not None else pretty_print(ast)
    return run_grid(label, grid, outcome)
