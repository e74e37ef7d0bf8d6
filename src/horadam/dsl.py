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
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import count
from typing import Mapping, NamedTuple, Optional

from .errors import EvalError, ParseError
from .grid import NAME, GridSpec
from .report import Outcome, VerificationReport, run_grid
from .scalar import DIGITS, Rational, binom
from .sequences import NAME_ALIASES, Sequence, _coprime_fraction, _Terms, get_named, is_whole

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


class _Node(tuple):
    """A node: a named tuple whose last field is pos. Two nodes are equal when they are
    of one class with equal fields before pos, which hash and repr show alone."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and self[:-1] == other[:-1]

    def __ne__(self, other):  # else tuple's, which compares pos too
        return not self == other

    def __hash__(self):
        return hash(self[:-1])

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self._fields, self[:-1]))
        return f"{type(self).__name__}({fields})"


def _node(name: str, fields: str) -> type:
    """A node class: a _Node whose named tuple has these fields, then pos."""
    base = namedtuple(name, f"{fields} pos", defaults=[(1, 1)])
    return type(name, (_Node, base), {"__slots__": ()})


IntLit = _node("IntLit", "value")
Var = _node("Var", "name")
Neg = _node("Neg", "operand")
Add = _node("Add", "left right")
Sub = _node("Sub", "left right")
Mul = _node("Mul", "left right")
Pow = _node("Pow", "base exponent")
SeqTerm = _node("SeqTerm", "seq index")
Binom = _node("Binom", "first second")
Sum = _node("Sum", "var lo hi body")
IdentityAst = _node("IdentityAst", "lhs rhs free_vars")


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
        t, inner = type(node), bound
        if t is Var and node.name not in bound and node.name not in free:
            free.append(node.name)
        elif t is Sum:
            if node.var in bound:
                raise ParseError(
                    f"sum variable {node.var!r} shadows an enclosing sum variable",
                    *node.pos,
                )
            inner = bound + (node.var,)  # for the body, the last field
        *fields, last = node[:-1]
        for child in fields:
            if isinstance(child, _Node):
                walk(child, bound, depth + 1)
        if isinstance(last, _Node):
            walk(last, inner, depth + 1)
        if t is Sum:
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
# Evaluation. A pair of sides compiles once (cached per syntax tree, set of whole
# sequence names and order of variables) into the text of _make(), which returns
# _f(b, _ns, _out): it appends to _out, and returns, the tuple of the sides' values
# for each case whose last variable _w takes a value of _ns, the others' being b,
# read by slot b[i]. The text holds only int literals, error labels, the repr'd
# name of any variable left unbound, and its own names: slots _tK for sequences,
# filled at bind time, a function _sK(b, _lo, _hi, enclosing loops' variables)
# with the variable _vK per sum, and locals.
#
# Each side is lowered once, in a tree walk's order, to statements of its function;
# one equal to an earlier statement there gives that one's local. A statement moves
# if it reads its loop's variable (a sum's, or _w) or a local that moves: a sum's
# function returns zero for an empty range, else, as _f does, runs every statement
# for its first value and those that move for the others. A value that cannot raise,
# read once by a statement of its own variance, is written into it; as only such
# values are evaluated later than a walk would, the first error is a walk's.
#
# A node is an int, a value (an int or Fraction by Python's operators) or a
# pair, an unreduced numerator and denominator > 0 held apart: a term of a
# sequence that is not whole, or an operation with a pair operand, whose other
# operands are then pairs too (2^(-j)*J[j] makes no Fraction). Products multiply
# the parts, powers raise them, and + - and a sum's total use the lcm of the
# denominators, never their product. A pair side, or a pair used as an integer,
# is normalised once, and two equal pair sides once, to one shared value.


def default_registry() -> dict:
    """Every built-in sequence under every accepted spelling."""
    return {alias: get_named(alias) for alias in NAME_ALIASES}


def _index(value, what: str) -> int:
    if isinstance(value, int) or isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    raise EvalError(f"{what} did not evaluate to an integer: {value}")


def _unbound(name: str):
    raise EvalError(f"unbound variable {name!r}")


def _value(num: int, den: int):
    """The pair num/den as an int or a normalised Fraction."""
    g = math.gcd(num, den)
    return num // g if g == den else _coprime_fraction(num // g, den // g)


def _pow(x: tuple, e: int) -> tuple:
    num, den = x
    if e >= 0:
        return num ** e, den ** e
    if num == 0:
        raise EvalError("zero raised to a negative power")
    return (den ** -e, num ** -e) if num > 0 else ((-den) ** -e, (-num) ** -e)


def _too_deep(node) -> bool:
    """Whether node's tree has more than MAX_DEPTH levels, found a level at a time."""
    level = [node] if isinstance(node, _Node) else []
    for _ in range(MAX_DEPTH):
        level = [child for above in level for child in above[:-1] if isinstance(child, _Node)]
        if not level:
            return False
    return True


def _added(n: str, d: str, ln: str, ld: str, rn: str, rd: str, op: str) -> str:
    """Code for n/d = ln/ld op rn/rd over the lcm of the denominators: an if and its else."""
    same = f"; {d} = {ld}" if d != ld else ""
    return (f"if {ld} == {rd}: {n} = {ln} {op} {rn}{same}\nelse: _g = _gcd({ld}, {rd});"
            f" {n} = {ln} * ({rd} // _g) {op} {rn} * ({ld} // _g); {d} = {ld} // _g * {rd}")


_HELPERS = {
    "__builtins__": {}, "type": type, "int": int, "range": range,
    "_binom": binom, "_gcd": math.gcd, "_index": _index, "_pow": _pow, "_unbound": _unbound,
    "_value": _value, "_fraction": _coprime_fraction,
}
_PARITY = (IntLit(-1), Neg(IntLit(1)))  # the bases of a parity sign (-1)^(e), 1 - e % 2 * 2
# each operator's template over two values, and over two pairs (a product's parts multiply)
_OPS = {t: (f"({{0}} {op} {{1}})", _added("{n}", "{d}", "{0}", "{1}", "{2}", "{3}", op))
        for t, op in ((Add, "+"), (Sub, "-"), (Mul, "*"))}
# by whether a sum is a pair: its zero, its total and the total's templates at its terms
_TOTALS = (("0", "_a", "_a = {0}", "_a += {0}"), ("0, 1", "_an, _ad", "_an, _ad = {0}, {1}",
                                                  _added("_an", "_ad", "_an", "_ad", "{0}", "{1}", "+")))
# Pair sides {0}/{1} and {2}/{3}, denominators > 0: the left is normalised once, to _l, an int
# or _p/_q in lowest terms, and the right equals it iff {2} == _l * {3}, or iff _q divides {3}
# and {2} == _p * ({3} // _q): one division and one product, where cross products take two.
_PAIRED = ("_g = _gcd({0}, {1})\n"
           "if _g == {1}: _l = {0} // _g;"
           " _out.append((_l, _l if {2} == _l * {3} else _value({2}, {3})))\n"
           "else: _p = {0} // _g; _q = {1} // _g; _l = _fraction(_p, _q);"
           " _out.append((_l, _l if {3} % _q == 0 and {2} == _p * ({3} // _q) else _value({2}, {3})))")
# a function being lowered: its statements, each local by (template, operands), the locals
# that move, and each local's uses (2 for any read by a statement of the other variance). A
# statement is (its local, or a pair's two: {n} and {d} in its template; its template over
# operands, literals or locals that are {0}, {1}, ...; whether it moves; whether it can raise).
_Fn = namedtuple("_Fn", "stmts numbers moving uses")


@lru_cache(maxsize=1024)
def _uses(template: str, operands: int) -> tuple:
    """How many times template evaluates each operand: the most on one of its lines, which run
    apart (an if and its else, or a sum's total at its first term and at the later ones)."""
    lines = template.split("\n")
    return tuple(max(line.count(f"{{{i}}}") for line in lines) for i in range(operands))


def _written(fn: _Fn, operands: tuple, moves: bool, *tails: str) -> tuple:
    """(whether it moves, its line) for each statement of fn not written into its reader, and
    the text of each of tails, templates over operands that read them with the variance moves."""
    _count(fn, "\n".join(tails), operands, moves)
    texts, lines = {}, []
    for targets, template, ops, moved, raises in fn.stmts:
        text = template.format(*map(texts.get, ops, ops), n=targets[0], d=targets[-1])
        if len(targets) == 2:
            lines.append((moved, text))
        elif raises or fn.uses.get(targets[0]) != 1:
            lines.append((moved, f"{targets[0]} = {text}"))
        else:
            texts[targets[0]] = text
    return lines, [tail.format(*map(texts.get, operands, operands)) for tail in tails]


def _count(fn: _Fn, template: str, operands: tuple, moves: bool) -> None:
    """Count the uses of operands by template, a statement of fn with the variance moves."""
    for op, n in zip(operands, _uses(template, len(operands))):
        fn.uses[op] = fn.uses.get(op, 0) + (n if moves == (op in fn.moving) else 2)


def _reads(node, names) -> bool:
    """Whether node reads a variable of names."""
    return node.name in names if type(node) is Var else any(
        _reads(x, names) for x in node[:-1] if isinstance(x, _Node))


def _block(pad: str, *texts) -> list:
    """The lines of texts, each after pad."""
    return [pad + line for text in texts for line in text.split("\n")]


@lru_cache(maxsize=256)
def _compiled(sides: tuple, whole: frozenset, variables: tuple, ints: bool):
    """Code defining _make(), and the sequence name of each slot _tK in order of first use;
    _f(b, _ns, _out) lowers the last of variables as a sum's variable, _w over _ns, and reads
    another as b[i], i its place in variables, each an int if ints is set. A value written
    into its reader nests one parenthesis per tree level, and _bind refuses a tree deeper than
    MAX_DEPTH (only a hand-built one can be): the compiler allows 200. Sums are functions,
    never nested loops, as Python allows 20 nested blocks. With ints set no index is converted;
    an exponent known >= 0 (a literal, j of a sum from a literal >= 0, or hi - j) has no sign
    test; binom(hi, j) in a sum of j from 0 to hi is a running product."""
    seqs: dict = {}
    sums: dict = {}  # by each sum's variable's local: its lo's operand, its hi, their scope
    defs: list = []  # each sum's function, inner sums first
    fns: list = [_Fn([], {}, {"_w"}, {})]  # the functions being lowered, innermost last
    names, last = count(), variables[-1:]

    def stmt(template: str, *operands: str, pair: bool = False, raises: bool = False):
        """The local (a pair's two) of template over operands: a new statement's, or an equal
        earlier one's."""
        fn = fns[-1]
        if (template, operands) not in fn.numbers:
            k = next(names)
            targets = (f"_n{k}", f"_d{k}") if pair else (f"_x{k}",)
            moves = not fn.moving.isdisjoint(operands)
            _count(fn, template, operands, moves)
            fn.moving.update(targets if moves else ())
            fn.stmts.append((targets, template, operands, moves, raises))
            fn.numbers[template, operands] = targets if pair else targets[0]
        return fn.numbers[template, operands]

    def kind(node, scope: dict) -> int:
        """0 for an int, 1 for a value that may be a Fraction, 2 for a pair."""
        t = type(node)
        return (int(not ints and node.name not in scope) if t is Var
                else 2 * (node.seq not in whole) if t is SeqTerm
                else max(kind(x, scope) for x in node[:-1]) if t is Neg or t in _OPS
                else kind(node.body, {**scope, node.var: ""}) if t is Sum
                else max(1, kind(node.base, scope)) if t is Pow and node.base not in _PARITY
                else 0)  # a literal, a binom or a parity sign (or no node, which lower refuses)

    def ranged(node, scope: dict) -> str:
        """The operand of the lower bound of the sum over j, for node j, hi - j or binom(hi, j)
        with hi that sum's upper bound read alike in scope (only a hand-built tree rebinds a
        name); else ""."""
        j, hi = (node[1], node[0]) if type(node) in (Sub, Binom) else (node, None)
        lo, bound, outer = sums.get(type(j) is Var and scope.get(j.name), ("", None, {}))
        moved = {name for name in scope if outer.get(name) != scope[name]}
        return lo if hi is None or hi == bound and not _reads(hi, moved) else ""

    def lower(node, scope: dict, pair: bool = False):
        """The operand (a literal or a local) of node's value, or with pair=True the operands
        of its numerator and denominator."""
        t = type(node)
        if t is IntLit or t is Neg and type(node.operand) is IntLit:  # a literal
            value = operator.index(node.value) if t is IntLit else -operator.index(node.operand.value)
            text = repr(value) if value >= 0 else f"({value})"
            return (text, "1") if pair else text
        k = kind(node, scope)
        if pair and not k:
            return lower(node, scope), "1"
        if not pair and k == 2:
            return stmt("_value({0}, {1})", *lower(node, scope, True))
        if t is Var:
            text = scope.get(node.name) or ("_w" if node.name in last else
                stmt("b[{0}]", str(variables.index(node.name))) if node.name in variables
                else stmt("_unbound({0})", str.__repr__(node.name), raises=True))
            return stmt("{n}, {d} = {0}.as_integer_ratio()", text, pair=True) if pair else text
        if t is SeqTerm:  # an int if the sequence is whole, else a pair
            slot = seqs.setdefault(node.seq, f"_t{len(seqs)}")
            index = integer(node.index, scope, "sequence index")
            return stmt(("{n}, {d} = " if pair else "") + slot + "({0})", index, pair=pair)
        if t is Neg:
            operand = lower(node.operand, scope, pair)
            return (stmt("(-{0})", operand[0]), operand[1]) if pair else stmt("(-{0})", operand)
        if t in _OPS and not pair:
            return stmt(_OPS[t][0], lower(node.left, scope), lower(node.right, scope))
        if t in _OPS:
            (ln, ld), (rn, rd) = lower(node.left, scope, True), lower(node.right, scope, True)
            if t is not Mul:
                return stmt(_OPS[t][1], ln, ld, rn, rd, pair=True)
            return [y if x == "1" else x if y == "1" else stmt(_OPS[Mul][0], x, y)
                    for x, y in ((ln, rn), (ld, rd))]
        if t is Pow and node.base in _PARITY:  # an int, so never a pair
            return stmt("(1 - {0} % 2 * 2)", integer(node.exponent, scope, "exponent"))
        if t is Pow:  # over (num, den, exponent); a value's den is 1
            num, den = lower(node.base, scope, True) if pair else (lower(node.base, scope), "1")
            if kind(node.base, scope) == 2 and type(node.base) in (Add, Sub, Mul, Neg, Sum):
                num, den = stmt("{n}, {d} = _value({0}, {1}).as_integer_ratio()", num, den,
                                pair=True)  # cancel first
            e, lo = integer(node.exponent, scope, "exponent"), ranged(node.exponent, scope)
            power = "{n} = {0} ** {2}; {d} = " + ("1" if den == "1" else "{1} ** {2}")
            if e.isdigit() or lo.isdigit() or type(node.exponent) is Sub and lo:  # known >= 0
                value = stmt("({0} ** {2})" if den == "1" else power, num, den, e, pair=den != "1")
                return (value, "1") if pair and den == "1" else value
            if pair:
                return stmt(f"if {{2}} >= 0: {power}\n"
                            "else: {n}, {d} = _pow(({0}, {1}), {2})", num, den, e, pair=True,
                            raises=True)
            ratio = "{0}.as_integer_ratio()" if kind(node.base, scope) else "({0}, {1})"
            return stmt(f"({{0}} ** {{2}} if {{2}} >= 0 else _value(*_pow({ratio}, {{2}})))",
                        num, den, e, raises=True)
        if t is Sum:
            lo = integer(node.lo, scope, "sum lower bound")
            hi = integer(node.hi, scope, "sum upper bound")
            outer = (*scope.values(), *["_w"] * _reads(node.body, last))
            args = "(b" + "".join(f", {{{i}}}" for i in range(2 + len(outer))) + ")"
            return stmt(("{n}, {d} = " if pair else "") + summed(node, scope, pair, lo, outer)
                        + args, lo, hi, *outer, pair=pair, raises=True)
        if t is Binom and ranged(node, scope) == "0" and scope[node.second.name] in fns[-1].moving:
            c = "_c" + scope[node.second.name][2:]  # in j's own function, a running product
            fns[-1].moving.add(c)
            return c
        if t is Binom:
            args = (integer(x, scope, "binom argument") for x in (node.first, node.second))
            return stmt("_binom({0}, {1})", *args, raises=True)
        raise TypeError(f"not a DSL node: {node!r}")

    def integer(node, scope: dict, what: str) -> str:
        """The operand of node's value as an int: converted by _index unless node is an int,
        once per value, as only the first conversion of it can raise (_i holds the value
        between the test and its use)."""
        value, numbers = lower(node, scope), fns[-1].numbers
        if kind(node, scope) and value not in numbers:
            numbers[value] = stmt("_i if type(_i := {0}) is int else _index(_i, {1})", value,
                                  repr(what), raises=True)
        return numbers.get(value, value)

    def summed(node: Sum, scope: dict, pair: bool, lo: str, outer: tuple) -> str:
        """The name of a new function of b, _lo, _hi and the enclosing loops' variables outer."""
        k = next(names)
        var, params = f"_v{k}", ", ".join(("b", "_lo", "_hi", *outer))
        sums[var] = lo, node.hi, scope
        fns.append(_Fn([], {}, {var}, {}))
        term = lower(node.body, {**scope, node.var: var}, pair)
        zero, total, *tails = _TOTALS[pair]
        fn, c = fns.pop(), f"_c{k}"  # c: binom(hi, j), if the body reads it
        lines, (first, later) = _written(fn, term if pair else (term,), True, *tails)
        defs.append([
            f"def _s{k}({params}):", f" if _lo > _hi: return {zero}",
            f" {var} = _lo" + f"; {c} = 1" * (c in fn.moving),
            *_block(" ", *(line for _, line in lines), first),
            f" for {var} in range(_lo + 1, _hi + 1):",
            *[f"  {c} = {c} * (_hi - {var} + 1) // {var}"] * (c in fn.moving),
            *_block("  ", *(line for moves, line in lines if moves), later), f" return {total}",
        ])
        return f"_s{k}"

    if len(sides) == 2 and kind(sides[0], {}) == kind(sides[1], {}) == 2:
        texts, tail = [x for side in sides for x in lower(side, {}, True)], _PAIRED
    else:
        texts = [lower(side, {}) for side in sides]
        tail = "_out.append((" + "".join(f"{{{i}}}, " for i in range(len(texts))) + "))"
    lines, (tail,) = _written(fns[0], texts, True, tail)
    source = "\n".join([
        "def _make():", *_block(" ", *(line for lines in defs for line in lines)),
        " def _f(b, _ns, _out):", "  _w = _ns[0]", *_block("  ", *(line for _, line in lines), tail),
        "  for _w in _ns[1:]:", *_block("   ", *(line for moves, line in lines if moves), tail),
        "  return _out", " return _f\n",
    ])
    return compile(source, "<horadam.dsl>", "exec"), tuple(seqs)


def _bind(sides: tuple, registry: Mapping[str, Sequence], variables: tuple, ints: bool) -> Outcome:
    """The Outcome of sides over variables, which carries their line function (see _compiled),
    with one term store per sequence name; its one case is a line of one value. An unknown name
    fails here, before any case runs, and a tree deeper than MAX_DEPTH before anything, the
    code cache's hash included, recurses over it."""
    if any(map(_too_deep, sides)):
        raise EvalError(_TOO_DEEP)
    whole = frozenset(name for name, seq in registry.items() if is_whole(seq))
    code, slots = _compiled(sides, whole, variables, ints)
    namespace = dict(_HELPERS)
    for k, name in enumerate(slots):
        seq = registry.get(name)
        if seq is None:
            raise EvalError(f"unknown sequence name {name!r}")
        namespace[f"_t{k}"] = _Terms(seq).__getitem__
    exec(code, namespace)
    line = namespace.pop("_make")()  # so that no function and its globals form a cycle
    return Outcome.of_line(line, variables)


def eval_expr(node, bindings: Mapping[str, int], registry: Mapping[str, Sequence]) -> Rational:
    """Evaluate one expression tree exactly under bindings that are ints or Fractions. Unless
    all are ints, the code checks that each index expression's value is whole."""
    for name, bound in bindings.items():
        if not isinstance(bound, (int, Fraction)):
            raise EvalError(f"variable {name!r} is bound to {bound!r}, not an int or a Fraction")
    ints = all(type(bound) is int for bound in bindings.values())
    value = _bind((node,), registry, tuple(bindings), ints).positional(*bindings.values())[0]
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
    outcome = _bind((ast.lhs, ast.rhs), registry, grid.var_names, True)
    label = identity_label if identity_label is not None else pretty_print(ast)
    return run_grid(label, grid, outcome)
