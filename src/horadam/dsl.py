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
# _f(*b), the tuple of the sides' values for the case's values b, read by slot
# b[i]. The text holds only int literals, error labels, the repr'd name of any
# variable left unbound, and its own names: slots _tK for sequences, filled at
# bind time, a function _sK(b, _lo, _hi, enclosing sums' variables) with the
# variable _vK per sum, and locals. Statements run in a tree walk's
# order, and a text that a later statement would overtake is stored first, so
# the first error raised is the same as a walk's.
#
# A node is an int, a value (an int or Fraction by Python's operators) or a
# pair, an unreduced numerator and denominator > 0 held apart: a term of a
# sequence that is not whole, or an operation with a pair operand, whose other
# operands are then pairs too (2^(-j)*J[j] makes no Fraction). Products multiply
# the parts, powers raise them, and + - and a sum's total use the lcm of the
# denominators, never their product. A pair side, or a pair used as an integer,
# is normalised once by _value. A sum whose body holds no sum is peeled: its
# first term stores each largest subtree that does not read its variable in a
# local, which the loop over the later terms reads; an empty sum returns first.


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


def _below(node, test, depth: int, found: set) -> bool:
    """Whether test holds for node or below it, to depth MAX_DEPTH; adds each such id to found."""
    if depth > MAX_DEPTH or not isinstance(node, _Node):
        return False
    if any([_below(child, test, depth + 1, found) for child in node]) or test(node):
        found.add(id(node))
        return True
    return False


_HELPERS = {
    "__builtins__": {}, "type": type, "int": int, "range": range,
    "_binom": binom, "_gcd": math.gcd, "_index": _index, "_pow": _pow, "_unbound": _unbound,
    "_value": _value,
}
_OPS = {Add: "+", Sub: "-", Mul: "*"}
_ATOM = re.compile(r"\w+")  # a name or a non-negative literal: nothing left to evaluate


@lru_cache(maxsize=256)
def _compiled(sides: tuple, whole: frozenset, variables: tuple):
    """Code defining _make(), and the sequence name of each slot _tK in order of first use;
    _f(*b) reads a free variable as b[i], i its place in variables.
    Each tree level adds at most two nested parentheses, and a tree deeper than MAX_DEPTH
    (only a hand-built one can be) is refused: the compiler allows 200. Sums are
    functions, never nested loops, as Python allows 20 nested blocks."""
    seqs: dict = {}
    defs: list = []  # each sum's function, inner sums first
    out: list = [[]]  # the statements of each function being written, innermost last
    names = count()
    peel: list = []  # in a peeled body: ids of nodes reading its variable, stored texts

    def put(line: str) -> None:
        out[-1].append(line)

    def local(text: str, pair: bool = False):
        """A name or literal holding text's value, evaluated here (a pair's two names)."""
        if not pair and _ATOM.fullmatch(text):
            return text
        k = next(names)
        put(f"_n{k}, _d{k} = {text}" if pair else f"_x{k} = {text}")
        return (f"_n{k}", f"_d{k}") if pair else f"_x{k}"

    def ordered(*makes) -> list:
        """Each make()'s text; the texts before one that writes statements are stored first."""
        texts = []
        for make in makes:
            out.append([])
            text, later = make(), out.pop()
            texts = [*map(local, texts), text] if later else [*texts, text]
            out[-1] += later
        return texts

    def kind(node, scope: dict, depth: int) -> int:
        """0 for an int, 1 for a value that may be a Fraction, 2 for a pair."""
        t = type(node)
        if depth > MAX_DEPTH:
            return 0
        if t is Var:
            return int(node.name not in scope)
        if t is SeqTerm:
            return 0 if node.seq in whole else 2
        if t is Neg or t in _OPS:
            return max(kind(x, scope, depth + 1) for x in node)  # pos counts 0
        if t is Pow:
            parity = node.base in (IntLit(-1), Neg(IntLit(1)))
            return 0 if parity else max(1, kind(node.base, scope, depth + 1))
        if t is Sum:
            return kind(node.body, {**scope, node.var: ""}, depth + 1)
        return 0  # a literal or a binom (or no node, which emit refuses)

    def emit(node, scope: dict, depth: int = 1, pair: bool = False):
        """node's value text, or with pair=True its numerator's and denominator's."""
        if depth > MAX_DEPTH:
            raise EvalError(_TOO_DEEP)
        if text := hoisted(node, scope, lambda: emit(node, scope, depth, pair)):
            return text
        t = type(node)
        if t is Neg and type(node.operand) is IntLit:  # a negative literal
            emit(node.operand, scope, depth + 1)  # the operand's depth check
            node, t = IntLit(-operator.index(node.operand.value)), IntLit
        k = kind(node, scope, depth)
        if pair and not k:
            return local(emit(node, scope, depth)), "1"
        if not pair and k == 2:
            return "_value({}, {})".format(*emit(node, scope, depth, True))
        depth += 1
        if t is IntLit:
            return repr(operator.index(node.value))
        if t is Var:
            text = scope.get(node.name) or (f"b[{variables.index(node.name)}]" if node.name in variables
                                            else f"_unbound({str.__repr__(node.name)})")
            return local(f"{text}.as_integer_ratio()", True) if pair else text
        if t is SeqTerm:  # an int if the sequence is whole, else a pair
            slot = seqs.setdefault(node.seq, f"_t{len(seqs)}")
            text = f"{slot}({integer(node.index, scope, depth, 'sequence index')})"
            return local(text, True) if pair else text
        if t is Neg:
            if not pair:
                return "-" + emit(node.operand, scope, depth)
            num, den = emit(node.operand, scope, depth, True)
            return f"-{num}", den
        if t in _OPS and not pair:
            left, right = ordered(
                lambda: emit(node.left, scope, depth), lambda: emit(node.right, scope, depth)
            )
            return f"({left} {_OPS[t]} {right})"
        if t in _OPS:
            (ln, ld), (rn, rd) = (emit(x, scope, depth, True) for x in (node.left, node.right))
            if t is Mul:
                return [" * ".join(x for x in p if x != "1") or "1" for p in ((ln, rn), (ld, rd))]
            k = next(names)
            return added(ln, ld, rn, rd, _OPS[t], f"_n{k}", f"_d{k}")
        if t is Pow and not pair:
            base = emit(node.base, scope, depth)
            if base == "-1":  # a parity sign
                return f"({integer(node.exponent, scope, depth, 'exponent', '1 - {} % 2 * 2')})"
            base, e = local(base), local(integer(node.exponent, scope, depth, "exponent"))
            ratio = f"({base}, 1)" if base.isdigit() else f"{base}.as_integer_ratio()"
            return f"({base} ** {e} if {e} >= 0 else _value(*_pow({ratio}, {e})))"
        if t is Pow:
            num, den = map(local, emit(node.base, scope, depth, True))
            if kind(node.base, scope, depth) == 2 and type(node.base) in (Add, Sub, Mul, Neg, Sum):
                num, den = local(f"_value({num}, {den}).as_integer_ratio()", True)  # cancel first
            e, k = local(integer(node.exponent, scope, depth, "exponent")), next(names)
            power = "1" if den == "1" else f"{den} ** {e}"
            put(f"if {e} >= 0: _n{k} = {num} ** {e}; _d{k} = {power}")
            put(f"else: _n{k}, _d{k} = _pow(({num}, {den}), {e})")
            return f"_n{k}", f"_d{k}"
        if t is Sum:
            lo, hi = ints(scope, depth, (node.lo, "sum lower bound"), (node.hi, "sum upper bound"))
            args = ", ".join(("b", lo, hi, *scope.values()))
            return local(f"{summed(node, scope, depth, pair)}({args})", pair)
        if t is Binom:
            args = (node.first, "binom argument"), (node.second, "binom argument")
            return "_binom({}, {})".format(*ints(scope, depth, *args))
        raise TypeError(f"not a DSL node: {node!r}")

    def added(ln: str, ld: str, rn: str, rd: str, op: str, num: str, den: str) -> tuple:
        """num/den = ln/ld op rn/rd, over the lcm of the denominators."""
        ld, rd = local(ld), local(rd)
        put(f"if {ld} == {rd}: {num} = {ln} {op} {rn}" + (f"; {den} = {ld}" if den != ld else ""))
        put(f"else: _g = _gcd({ld}, {rd}); {num} = {ln} * ({rd} // _g) {op} {rn} * ({ld} // _g);"
            f" {den} = {ld} // _g * {rd}")
        return num, den

    def summed(node: Sum, scope: dict, depth: int, pair: bool) -> str:
        """The name of a new function of b, _lo, _hi and the enclosing sums' variables."""
        k = next(names)
        var, params = f"_v{k}", ", ".join(("b", "_lo", "_hi", *scope.values()))
        zero, total = ("0, 1", "_an, _ad") if pair else ("0", "_a")
        out.append([])
        if not _below(node.body, lambda below: type(below) is Sum, depth, set()):
            peel[:] = set(), []
            _below(node.body, lambda below: below == Var(node.var), depth, peel[0])
        term, stored = emit(node.body, {**scope, node.var: var}, depth, pair), peel[1:] and peel[1]
        head, start = [f"{total} = {zero}"], "_lo"
        if stored:  # the first term, then the later ones reading what it stored
            put(f"{total} = {', '.join(term) if pair else term}")
            head, start = [f"if _lo > _hi: return {zero}", f"{var} = _lo", *out.pop()], "_lo + 1"
            out.append([])
            peel[1] = iter(stored)
            term = emit(node.body, {**scope, node.var: var}, depth, pair)
        peel.clear()
        added("_an", "_ad", *term, "+", "_an", "_ad") if pair else put(f"_a += {term}")
        defs.append([
            f"def _s{k}({params}):", *(" " + line for line in head),
            f" for {var} in range({start}, _hi + 1):", *("  " + line for line in out.pop()),
            f" return {total}",
        ])
        return f"_s{k}"

    def plain(node, scope: dict) -> bool:
        """node's text is an int literal or a sum variable."""
        t = type(node.operand if type(node) is Neg else node)
        return t is IntLit or type(node) is Var and node.name in scope

    def hoisted(node, scope: dict, make):
        """None unless node is in a peeled body, does not read its variable and is not
        plain; else make()'s text, stored by the first term (the later ones read it)."""
        if not peel or plain(node, scope) or id(node) in peel[0]:
            return None
        reads, stored = peel
        if type(stored) is not list:
            return next(stored)
        peel.clear()
        text = make()
        peel[:] = reads, stored
        stored.append(local(text) if type(text) is str else tuple(map(local, text)))
        return stored[-1]

    def ints(scope: dict, depth: int, *args) -> list:
        """integer() of each (node, what) in args, in order."""
        return ordered(*(lambda x=x, what=what: integer(x, scope, depth, what) for x, what in args))

    def integer(node, scope: dict, depth: int, what: str, use: str = "{}") -> str:
        """use with node's text as an int, converted by _index unless it is a
        literal or a sum variable; _i holds the value between the test and its use."""
        if text := hoisted(node, scope, lambda: integer(node, scope, depth, what, use)):
            return text
        value = emit(node, scope, depth)
        if plain(node, scope):
            return use.format(value)
        convert = use.format(f"_index(_i, {what!r})")
        return f"{use.format('_i')} if type(_i := {value}) is int else {convert}"

    texts = ordered(*(lambda side=side: emit(side, {}) for side in sides))
    source = "\n".join([
        "def _make():", *(" " + line for lines in defs for line in lines), " def _f(*b):",
        *("  " + line for line in out[0]), f"  return {''.join(text + ', ' for text in texts)}",
        " return _f\n",
    ])
    return compile(source, "<horadam.dsl>", "exec"), tuple(seqs)


def _bind(sides: tuple, registry: Mapping[str, Sequence], variables: tuple):
    """The function of the values of variables, in order, for sides, with one term store
    per sequence name; an unknown name fails here, before any case runs."""
    whole = frozenset(name for name, seq in registry.items() if is_whole(seq))
    code, slots = _compiled(sides, whole, variables)
    namespace = dict(_HELPERS)
    for k, name in enumerate(slots):
        seq = registry.get(name)
        if seq is None:
            raise EvalError(f"unknown sequence name {name!r}")
        namespace[f"_t{k}"] = _Terms(seq).__getitem__
    exec(code, namespace)
    return namespace.pop("_make")()  # so that no function and its globals form a cycle


def eval_expr(node, bindings: Mapping[str, int], registry: Mapping[str, Sequence]) -> Rational:
    """Evaluate one expression tree exactly under integer bindings."""
    value = _bind((node,), registry, tuple(bindings))(*bindings.values())[0]
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
    outcome = Outcome(_bind((ast.lhs, ast.rhs), registry, grid.var_names), grid.var_names)
    label = identity_label if identity_label is not None else pretty_print(ast)
    return run_grid(label, grid, outcome)
