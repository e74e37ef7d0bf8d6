"""Integer parameter grids: the "var=lo..hi" microformat and case enumeration.

Grid text is comma-separated ranges, optionally followed by ";"-separated
filter constraints, e.g. "n=-3..3,m=-3..3;m<=n". A bare "var=v" pins the
variable to one value. An inverted range (lo > hi) is empty, which makes the
whole grid empty. Cases are enumerated in lexicographic order of the sorted
variable names; constraints filter cases out, they never bind variables.
Numbers and blanks follow scalar's number rule.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterator, NamedTuple

from .errors import ParseError, UsageError
from .scalar import BLANK, BLANKS, INTEGER

# The one identifier rule: grid variables and the DSL's names (a leading "_" too).
NAME = "[A-Za-z_][A-Za-z0-9_]*"
_INTEGER = re.compile(INTEGER)
_RANGE = re.compile(rf"{BLANK}({NAME}){BLANK}={BLANK}({INTEGER})(?:{BLANK}\.\.{BLANK}({INTEGER}))?{BLANK}")
_OPERAND = f"{BLANK}({NAME}|{INTEGER}){BLANK}"
_CONSTRAINT = re.compile(f"{_OPERAND}(<=|>=|!=|==|<|>|=){_OPERAND}")

_OPS = {
    "<=": lambda x, y: x <= y,
    ">=": lambda x, y: x >= y,
    "<": lambda x, y: x < y,
    ">": lambda x, y: x > y,
    "=": lambda x, y: x == y,
    "==": lambda x, y: x == y,
    "!=": lambda x, y: x != y,
}


class GridSpec(NamedTuple):
    """Finite integer grid: inclusive per-variable ranges plus filter constraints."""

    ranges: tuple  # ((name, lo, hi), ...) sorted by name
    constraints: tuple  # ((left, op, right), ...) operands are var names or ints
    text: str  # the grid in microformat text, kept for reports

    @property
    def var_names(self) -> tuple:
        return tuple(name for name, _, _ in self.ranges)

    def require_variables(self, needed, subject: str) -> None:
        """Raise UsageError, naming any missing and unused, unless the variables are those needed."""
        have, want = set(self.var_names), set(needed)
        if have != want:
            parts = [f"{word} {', '.join(sorted(names))}"
                     for word, names in (("missing", want - have), ("unused", have - want)) if names]
            raise UsageError(f"grid variables do not match {subject}: {'; '.join(parts)}")

    def values(self) -> Iterator[tuple]:
        """Each case as the tuple of its values in sorted-name order, deterministically."""
        product = itertools.product(*[range(lo, hi + 1) for _, lo, hi in self.ranges])
        kept = self._kept()
        return product if kept is None else filter(kept, product)

    def lines(self, size: int) -> Iterator[tuple]:
        """The cases of values(), in order, as lines (prefix, last): prefix is the values of
        every variable but the last, and last a sequence of those of the last variable in at
        most size consecutive cases that share prefix. A grid of no variables has one case, a
        line of the value 0 (unless a constraint fails)."""
        *head, (_, lo, hi) = self.ranges or (("", 0, 0),)
        kept = self._kept()
        for prefix in itertools.product(*[range(first, end + 1) for _, first, end in head]):
            for start in range(lo, hi + 1, size):
                last = range(start, min(start + size, hi + 1))
                last = last if kept is None else tuple(v for v in last if kept((*prefix, v)))
                if last:
                    yield prefix, last

    def _kept(self):
        """Whether a tuple of values meets every constraint, or None if there is none."""
        if not self.constraints:
            return None
        slots = {name: i for i, name in enumerate(self.var_names)}

        def operand(x):  # a variable's value by its slot, or a literal
            return (lambda values, i=slots[x]: values[i]) if isinstance(x, str) else lambda values: x

        checks = [(_OPS[op], operand(left), operand(right)) for left, op, right in self.constraints]
        return lambda values: all(fn(lv(values), rv(values)) for fn, lv, rv in checks)

    def cases(self) -> Iterator[dict]:
        """Yield {var: int} bindings in deterministic (sorted-name) order."""
        names = self.var_names
        return (dict(zip(names, values)) for values in self.values())

    def case_count(self) -> int:
        if not self.constraints:
            count = 1
            for _, lo, hi in self.ranges:
                count *= max(0, hi - lo + 1)
            return count
        return sum(1 for _ in self.values())


def parse_grid(text: str) -> GridSpec:
    """Parse the grid microformat; duplicate or malformed entries are rejected."""
    sections = text.split(";")
    ranges = {}
    head = sections[0].strip(BLANKS)
    if head:
        for part in head.split(","):
            match = _RANGE.fullmatch(part)
            if match is None:
                raise ParseError(f"bad grid range {part.strip(BLANKS)!r}, expected var=lo..hi")
            name, lo, hi = match.group(1), int(match.group(2)), match.group(3)
            if name in ranges:
                raise ParseError(f"duplicate grid variable {name!r}")
            ranges[name] = (lo, int(hi) if hi is not None else lo)
    constraints = []
    for section in sections[1:]:
        if not section.strip(BLANKS):
            raise ParseError("empty grid constraint")
        match = _CONSTRAINT.fullmatch(section)
        if match is None:
            raise ParseError(f"bad grid constraint {section.strip(BLANKS)!r}")
        left, op, right = (int(x) if _INTEGER.fullmatch(x) else x for x in match.groups())
        for operand in (left, right):
            if isinstance(operand, str) and operand not in ranges:
                raise ParseError(f"constraint uses unknown variable {operand!r}")
        constraints.append((left, op, right))
    ordered = tuple(sorted((name, lo, hi) for name, (lo, hi) in ranges.items()))
    return GridSpec(ordered, tuple(constraints), text)


def make_grid(ranges: dict, constraints: tuple = ()) -> GridSpec:
    """Build a GridSpec from {var: (lo, hi)} and constraint texts like "m<=n".

    The canonical text (sorted variables, then constraints) goes back through
    parse_grid, so a made grid and its reparsed text always agree.
    """
    parts = []
    for name in sorted(ranges):
        lo, hi = ranges[name]
        parts.append(f"{name}={lo}..{hi}" if lo != hi else f"{name}={lo}")
    text = ",".join(parts)
    for constraint in constraints:
        text += f";{constraint}"
    return parse_grid(text)
