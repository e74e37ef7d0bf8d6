"""Verification reports: aggregation over grids and stable serialization."""

from __future__ import annotations

import csv
import io
import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .errors import HoradamError
from .grid import GridSpec
from .scalar import rat_text

# Outcome protocol for one case: None means skipped (a stated nonzero
# hypothesis fails), otherwise an exactly evaluated (lhs, rhs) pair; an outcome
# is an Outcome or any function of a dict case.
CaseOutcome = Optional[tuple]


class Outcome(NamedTuple):
    """An outcome as a function of a case's values, in the order of names; line, if set, is it
    as line(prefix, last, out), which appends each (lhs, rhs) of a line of cases to out and
    returns out, or else appends nothing and returns None: every case of the line is skipped."""

    positional: Callable[..., CaseOutcome]
    names: tuple
    line: Optional[Callable[[tuple, Sequence, list], Optional[list]]] = None

    def __call__(self, case: Mapping) -> CaseOutcome:
        """The outcome of a dict case: the package's one reader of a case by name."""
        return self.positional(*[case[name] for name in self.names])

    @classmethod
    def of_line(cls, line: Callable, names: tuple) -> Outcome:
        """The Outcome that carries line, whose one case is a line of one value (a grid of no
        variables is one line of the value 0, which no code reads)."""

        def positional(*values) -> CaseOutcome:
            out = line(values[:-1], values[-1:] or (0,), [])
            return None if out is None else out[0]

        return cls(positional, names, line)


_TEXT_COUNTEREXAMPLE_CAP = 20
_LINE = 64  # the most values of a line per call: a passing sweep holds no more results

# Leading fields of every JSON object and CSV row, in output order.
_SUMMARY_FIELDS = ("identity", "grid", "cases_total", "cases_checked", "cases_skipped_precondition")
_CSV_HEADER = ",".join((*_SUMMARY_FIELDS, "bindings", "lhs", "rhs")) + "\n"

# Stable shape of every JSON report this tool emits (verify/catalog run/check).
REPORT_JSON_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "identity": {"type": "string"},
        "grid": {"type": "string"},
        "cases_total": {"type": "integer", "minimum": 0},
        "cases_checked": {"type": "integer", "minimum": 0},
        "cases_skipped_precondition": {"type": "integer", "minimum": 0},
        "counterexamples": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "bindings": {
                        "type": "object",
                        "additionalProperties": {"type": "integer"},
                    },
                    "lhs": {"type": "string"},
                    "rhs": {"type": "string"},
                },
                "required": ["bindings", "lhs", "rhs"],
                "additionalProperties": False,
            },
        },
    },
    "required": [*_SUMMARY_FIELDS, "counterexamples"],
    "additionalProperties": False,
}


def render_bindings(bindings: dict) -> str:
    """Canonical one-line form 'a=0;b=1' with sorted variable names."""
    return ";".join(f"{k}={bindings[k]}" for k in sorted(bindings))


class VerificationReport(NamedTuple):
    """Outcome of checking one identity over one binding or grid."""

    identity: str
    grid: str
    cases_total: int
    cases_checked: int
    cases_skipped_precondition: int
    counterexamples: tuple  # ((bindings, lhs, rhs), ...)

    @property
    def holds(self) -> bool:
        return not self.counterexamples

    def exit_code(self) -> int:
        return 0 if self.holds else 1

    def to_json_obj(self) -> dict:
        return {
            **{name: getattr(self, name) for name in _SUMMARY_FIELDS},
            "counterexamples": [
                {
                    "bindings": {k: bindings[k] for k in sorted(bindings)},
                    "lhs": rat_text(lhs),
                    "rhs": rat_text(rhs),
                }
                for bindings, lhs, rhs in self.counterexamples
            ],
        }

    def to_json(self) -> str:
        """json.dumps(self.to_json_obj(), indent=2) + newline, written directly: indent
        selects the pure-Python encoder. Names are escaped as that encoder escapes them;
        rat_text's digits, '-' and '/' need no escaping."""
        head = json.dumps({name: getattr(self, name) for name in _SUMMARY_FIELDS}, indent=2)
        rows = []
        for bindings, lhs, rhs in self.counterexamples:
            names = ",\n".join(f"        {_quote(k)}: {bindings[k]}" for k in sorted(bindings))
            names = "{\n" + names + "\n      }" if bindings else "{}"
            rows.append(f'    {{\n      "bindings": {names},\n      "lhs": "{rat_text(lhs)}",'
                        f'\n      "rhs": "{rat_text(rhs)}"\n    }}')
        listed = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
        return f'{head[:-2]},\n  "counterexamples": {listed}\n}}\n'

    def to_csv(self) -> str:
        """csv.writer's rows (lineterminator newline); the summary prefix goes through
        csv once, and the bindings text (grid names, ints) and rat_text never need quoting."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([getattr(self, name) for name in _SUMMARY_FIELDS])
        head = buf.getvalue()[:-1]
        rows = [f"{head},{render_bindings(b)},{rat_text(lhs)},{rat_text(rhs)}\n"
                for b, lhs, rhs in self.counterexamples]
        return _CSV_HEADER + "".join(rows or [f"{head},,,\n"])

    def to_text(self) -> str:
        lines = [
            f"identity: {self.identity}",
            f"grid: {self.grid}",
            (
                f"cases: total={self.cases_total} checked={self.cases_checked}"
                f" skipped={self.cases_skipped_precondition}"
            ),
            f"counterexamples: {len(self.counterexamples)}",
        ]
        for bindings, lhs, rhs in self.counterexamples[:_TEXT_COUNTEREXAMPLE_CAP]:
            lines.append(f"  {render_bindings(bindings)}: lhs={rat_text(lhs)} rhs={rat_text(rhs)}")
        hidden = len(self.counterexamples) - _TEXT_COUNTEREXAMPLE_CAP
        if hidden > 0:
            lines.append(f"  ... and {hidden} more")
        lines.append(f"result: {'PASS' if self.holds else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "text":
            return self.to_text()
        raise ValueError(f"unknown format {fmt!r}")


def run_grid(identity: str, grid: GridSpec, outcome: Callable[[dict], CaseOutcome]) -> VerificationReport:
    """Evaluate one outcome over every grid case, deterministically. An Outcome over the grid's
    names gets each line of it (GridSpec.lines) if it carries a line function, and every case of
    a line for which that returns None is skipped; else it gets each case's values; any other
    outcome gets a dict case. An error names its case, if it has variables."""
    names = grid.var_names
    fast = isinstance(outcome, Outcome) and outcome.names == names
    line = outcome.line if fast else None
    case = lambda values: dict(zip(names, values))  # a case by name, from its values
    call = outcome.positional if fast else lambda *values: outcome(case(values))
    total, skipped, counterexamples, out = 0, 0, [], []
    try:
        if line is not None:
            for prefix, last in grid.lines(_LINE):
                if line(prefix, last, out) is None:
                    skipped += len(last)
                    total += len(last)
                    continue
                for value, (lhs, rhs) in zip(last, out):
                    if lhs is not rhs and lhs != rhs:  # equal pair sides share one value
                        counterexamples.append((case((*prefix, value)), lhs, rhs))
                total += len(out)
                out.clear()
        else:
            for values in grid.values():
                total += 1
                result = call(*values)
                if result is None:
                    skipped += 1
                    continue
                lhs, rhs = result
                if lhs is not rhs and lhs != rhs:  # kernel outcomes share one Fraction when equal
                    counterexamples.append((case(values), lhs, rhs))
    except HoradamError as exc:
        if names:
            values = (*prefix, last[len(out)]) if line is not None else values
            exc.args = (f"{exc} (case {render_bindings(case(values))})",)
        raise
    return VerificationReport(identity, grid.text, total, total - skipped, skipped,
                              tuple(counterexamples))
