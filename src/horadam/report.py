"""Verification reports: aggregation over grids and stable serialization."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import HoradamError
from .grid import GridSpec
from .scalar import rat_text

# Outcome protocol for one case: None means skipped (a stated nonzero
# hypothesis fails), otherwise an exactly evaluated (lhs, rhs) pair.
CaseOutcome = Optional[tuple]

_TEXT_COUNTEREXAMPLE_CAP = 20

# Leading fields of every JSON object and CSV row, in output order.
_SUMMARY_FIELDS = ("identity", "grid", "cases_total", "cases_checked", "cases_skipped_precondition")

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


@dataclass(frozen=True)
class VerificationReport:
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
        return json.dumps(self.to_json_obj(), indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([*_SUMMARY_FIELDS, "bindings", "lhs", "rhs"])
        head = [getattr(self, name) for name in _SUMMARY_FIELDS]
        if self.counterexamples:
            for bindings, lhs, rhs in self.counterexamples:
                writer.writerow(head + [render_bindings(bindings), rat_text(lhs), rat_text(rhs)])
        else:
            writer.writerow(head + ["", "", ""])
        return buf.getvalue()

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
    """Evaluate one outcome function over every grid case, deterministically."""
    total = checked = skipped = 0
    counterexamples = []
    for binding in grid.cases():
        total += 1
        try:
            result = outcome(binding)
        except HoradamError as exc:
            if binding:
                exc.args = (f"{exc} (case {render_bindings(binding)})",)
            raise
        if result is None:
            skipped += 1
            continue
        checked += 1
        lhs, rhs = result
        if lhs is not rhs and lhs != rhs:  # kernel outcomes share one Fraction when equal
            counterexamples.append((dict(binding), lhs, rhs))
    return VerificationReport(identity, grid.text, total, checked, skipped, tuple(counterexamples))
