"""In-memory spans around the package's public calls, for the traced run.

A span record is ``[id, parent, op, name, start, end, busy, count]``. A plain
span covers one call, so ``busy = end - start`` and ``count = 1``. Calls made
once per grid case (outcome functions, case enumeration, ``rat_text``) would
give hundreds of thousands of records per pass, so each of them instead adds
into one batch record per parent span: ``busy`` sums the time inside the
calls and ``count`` counts them. A record's self time is its ``busy`` minus
the ``busy`` of its children, so the self times of every record under an op
add up to that op's duration.

The wrappers are installed by replacing module attributes (and two methods)
of the package for the length of one traced pass; nothing in the package
itself records anything.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

import horadam.grid
import horadam.report
import horadam.scalar

ID, PARENT, OP, NAME, START, END, BUSY, COUNT = range(8)

# Public functions wrapped with one span per call, by module and attribute.
SPANNED = (
    ("horadam.grid", "parse_grid"),
    ("horadam.sequences", "term"),
    ("horadam.sequences", "term_range"),
    ("horadam.kernel", "verify_identity_grid"),
    ("horadam.catalog", "catalog_run"),
    ("horadam.dsl", "parse_identity"),
    ("horadam.dsl", "verify_over_grid"),
    ("horadam.cli", "main"),
)
# run_grid's callers, and the name of the batch that times their outcome calls.
OUTCOMES = (
    ("horadam.catalog", "catalog.outcome"),
    ("horadam.kernel", "kernel.outcome"),
    ("horadam.dsl", "dsl.eval"),
)


class Tracer:
    def __init__(self):
        self.records = []
        self.stack = []
        self.op = None
        self._batches = {}
        self._undo = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        record = [len(self.records), parent, self.op, name, perf_counter(), None, 0.0, 1]
        self.records.append(record)
        self.stack.append(record[ID])
        return record

    def end(self, record: list) -> None:
        record[END] = perf_counter()
        record[BUSY] = record[END] - record[START]
        self.stack.pop()

    def _batch(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        record = self._batches.get((parent, name))
        if record is None:
            record = [len(self.records), parent, self.op, name, perf_counter(), None, 0.0, 0]
            self.records.append(record)
            self._batches[(parent, name)] = record
        return record

    def span(self, name: str, fn):
        def wrapped(*args, **kwargs):
            record = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(record)

        return wrapped

    def batch(self, name: str, fn):
        stack = self.stack

        def wrapped(*args, **kwargs):
            record = self._batch(name)
            stack.append(record[ID])
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                now = perf_counter()
                record[BUSY] += now - start
                record[COUNT] += 1
                record[END] = now
                stack.pop()

        return wrapped

    def batch_iter(self, name: str, gen_fn):
        """Like batch, for a generator: times each resumption, counts each item."""
        stack = self.stack

        def wrapped(*args, **kwargs):
            it = gen_fn(*args, **kwargs)
            record = self._batch(name)
            while True:
                stack.append(record[ID])
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    now = perf_counter()
                    record[BUSY] += now - start
                    record[END] = now
                    stack.pop()
                record[COUNT] += 1
                yield item

        return wrapped

    # -- installing wrappers -----------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        """Point every package module attribute bound to original at wrapper."""
        for name, module in list(sys.modules.items()):
            if name != "horadam" and not name.startswith("horadam."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _replace_attr(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for module, attr in SPANNED:
            original = getattr(sys.modules[module], attr)
            layer = module.split(".")[1]
            self._replace_everywhere(original, self.span(f"{layer}.{attr}", original))
        run_grid = horadam.report.run_grid
        for module, outcome_name in OUTCOMES:
            def traced_run_grid(identity, grid_spec, outcome, _name=outcome_name):
                return run_grid(identity, grid_spec, self.batch(_name, outcome))

            self._replace_attr(sys.modules[module], "run_grid",
                               self.span("report.run_grid", traced_run_grid))
        self._replace_everywhere(horadam.scalar.rat_text,
                                 self.batch("scalar.rat_text", horadam.scalar.rat_text))
        self._replace_attr(horadam.grid.GridSpec, "cases",
                           self.batch_iter("grid.cases", horadam.grid.GridSpec.cases))
        self._replace_attr(horadam.report.VerificationReport, "render",
                           self.span("report.render", horadam.report.VerificationReport.render))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._batches.clear()


def layer_of(name: str) -> str:
    return "bench" if name == "op" else name.split(".")[0]


def self_times(records) -> list:
    """Self time of each record, indexed like records."""
    children = defaultdict(float)
    for record in records:
        if record[PARENT] is not None:
            children[record[PARENT]] += record[BUSY]
    return [record[BUSY] - children[record[ID]] for record in records]
