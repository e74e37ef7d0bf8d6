"""Per-layer probes: seeded calls into one layer's public functions, timed
from here. They run after the traced passes and are the same on every
workload, so each layer metric exists on every workload. Every probe
returns {metric name: (value, unit)}."""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import horadam
import workloads as wl
from horadam import catalog, cli, dsl, grid, kernel, report, scalar, sequences


def _median_time(fn, repeat: int = 3) -> float:
    times = []
    for _ in range(repeat):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def _shrink_again(text: str) -> str:
    """A sweep grid cut to its middle half once more, for the probes that
    must run whole grids (the DSL has no entry point for a case list)."""
    parts = []
    for name, (lo, hi) in sorted(wl.grid_ranges(text).items()):
        if name == "k":
            lo, hi = lo, lo + (hi - lo) // 2
        else:
            cut = (hi - lo) // 4
            lo, hi = lo + cut, hi - cut
        parts.append(f"{name}={lo}..{hi}")
    return ",".join(parts)


def import_times(root: Path, repeat: int = 3) -> dict:
    """Fresh-interpreter import time of the package and of its CLI module."""
    out = {}
    for key, module in (("horadam.import_s", "horadam"), ("cli.import_s", "horadam.cli")):
        code = (
            "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            f"import {module}; print(time.perf_counter() - t)"
        )
        values = []
        for _ in range(repeat):
            done = subprocess.run([sys.executable, "-c", code, str(root / "src")],
                                  capture_output=True, text=True, check=True, timeout=60)
            values.append(float(done.stdout))
        out[key] = (statistics.median(values), "s")
    return out


def probe_grid() -> dict:
    texts = sorted(set(wl.KERNEL_GRIDS.values()) | {
        wl.catalog_grid_text(e.free_vars) for e in catalog.catalog_list()
    })
    parse_s = _median_time(lambda: [grid.parse_grid(t) for t in texts]) / len(texts)
    spec = grid.parse_grid(wl.KERNEL_GRIDS["sum"])
    count = spec.case_count()
    enumerate_s = _median_time(lambda: list(spec.cases()), repeat=5)
    return {
        "grid.parse_s": (parse_s, "s"),
        "grid.enumerate_ns_per_case": (enumerate_s / count * 1e9, "ns"),
    }


def probe_sequences(rng: random.Random) -> dict:
    named = sequences.get_named
    rational = wl.rational_pair(rng)[0]
    jitter = rng.randrange(1000)
    cases = {
        "int_q1": (named("fibonacci"), 200_000 + jitter),
        "int_q2": (named("jacobsthal"), 200_000 + jitter),
        "neg_rational": (named("jacobsthal"), -200_000 - jitter),
        "rational_pq": (rational, 100_000 + jitter),
    }
    out = {}
    bits = 0
    for key, (seq, n) in cases.items():
        out[f"sequences.term_s.{key}"] = (_median_time(lambda: sequences.term(seq, n)), "s")
        value = sequences.term(seq, n)
        bits += value.numerator.bit_length() + value.denominator.bit_length()
    out["sequences.result_bits"] = (bits, "bits")
    # A term_fn hit, over the index span the sweep grids reach.
    indices = list(range(-12, 13)) * 40
    hit_s = []
    for seq in (named("fibonacci"), named("jacobsthal"), rational):
        fn = sequences.term_fn(seq)
        for i in indices:
            fn(i)
        hit_s.append(_median_time(lambda: [fn(i) for i in indices], repeat=5))
    out["sequences.term_fn_hit_ns"] = (statistics.median(hit_s) / len(indices) * 1e9, "ns")
    return out


_FAMILY_TAGS = {"fibonacci": "fib", "pell": "pell", "jacobsthal": "jac"}
_GROUPS = ("theorem1", "corollary", "lemma", "sum-ordinary", "sum-binomial")


def probe_kernel(rng: random.Random) -> dict:
    """identity_outcome over every 4th case of the sweep-native kernel grids."""
    named = sequences.get_named
    pairs = (
        ("fib", named("fibonacci"), named("lucas")),
        ("jac", named("jacobsthal"), named("jacobsthal-lucas")),
        ("rat",) + wl.rational_pair(rng),
    )
    out = {}
    skipped = total = 0
    for tag, g, h in pairs:
        spent = dict.fromkeys(_GROUPS, 0.0)
        for identity in kernel.IDENTITY_NAMES:
            group = identity.split(":")[0]
            group = "lemma" if group.startswith("lemma") else group
            cases = list(grid.parse_grid(wl.kernel_grid_text(identity)).cases())[::4]
            outcome = kernel.identity_outcome(identity, g, g if group == "lemma" else h)
            start = perf_counter()
            results = [outcome(case) for case in cases]
            spent[group] += perf_counter() - start
            if group.startswith("sum-"):
                skipped += results.count(None)
                total += len(results)
        for group in _GROUPS:
            out[f"kernel.outcome_s.{group}.{tag}"] = (spent[group], "s")
    out["kernel.skipped_ratio"] = (skipped / total, "ratio")
    return out


def probe_catalog_dsl(initials) -> dict:
    """Native outcomes and DSL evaluation on the same (twice cut) grids."""
    out = {}
    native = dict.fromkeys(_FAMILY_TAGS.values(), 0.0)
    counted = dict.fromkeys(_FAMILY_TAGS.values(), 0)
    evaluated = dict.fromkeys(_FAMILY_TAGS.values(), 0.0)
    texts = []
    for entry in catalog.catalog_list():
        tag = _FAMILY_TAGS[entry.family]
        spec = grid.parse_grid(_shrink_again(wl.catalog_grid_text(entry.free_vars)))
        cases = list(spec.cases())
        outcome = entry.make_outcome(*(initials if entry.generalized else (None, None)))
        start = perf_counter()
        for case in cases:
            outcome(case)
        native[tag] += perf_counter() - start
        counted[tag] += len(cases)
        registry = dsl.default_registry()
        if entry.generalized:
            base = sequences.get_named(entry.family)
            registry["H"] = horadam.make_sequence(base.params.p, base.params.q, *initials)
        # verify_over_grid minus the same grid run with a constant outcome,
        # which is its enumeration and aggregation.
        plain = _median_time(lambda: report.run_grid(entry.id, spec, lambda case: (0, 0)))
        for text in entry.dsl_texts:
            texts.append(text)
            ast = dsl.parse_identity(text)
            full = _median_time(lambda: dsl.verify_over_grid(ast, spec, registry), repeat=1)
            evaluated[tag] += max(full - plain, 0.0)
    for tag in native:
        out[f"catalog.outcome_s.{tag}"] = (native[tag], "s")
        out[f"catalog.us_per_case.{tag}"] = (native[tag] / counted[tag] * 1e6, "us")
        out[f"dsl.eval_s.{tag}"] = (evaluated[tag], "s")
    out["catalog.jac_fib_ratio"] = (native["jac"] / native["fib"], "ratio")
    out["dsl.native_ratio"] = (sum(evaluated.values()) / sum(native.values()), "ratio")
    out["dsl.parse_s"] = (_median_time(lambda: [dsl.parse_identity(t) for t in texts]), "s")
    return out


def probe_report() -> dict:
    """Aggregation on a large grid, and rendering of a long refutation."""
    spec = grid.parse_grid("a=-2..2,b=-2..2,c=-2..2,d=-2..2,m=-3..3,n=-3..3")
    run = _median_time(lambda: report.run_grid("probe", spec, lambda case: (0, 0)))
    enumerate_s = _median_time(lambda: list(spec.cases()))
    out = {"report.aggregate_s": (max(run - enumerate_s, 0.0), "s")}
    fib = sequences.term_fn(sequences.get_named("fibonacci"))
    refuted = report.run_grid(
        "F[n+1]=F[n]", grid.parse_grid("n=-1000..1000"), lambda case: (fib(case["n"] + 1), fib(case["n"]))
    )
    for fmt in wl.FORMATS:
        out[f"report.render_s.{fmt}"] = (_median_time(lambda: refuted.render(fmt)), "s")
        out[f"report.render_bytes.{fmt}"] = (len(refuted.render(fmt).encode()), "bytes")
    out["report.counterexamples"] = (len(refuted.counterexamples), "count")
    values = [v for _, lhs, rhs in refuted.counterexamples for v in (lhs, rhs)]
    out["scalar.rat_text_s"] = (_median_time(lambda: [scalar.rat_text(v) for v in values]), "s")
    return out


def probe_cli(argvs) -> dict:
    parser = cli.build_parser()
    per_call = _median_time(lambda: [parser.parse_args(a) for a in argvs], repeat=5) / len(argvs)
    return {"cli.parse_argv_s": (per_call, "s")}


def run_probes(seed: int, root: Path) -> dict:
    rng = random.Random(f"probes:{seed}")
    initials = wl.SweepNative(seed).initials
    out = {}
    out.update(probe_grid())
    out.update(probe_sequences(rng))
    out.update(probe_kernel(rng))
    out.update(probe_catalog_dsl(initials))
    out.update(probe_report())
    out.update(probe_cli(wl.RefuteRender(seed).argvs))
    out.update(import_times(root))
    return out
