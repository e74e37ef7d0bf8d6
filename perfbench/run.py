"""The horadam benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # all four, --trace 0 and 1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. One process, no threads: the run repeats
passes over the workload's ops (see workloads.py) until --seconds have gone
by, finishing the pass it is in, and checks every op's output outside the
timed window. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1 if
any output was wrong and 2 if the run could not start.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced passes, writes the spans to .perfbench_out/, runs the per-layer probes
(probes.py) and reports the per-layer metrics. BENCHMARK.json lists both
sets; perfbench/layers.json says which end-to-end metric each layer metric
should move, on which workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter, process_time

from reference import REF_SECONDS, reference_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_PASSES = 3
# Each run times at least MIN_OPS untraced ops and uses at most MAX_SAMPLES of
# them for the op percentiles, so p90 is always the highest percentile of
# TAIL_LADDER with at least ten samples beyond it.
MIN_OPS = 100
MAX_SAMPLES = 999
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
COLD_STARTS = 9
LAYERS = ("grid", "sequences", "kernel", "catalog", "dsl", "report", "scalar", "bench")


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    k = (len(ordered) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def tail_percentile(count: int) -> float:
    return next(p for p in TAIL_LADDER if count * (100 - p) / 100 >= 10 or p == 50.0)


def cold_start_seconds(workload: str, seed: int) -> float:
    """Spawn-to-ready time of one fresh process running cold.py, scaled by
    the reference loop that process runs after it is ready."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "cold.py"), workload, str(seed)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        reference = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"cold start of {workload} failed with exit code {code}")
    return elapsed * REF_SECONDS / float(reference)


def run_op(op, tracer=None, op_id=None):
    """Time one op; return (seconds, cpu seconds, output correct)."""
    record = None
    if tracer is not None:
        tracer.op = op_id
        record = tracer.begin("op")
    cpu = process_time()
    start = perf_counter()
    try:
        result = op.call()
        raised = False
    except Exception as exc:  # a failing op is counted, and the run goes on
        print(f"op {op.label} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        raised = True
    elapsed = perf_counter() - start
    cpu = process_time() - cpu
    if record is not None:
        tracer.end(record)
    if raised:
        return elapsed, cpu, False
    try:
        ok = op.observe(result) == op.expect
    except Exception as exc:
        print(f"op {op.label}: output unreadable: {exc}", file=sys.stderr)
        ok = False
    if not ok:
        print(f"op {op.label}: wrong output", file=sys.stderr)
    return elapsed, cpu, ok


def run_pass(ops, tracer=None, first_id=0) -> dict:
    """Run every op once, with the reference loop before and after each.
    Each op's time is scaled by its two neighbouring reference times; "raw"
    is the unscaled wall time and "speed" the machine's speed during the pass."""
    times, raw, wall, cpu, failed = [], 0.0, 0.0, 0.0, 0
    before = reference_loop()
    references = [before]
    for index, op in enumerate(ops):
        elapsed, used, ok = run_op(op, tracer, first_id + index)
        after = reference_loop()
        references.append(after)
        scale = 2 * REF_SECONDS / (before + after)
        before = after
        times.append(elapsed * scale)
        raw += elapsed
        wall += elapsed * scale
        cpu += used * scale
        failed += not ok
    return {"traced": tracer is not None, "times": times, "wall": wall, "cpu": cpu, "raw": raw,
            "speed": REF_SECONDS * len(references) / sum(references),
            "failed": failed, "cases": sum(op.cases for op in ops)}


def measure(workload, seconds: float, traced: bool, tracer=None) -> list:
    """Passes until `seconds` have gone by (and the minimums are met).
    In a traced run every second pass is traced."""
    passes = []
    deadline = perf_counter() + seconds
    while True:
        trace_this = traced and len(passes) % 2 == 1
        if trace_this:
            tracer.install()
        try:
            passes.append(run_pass(workload.ops, tracer if trace_this else None,
                                   len(passes) * len(workload.ops)))
        finally:
            if trace_this:
                tracer.uninstall()
        plain = [p for p in passes if not p["traced"]]
        enough = (
            len(plain) >= MIN_PASSES
            and (not traced or len(passes) - len(plain) >= MIN_PASSES)
            and sum(len(p["times"]) for p in plain) >= MIN_OPS
        )
        if perf_counter() >= deadline and enough:
            return passes


def op_percentiles(passes) -> dict:
    """Median and tail op time over the untraced passes (scaled, like wall_s)."""
    samples = [t for p in passes if not p["traced"] for t in p["times"]][:MAX_SAMPLES]
    tail = tail_percentile(len(samples))
    return {
        "op_p50_ms": (percentile(samples, 50) * 1e3, "ms"),
        "op_tail_ms": (percentile(samples, tail) * 1e3, "ms"),
        "op_tail_pct": (tail, "%"),
        "op_samples": (len(samples), "count"),
    }


def end_to_end(passes, setup: list) -> dict:
    walls = [p["wall"] for p in passes]
    return {
        "wall_s": (statistics.fmean(walls), "s"),
        "cpu_s": (statistics.fmean(p["cpu"] for p in passes), "s"),
        "cases_per_s": (sum(p["cases"] for p in passes) / sum(walls), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(passes, tracer, probe_values: dict) -> dict:
    import tracing

    traced = [p for p in passes if p["traced"]]
    count = len(traced)
    records = tracer.records
    selfs = tracing.self_times(records)
    layer_self = defaultdict(float)
    fills = fill_s = cases = 0.0
    op_busy = op_self = 0.0
    for record, own in zip(records, selfs):
        name = record[tracing.NAME]
        if record[tracing.PARENT] is None and name != "op":
            continue  # output checks run after the op's span has closed
        layer_self[tracing.layer_of(name)] += own
        if name == "sequences.term":
            fills += 1
            fill_s += record[tracing.BUSY]
        elif name == "grid.cases":
            cases += record[tracing.COUNT]
        elif name == "op":
            op_busy += record[tracing.BUSY]
            op_self += own
    metrics = {f"{layer}.self_s": (layer_self[layer] / count, "s") for layer in LAYERS}
    attempted = sum(len(p["times"]) for p in passes)
    plain = [p for p in passes if not p["traced"]]
    metrics.update(op_percentiles(passes))
    metrics.update({
        "wall_raw_s": (statistics.fmean(p["raw"] for p in plain), "s"),
        "machine.speed": (statistics.fmean(p["speed"] for p in plain), "ratio"),
        "cli.main_self_s": (layer_self["cli"] / count, "s"),
        "sequences.term_fills": (fills / count, "count"),
        "sequences.term_fill_s": (fill_s / count, "s"),
        "grid.cases": (cases / count, "count"),
        # Each traced pass against the untraced pass just before it.
        "trace.overhead_s": (statistics.median(
            b["wall"] - a["wall"] for a, b in zip(passes[::2], passes[1::2])), "s"),
        "trace.unattributed_share": (op_self / op_busy, "ratio"),
        "ops_failed_ratio": (sum(p["failed"] for p in passes) / attempted, "ratio"),
    })
    metrics.update(probe_values)
    return metrics


def write_trace(tracer, workload, seed: int) -> Path:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload.name}-{seed}.jsonl"
    labels = {}
    n = len(workload.ops)
    with path.open("w") as fh:
        for record in tracer.records:
            if record[2] is not None and record[2] not in labels:
                labels[record[2]] = workload.ops[record[2] % n].label
        fh.write(json.dumps({"workload": workload.name, "seed": seed,
                             "fields": ["id", "parent", "op", "name", "start", "end", "busy", "count"],
                             "ops": labels}) + "\n")
        for record in tracer.records:
            fh.write(json.dumps(record) + "\n")
    return path


def self_test() -> int:
    """Show that a wrong output is counted as failed: the first op of each
    workload must pass with its real expectation and fail with a corrupted one."""
    import workloads as wl

    def corrupt(value):
        if isinstance(value, tuple):
            return value[:-1] + (corrupt(value[-1]),)
        if isinstance(value, str):
            return value + " "
        if isinstance(value, bool):
            return not value
        if isinstance(value, int):
            return value + 1
        return "corrupted"

    bad = 0
    for name, cls in wl.WORKLOADS.items():
        workload = cls(0)
        workload.prepare()
        op = workload.ops[0]
        good = run_pass([op])["failed"]
        op.expect = corrupt(op.expect)
        broken = run_pass([op])["failed"]
        verdict = "ok" if (good, broken) == (0, 1) else "FAIL"
        bad += verdict != "ok"
        print(f"self-test {name} {op.label}: true expectation failed={good},"
              f" corrupted expectation failed={broken}: {verdict}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "horadam" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from a horadam checkout",
              file=sys.stderr)
        return 2
    import workloads as wl

    if args.self_test:
        return self_test()
    if args.workload == "all":
        # Every workload, end to end and traced, each in a fresh process.
        failed_runs = 0
        for name in wl.WORKLOADS:
            for trace in (0, 1):
                failed_runs += subprocess.run([
                    sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                ]).returncode != 0
        return 1 if failed_runs else 0
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload](args.seed)
    workload.prepare()
    if args.trace:
        import probes
        import tracing

        tracer = tracing.Tracer()
        passes = measure(workload, args.seconds, True, tracer)
        path = write_trace(tracer, workload, args.seed)
        metrics = per_layer(passes, tracer, probes.run_probes(args.seed, ROOT))
        note = f"{len(tracer.records)} span records written to {path.relative_to(ROOT)}"
    else:
        setup = [cold_start_seconds(args.workload, args.seed) for _ in range(COLD_STARTS)]
        passes = measure(workload, args.seconds, False)
        metrics = end_to_end(passes, setup)
        shown = op_percentiles(passes)
        note = (f"setup_s is the median of {len(setup)} cold starts; op_p50_ms ="
                f" {shown['op_p50_ms'][0]:.4g} ms, op_tail_ms = {shown['op_tail_ms'][0]:.4g} ms"
                f" (p{shown['op_tail_pct'][0]:g} of {shown['op_samples'][0]} ops)")
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes,"
          f" {attempted} ops, {failed} failed; {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
