"""Run the benchmark on several seeds per workload and report how steady each
end-to-end metric is: the distance between the first and third quartile of
its values (statistics.quantiles, n=4), as a share of their median, next to
the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--out FILE]

With --out, writes the values, medians and spreads with the machine they were
measured on (perfbench/baseline.json holds the figures of the commit that
defined the benchmark). Exits 1 if a spread other than setup_s's reaches a
third of its bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_at_start": os.getloadavg(),
    }


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"machine": machine(), "run_seconds": bench["run_seconds"], "workloads": {}}
    unsteady = 0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, bench["run_seconds"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary = {}
        for name, xs in values.items():
            q1, median, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / median
            flag = name != "setup_s" and spread >= bounds[name] / 3
            unsteady += flag
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name], "values": xs}
            print(f"{workload:14} {name:12} median {median:<12.6g} spread {spread:.4f}"
                  f" bound {bounds[name]}{'  UNSTEADY' if flag else ''}", flush=True)
        report["workloads"][workload] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
