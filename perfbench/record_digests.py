"""Rewrite perfbench/digests.json: the SHA-256 of every refute-render output,
for every variant, and check each exit code on the way.

    python3 perfbench/record_digests.py

Run it only at a commit whose reports are known to be right: the benchmark
then counts any later change of these bytes as a wrong output.
"""

import json
import sys

import workloads as wl


def main() -> int:
    out = wl.OUT_DIR / "record"
    out.mkdir(parents=True, exist_ok=True)
    digests = {}
    for variant in range(wl.VARIANTS):
        runs = wl.refute_runs(variant)
        for label, argv, code, _ in runs:
            path = out / label
            got = wl.cli.main(argv + ["--output", str(path)])
            if got != code:
                print(f"variant {variant} {label}: exit code {got}, expected {code}", file=sys.stderr)
                return 1
            digests[f"{variant}:{label}"] = wl.file_digest(path)
        print(f"variant {variant}: {len(runs)} outputs")
    wl.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
