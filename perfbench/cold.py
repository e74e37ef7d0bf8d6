"""One cold start of a workload: import the package, generate the seeded
inputs and parse them, then print "ready". run.py times this from spawn to
"ready" for setup_s. Afterwards the process prints the median time of the
reference loop, by which run.py scales that time.

    python3 perfbench/cold.py <workload> <seed>
"""

import sys

import workloads

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).cold()
print("ready", flush=True)

import statistics  # noqa: E402

from reference import reference_loop  # noqa: E402

print(statistics.median(reference_loop() for _ in range(15)), flush=True)
