"""The reference loop that scales every measured time to one machine speed.

Machines that share their cores with other tenants change speed by up to 40%
from one second to the next, for minutes at a time. So the benchmark runs
this fixed loop next to everything it times and scales each time by
REF_SECONDS / (the loop's time around it): times read as seconds on a machine
where the loop takes REF_SECONDS, its time on an idle core of the machine the
benchmark was defined on (Intel Xeon at 2.1 GHz, Python 3.11.7). The loop
mixes the three kinds of work the workloads do: interpreted integer code,
Fraction arithmetic and big-integer multiplication.
"""

from fractions import Fraction
from time import perf_counter

REF_SECONDS = 0.0014


def reference_loop() -> float:
    """Seconds one run of the loop takes now."""
    start = perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 1)
    big = 3**20_000
    big *= big
    return perf_counter() - start
