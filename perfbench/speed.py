"""Machine-speed probe used to correct the benchmark's times.

The benchmark's machine is shared, and its speed drifts with the load of
other tenants.  On the 2-core VM where the benchmark was set up, a fixed
pure-Python loop completed between 237 and 419 passes per second within
90 seconds.  Medians over 25-second runs of
one workload spread by 15-30 % between runs.  So every timed interval is
bracketed by ``calibrate()`` and scaled by ``REFERENCE_S`` over the
loop's time: the result reads as the time on the machine at its reference
speed.  Over five runs of symmetric_pairs this cut the spread (interquartile
range over median) of the end-to-end times from 0.22-0.26 to 0.09-0.11.

This module imports nothing beyond the standard library, so a fresh
interpreter can probe its speed before it times ``import focalis.cli``.
"""

import time

ITERATIONS = 10_000
# the loop's median time on the 2-core VM where the benchmark was set up,
# so corrected times read close to that machine's milliseconds
REFERENCE_S = 0.00075


def calibrate() -> float:
    """Seconds the fixed loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Scale from measured seconds to seconds at the reference speed."""
    return REFERENCE_S / ((before + after) / 2.0)
