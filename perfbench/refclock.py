"""Host-speed reference for the timed metrics.

On a shared host the speed of a core drifts by up to a third, in phases of
seconds to minutes, and process CPU time drifts with it.  A fixed
pure-Python loop run between work items slows down in step, so the ratio of
a job's time to the loop's time stays steady where the raw time does not.
Timed metrics are therefore reported in reference seconds: raw seconds times
REF_NOMINAL_S over the loop time measured around the same piece of work.
The loop is benchmark code only, so no change to the program can move it.

Different kinds of work slow down differently in a phase, so the loop comes
in two mixes.  "small" is interpreter-bound arithmetic on integers below
2^127, like the sweeps and the imports.  "mixed" adds products of integers
of a few thousand bits, like the q-series and mpmath work.  Measured over
20-second windows, each mix tracked its workloads to 1-2%, and the other
mix did several times worse.
"""

from __future__ import annotations

import statistics
import time

MIXES = {"small": (7000, 0), "mixed": (3500, 150)}  # (small-int steps, big products)
REF_NOMINAL_S = 0.0025
_MODULUS = (1 << 127) - 1
_BIG_A = 3**1500
_BIG_B = 7**1300


def reference(mix: str) -> float:
    """Seconds taken by the reference loop of the given mix, now."""
    small, big = MIXES[mix]
    t0 = time.perf_counter()
    x, y = 1, 0
    for i in range(small):
        x = (x * 1000003 + i) % _MODULUS
    for i in range(big):
        y += (_BIG_A + i) * _BIG_B
    return time.perf_counter() - t0


def scale(ref_times: list[float]) -> float:
    """Factor from raw seconds to reference seconds."""
    return REF_NOMINAL_S / statistics.median(ref_times)
