"""The machine-speed yardstick that the end-to-end timings are scaled by.

A shared host changes the speed of this process by a third or more over
seconds to minutes, in CPU time as well as in wall time, while nothing
in the program changes.  The benchmark therefore times a fixed piece of
exact arithmetic, ``kernel``, right after every request and reports each
request's latency in units of the kernel's time measured around it.  The
kernel is the benchmark's own code and does not touch ``efgc``: a slower
solver still reads slower, a slower machine much less so (the kernel
follows the machine's drift only in part; see README.md).

``REFERENCE_S`` turns kernel units back into seconds.  It is about the
kernel's time on a 2.1 GHz Xeon vCPU with CPython 3.11, so scaled
figures there read close to raw ones.
"""
from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.001
WINDOW = 10  # kernel samples on each side that set a request's local speed

_rng = random.Random(0)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 5)) for _ in range(7)] for _ in range(6)]


def kernel() -> float:
    """Gauss-Jordan elimination of a fixed 6 x 7 rational matrix, the
    kind of work the solvers' exact LPs do; returns the seconds taken."""
    start = time.perf_counter()
    rows = [row[:] for row in _MATRIX]
    for col in range(len(rows)):
        pivot = next(r for r in range(col, len(rows)) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(len(rows)):
            if r != col and rows[r][col]:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return time.perf_counter() - start


def scaled(latencies: list[float], kernels: list[float]) -> list[float]:
    """Each latency times ``REFERENCE_S`` over the median kernel time of
    the ``2 * WINDOW + 1`` samples around it (fewer at the ends).

    ``kernels[i]`` is the kernel timed right after request ``i``.
    """
    if len(latencies) != len(kernels):
        raise ValueError("one kernel sample per request")
    out = []
    for i, latency in enumerate(latencies):
        local = statistics.median(kernels[max(0, i - WINDOW) : i + WINDOW + 1])
        out.append(latency * REFERENCE_S / local)
    return out
