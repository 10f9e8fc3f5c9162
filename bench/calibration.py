"""The machine's speed at a moment, measured by a fixed piece of work.

The benchmark runs on a few cores of a shared host whose processor speed
drifts by a third over minutes as other tenants come and go, and the CPU time
of a fixed computation drifts with it. ``calibrate()`` times a fixed
Gauss-Jordan elimination over ``Fraction``s, the kind of exact arithmetic
syscat spends its time on, using only the standard library and with the cycle
collector off, so nothing syscat does changes its cost: only the machine does.

The worker times it before the first operation and after every one, and
``scale`` turns a measured time into seconds at reference speed: the time
times ``REFERENCE_S`` over the mean of the calibrations on either side.
On the 2-vCPU VM of ``trajectory.json``, five seeds of the ``laws`` workload
gave a spread (quartile distance over median) of 0.19-0.27 in the unscaled
throughput and percentiles and 0.05-0.07 in the scaled ones; over ten seeds
of every workload no scaled time spread more than 0.053.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

SIZE = 14

# CPU seconds of one calibration on a quiet 2.1 GHz Xeon vCPU (Python 3.11).
# Scaled times read as seconds on that machine at that speed.
REFERENCE_S = 0.0125


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of one fixed elimination."""
    n = SIZE
    rows = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + 2 * j) % 5 + 1) if (i + j) % 3 else Fraction(0)
             for j in range(n + 1)] for i in range(n)]
    enabled = gc.isenabled()
    gc.disable()
    t0, c0 = time.perf_counter(), time.process_time()
    for col in range(n):
        pr = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pr] = rows[pr], rows[col]
        pv = rows[col][col]
        rows[col] = [x / pv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if enabled:
        gc.enable()
    return wall, cpu


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between calibrations ``before`` and ``after``, at reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
