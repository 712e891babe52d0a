"""A fixed reference loop that gauges the machine's current speed.

The machine the benchmark was built on runs at phases of roughly 0.6x to 1x
speed that last from seconds to minutes. A timed stage is therefore framed
by two runs of this loop, and its time is scaled by ``REF_S`` over their
mean: the result is the stage's time on a machine where the loop takes
``REF_S`` seconds. The loop mixes interpreter work (dict and list updates,
integer arithmetic) with small numpy calls, as the pipeline does. It never
calls the program, so no change to the program moves it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REF_S = 0.010                   # the loop's time at the speed results are scaled to


def _loop():
    table, acc = {}, 0
    for i in range(30_000):
        table[i & 1023] = acc
        acc += i * i
        pair = [i, acc]
        acc ^= pair[0]
    m = np.random.default_rng(1).random((48, 48))
    for _ in range(100):
        m = np.maximum(m @ m * 0.02, 0.0)
    np.sort(np.random.default_rng(0).random(50_000))
    return acc


def reference_s() -> float:
    """Seconds the reference loop takes now: the median of three runs, so
    that one preempted run does not count."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _loop()
        times.append(perf_counter() - t0)
    return sorted(times)[1]


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` at reference speed, from the loop times around it."""
    return seconds * REF_S / (0.5 * (ref_before + ref_after))
