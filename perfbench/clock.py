"""Timings scaled to a reference core speed.

The speed of one core of a shared machine drifts by up to 2x over tens of
seconds, and the two cores of the baseline machine drift independently.
So the benchmark pins itself and every child to one core and measures that
core's speed with a short fixed pure-Python loop: a few times just before
and just after each measured interval and, while a child process runs,
every SAMPLE_EVERY_S from a helper thread (which takes about 1% of the
core).  An interval is reported scaled by the mean of REF_S / loop time
over those samples.  On the baseline machine at its median speed the
scaled time equals the wall time.  Raw wall times are kept alongside.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

LOOPS = 1_000
REF_S = 0.0006  # median time of the loop on the baseline machine (2-core Xeon, 2.1 GHz)
SAMPLE_EVERY_S = 0.04
EDGE_SAMPLES = 5


def pin_to_one_core() -> None:
    """Run this process, and every child it starts, on one core."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def loop_s() -> float:
    """Seconds the calibration loop takes on this core now.

    Like the program, it mixes complex arithmetic with building small
    dicts, so it meets the same contention for cache and memory.
    """
    started = time.perf_counter()
    rows = [{"x": i * 0.5, "v": abs(complex(i, 1.0) * 1j)} for i in range(LOOPS)]
    elapsed = time.perf_counter() - started
    del rows
    return elapsed


def edge() -> list[float]:
    """Loop times taken back to back, at one edge of an interval."""
    return [loop_s() for _ in range(EDGE_SAMPLES)]


def scaled(seconds: float, loops: list[float]) -> float:
    """An interval rescaled to the reference core speed."""
    return seconds * statistics.fmean(REF_S / s for s in loops)


class CoreSampler:
    """Loop times on this core before, during and after a blocking wait.

    The wait must release the interpreter lock (os.wait4 does), so the
    helper thread can run the loop while the child holds the core.
    """

    def __init__(self):
        self.loops: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            self.loops.append(loop_s())

    def __enter__(self) -> "CoreSampler":
        self.loops.extend(edge())
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.loops.extend(edge())
