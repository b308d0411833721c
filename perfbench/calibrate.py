"""Machine-speed calibration, so that times from a shared host are comparable.

On a shared host the same pass slows down by 20-50 % for seconds at a
time while neighbours load the machine; medians within one run cannot
remove that.  A fixed pure-Python loop slows down with it.  Timed work is
therefore cut into segments of at least ``SEGMENT_S`` and the loop is run
between segments; a segment's time scaled by ``REFERENCE_S`` over the
mean of the loop times around it is the time it would take on a machine
where the loop takes ``REFERENCE_S``, which is this host when quiet.

The loop is benchmark code, so no change to the program can move it.
"""

from __future__ import annotations

import math
import statistics
import time

# Loop time on a quiet 2-vCPU Intel Xeon host (Python 3.11).
REFERENCE_S = 0.0046
SEGMENT_S = 0.1
_ITERATIONS = 20_000


def loop_s(rounds: int = 1) -> float:
    """Mean wall time of the fixed calibration loop over ``rounds`` runs."""
    start = time.perf_counter()
    for _ in range(rounds):
        acc = 0.0
        table = {}
        for i in range(_ITERATIONS):
            pair = (i * 0.5, i % 7)
            table[i % 97] = pair
            acc += math.exp(-(i % 13) * 0.1) * pair[0]
    return (time.perf_counter() - start) / rounds


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference speed, from the loop times around them."""
    return seconds * REFERENCE_S / statistics.fmean((before, after))


class SegmentClock:
    """Calibrated and raw time of a sequence of timed steps.

    After each step, :meth:`lap` closes the current segment once it holds
    at least ``SEGMENT_S`` of work, running the loop to measure the speed
    at its end; :meth:`close` closes the last one.
    """

    def __init__(self):
        self.raw = 0.0
        self.calibrated = 0.0
        self._segment = 0.0
        self._before = loop_s()

    def lap(self, seconds: float) -> None:
        self.raw += seconds
        self._segment += seconds
        if self._segment >= SEGMENT_S:
            self.close()

    def close(self) -> None:
        if self._segment > 0.0:
            after = loop_s()
            self.calibrated += scaled(self._segment, self._before, after)
            self._before = after
            self._segment = 0.0
