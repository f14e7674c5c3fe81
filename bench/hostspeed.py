"""Host speed, sampled with a fixed reference job, to put op times at one nominal speed.

The benchmark runs on shared hosts that switch between a few speeds, every
second or so, as other tenants come and go: on the 2-vCPU VM where it was
written, a fixed pure-Python loop took 5.0, 6.6 or 8.3 ms depending on the
moment.  Process CPU time slows with wall time, so it does not filter this
out.  What does: the ratio of an op's time to the time of a fixed job run
right before and right after it stayed within 3 % across those speeds.

So `run.py` calls `HostSpeed.sample()` right before every op and once after
the last, and multiplies each op's time by `scale(before, after)`,
NOMINAL_S over the mean of the two samples around it.  That is the time the
op would take on a host that runs the reference sample in NOMINAL_S.  The
reference job does Fraction row reduction and dict counting like the
library's own work, but calls none of its code: a change to the program
moves op times and leaves the reference alone, so a faster program still
reads faster, while a slower host moves both and cancels out.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# A sample's time on the 2-vCPU VM where the benchmark was written (Python
# 3.11) at its fastest host speed.  It only sets the scale of the reported
# times.
NOMINAL_S = 0.0017
REPEATS = 3


def reference_job() -> int:
    n = 7
    rows = [[Fraction((7 * i + 3 * j) % 5 - 2, 1 + (i + j) % 3) for j in range(n)]
            for i in range(n)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = 1 / rows[c][c]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c] * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    counts: dict[int, int] = {}
    for i in range(6000):
        k = (i * i + 3 * i) % 101
        counts[k] = counts.get(k, 0) + 1
    return len(counts)


def _timed_job() -> float:
    t0 = perf_counter()
    reference_job()
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """NOMINAL_S over the mean of the samples taken right before and right after a time."""
    return NOMINAL_S / ((before + after) / 2)


class HostSpeed:
    def __init__(self):
        self.seconds: list[float] = []

    def sample(self) -> float:
        """Median of REPEATS reference jobs, so that one interrupted job does not count."""
        typical = statistics.median([_timed_job() for _ in range(REPEATS)])
        self.seconds.append(typical)
        return typical
