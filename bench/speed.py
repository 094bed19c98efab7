"""Host speed probe: a fixed kernel timed between ops.

On a shared host the same code runs up to about two times slower for
stretches of a second to several minutes while other tenants load the
machine's caches and memory; a slow stretch can cover a whole run, so no
statistic over one run's op times removes it.  The benchmark therefore
also times a kernel with no gwcalc code in it between ops, about once
every ``INTERVAL_S`` of wall time, and reports each latency scaled to the
speed at which the kernel takes ``REFERENCE_S``: raw latency times
``REFERENCE_S`` over the kernel's mean time around the op.  A slow stretch
slows the kernel and the ops alike and largely cancels; a change to gwcalc
leaves the kernel as it is, so it moves the scaled figures in full.

The kernel creates no container objects, so it never triggers the garbage
collector, whose cost would depend on what the program keeps alive.
"""

from __future__ import annotations

import bisect
import itertools
import math
import time

# The kernel's time at full speed on the host the bounds were set on (a
# 2-vCPU VM, CPython 3.11).  Only ratios to it matter.
REFERENCE_S = 0.00065
# One kernel sample per this much wall time, taken between ops; after a
# long op at most MAX_BURST samples are made up.
INTERVAL_S = 0.02
MAX_BURST = 4
# An op's speed is the mean kernel time over samples within this many
# seconds of it.
WINDOW_S = 1.0

_TABLE = {i: 3 ** (i % 193 + 100) for i in range(1024)}
_FACTOR = 7 ** 300
_BIG = [3 ** (2000 + 61 * i) for i in range(21)]


def kernel() -> int:
    """Dict lookups with medium-sized integer products, remainders and
    gcds, interpreter-bound; then products of 3000- to 5000-bit integers,
    the size of the larger curve counts.  On the host the bounds were set
    on, the sum of the two followed every workload's slow stretches more
    closely than either part alone (README.md, "Noise and bounds")."""
    acc = 1
    gcd, table = math.gcd, _TABLE
    for i in range(1, 80):
        x = table[(i * 37) & 1023]
        y = x * (_FACTOR + i)
        acc = (acc * 31 + y % 1000000007 + gcd(y, x + i)) & 0xFFFFFFFFFFFF
    for i in range(20):
        acc += _BIG[i] * _BIG[i + 1]
    return acc & 0xFFFFFFFFFFFF


def measure(runs: int) -> float:
    """Mean kernel time over ``runs`` back-to-back runs."""
    clock = time.perf_counter
    start = clock()
    for _ in range(runs):
        kernel()
    return (clock() - start) / runs


class SpeedLog:
    """Kernel samples (start time, duration) spread over a run."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.took: list[float] = []
        self.last = -math.inf
        measure(5)                      # specialise the bytecode first

    def tick(self) -> None:
        """Take the samples owed since the last one, one per INTERVAL_S."""
        clock = time.perf_counter
        owed = min(MAX_BURST, (clock() - self.last) / INTERVAL_S)
        for _ in range(int(owed)):
            start = clock()
            kernel()
            self.starts.append(start)
            self.took.append(clock() - start)
        if owed >= 1:
            self.last = clock()

    def levels(self, spans: list[tuple[float, float]]) -> list[float]:
        """Mean kernel time within WINDOW_S of each (start, end) span."""
        prefix = [0.0, *itertools.accumulate(self.took)]
        out = []
        for start, end in spans:
            # tick() runs before every op, so a sample lies just before it.
            lo = bisect.bisect_left(self.starts, start - WINDOW_S)
            hi = bisect.bisect_right(self.starts, end + WINDOW_S)
            out.append((prefix[hi] - prefix[lo]) / (hi - lo))
        return out
