"""The machine's speed, measured with a fixed pure-Python kernel.

The benchmark shares a few cores of a host with other work. On such a host
the time the same Python code takes drifts by tens of percent within seconds,
and its fastest repeats drift by 20% and more between minutes, so no
statistic of wall times alone repeats from run to run. A kernel that never
changes, timed now and then throughout the run, drifts with it: every
measured time is divided by the kernel's median time in the second around it
and reported in reference units, the time it would take on a machine where
the kernel takes REF_NS. A change to petrisep does not change the kernel, so
two commits compare as they would on one steady machine; the raw wall times
are kept in the run's output file beside the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
from array import array
from collections import deque
from time import perf_counter_ns

REF_NS = 5_000_000  # the kernel's time at the reference speed
WINDOW_NS = 1_000_000_000  # a timing is scaled by the kernel samples this close to it
CADENCE_NS = 100_000_000  # at most one kernel sample per this much time while serving
BRACKET = 3  # kernel samples on each side of a set-up

_MOVES = ((-1, 1, 0), (0, -1, 1), (1, 0, -1), (-2, 0, 1))


def kernel() -> int:
    """Two halves of about equal time. Many small searches over the markings
    of a three-place net keep their tuples and sets in cache, as most
    requests do; one breadth-first search over the sums of two coins keeps a
    predecessor for each of 6000 sums, as the exact checker does on large
    inputs. The machine's drift slows the two kinds of work differently."""
    found = 0
    for _ in range(40):
        start = (3, 1, 0)
        seen = {start}
        todo = [start]
        while todo:
            m = todo.pop()
            for d in _MOVES:
                n = (m[0] + d[0], m[1] + d[1], m[2] + d[2])
                if min(n) >= 0 and sum(n) <= 40 and n not in seen:
                    seen.add(n)
                    todo.append(n)
        found += len(seen)
    pred = {0: None}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for coin in (7, 11):
            w = v + coin
            if w <= 6000 and w not in pred:
                pred[w] = v
                queue.append(w)
    return found + len(pred)


class Speed:
    """Kernel samples over a run, and the scale they give at any moment."""

    def __init__(self):
        self.at = array("q")  # perf_counter_ns at each sample's midpoint
        self.ns = array("q")
        self.due = 0

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = perf_counter_ns()
            kernel()
            t1 = perf_counter_ns()
            self.at.append((t0 + t1) // 2)
            self.ns.append(t1 - t0)
        self.due = t1 + CADENCE_NS

    def tick(self) -> None:
        """Take one sample if none was taken for CADENCE_NS."""
        if perf_counter_ns() >= self.due:
            self.sample()

    def scale(self, t: int) -> float:
        """REF_NS over the kernel's median time within WINDOW_NS of t, or,
        where no sample is that close, over the nearest sample on each side."""
        lo = bisect.bisect_left(self.at, t - WINDOW_NS)
        hi = bisect.bisect_right(self.at, t + WINDOW_NS)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return REF_NS / statistics.median(self.ns[lo:hi])
