"""The machine-speed reference that end-to-end times are scaled by.

On a shared virtual machine the speed of plain Python code drifts, by up
to about two times, over stretches from a tenth of a second to minutes,
as other guests load the host.  Raw wall times then measure the host as
much as braidcat.  So while a run measures, a background thread times a
short fixed pure-Python loop, the reference, every ``PERIOD`` seconds,
also in the middle of long jobs.  A job's wall seconds are multiplied by
``REFERENCE_S`` times the mean speed of the reference samples taken
during it (widened to at least ``MIN_WINDOW`` seconds), a sample's speed
being one over its seconds.  The result is the job's time on a machine
that runs the reference loop in ``REFERENCE_S`` seconds: a slower
stretch of the host slows the job and the reference alike and cancels,
while a change to braidcat moves the job alone.

The reference does not call braidcat.  It does what braidcat's inner
loops do: exact ``Fraction`` arithmetic and comparisons, a heap of
tuples, dictionary lookups and many small Python-level calls, by finding
shortest paths in a fixed graph.  Of the loops tried, this one followed
the speed of all four workloads' jobs most closely; a tight loop of
dictionary updates left about twice the spread.

Each sample is the reference thread's own CPU time (``time.thread_time``),
so a sample that waits for the interpreter lock or for the processor
still reads the speed of the processor.  Samples take the lock from the
job for three to four percent of the time, in every run alike.
"""

from __future__ import annotations

import bisect
import heapq
import statistics
import threading
import time
from fractions import Fraction

# About the reference loop's CPU time, in seconds, on a 2.1-GHz Intel
# Xeon virtual CPU with CPython 3.11 in the host's faster stretches.  It
# only sets the scale of the reported seconds.
REFERENCE_S = 0.0012
PERIOD = 0.05
MIN_WINDOW = 0.4

# A circulant graph on ten nodes with lengths in thirds; the reference
# runs Dijkstra's algorithm from every node.
NODES = 10
EDGES = {
    i: [(j % NODES, Fraction(k, 3)) for j, k in ((i + 1, i % 3 + 1), (i + 3, i % 4 + 2), (i - 1, i % 3 + 1))]
    for i in range(NODES)
}
FAR = Fraction(10**9)


def reference_loop() -> Fraction:
    total = Fraction(0)
    for source in range(NODES):
        dist = {source: Fraction(0)}
        heap = [(Fraction(0), source)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist.get(node, FAR):
                continue
            for other, length in EDGES[node]:
                nd = d + length
                if nd < dist.get(other, FAR):
                    dist[other] = nd
                    heapq.heappush(heap, (nd, other))
        total += max(dist.values())
    return total


class Speed:
    """A background thread of reference samples, and the scale they give.
    Use as a context manager around everything the run times."""

    def __init__(self) -> None:
        self.at: list[float] = []  # wall-clock midpoint of each sample
        self.cpu: list[float] = []  # its CPU seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-reference", daemon=True)

    def __enter__(self) -> Speed:
        reference_loop()  # warm-up, not kept
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        time.sleep(MIN_WINDOW / 2 + 2 * PERIOD)  # samples after the last interval
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD):
            wall, cpu = time.perf_counter(), time.thread_time()
            reference_loop()
            cpu = time.thread_time() - cpu
            self.at.append((wall + time.perf_counter()) / 2)
            self.cpu.append(cpu)

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` times the mean speed of the reference samples
        taken during the interval, widened about its middle to
        ``MIN_WINDOW``.  The samples are evenly spaced in time, so this
        is the speed averaged over the interval, which sets how much work
        fits into it."""
        pad = max(0.0, (MIN_WINDOW - (end - start)) / 2)
        lo = bisect.bisect_left(self.at, start - pad)
        hi = bisect.bisect_right(self.at, end + pad)
        if lo == hi:
            raise RuntimeError("no reference sample near a timed interval")
        return REFERENCE_S * statistics.fmean(1 / s for s in self.cpu[lo:hi])

    def median_sample(self) -> float:
        return statistics.median(self.cpu)
