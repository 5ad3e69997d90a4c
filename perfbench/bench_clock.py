"""Host-speed calibration for the end-to-end timings.

On a 2-vCPU x86 virtual machine at 2.1 GHz that shares its physical
cores, host speed drifts by 15-45 % over seconds to minutes; a pure-Python
loop shows the same drift in wall and in CPU time, so neither clock alone
gives run-to-run figures steady enough to bound a regression. So a run
of :func:`kernel` sits between every two cells: a fixed piece of Python
work in the benchmark's own code (objects with slots, a heap, a dict:
the instruction mix of the event core), whose time tracks the host's
speed at that moment. :meth:`SpeedProbe.scaled` multiplies each measured
second by ``REFERENCE_S / kernel time``, using the median time of the
kernel runs within ``NEAR_S`` of the cell, which expresses it in seconds
of a host running the kernel in ``REFERENCE_S``. The program never runs
the kernel, so a change to the program cannot move it; ``run.py`` prints
the raw wall times next to the scaled ones.
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter

#: kernel seconds at the reference host speed
REFERENCE_S = 1.0e-3
#: kernel samples this close to a measured interval set its speed
NEAR_S = 0.25


class _Item:
    __slots__ = ("key", "size", "left")

    def __init__(self, key: int, size: int) -> None:
        self.key = key
        self.size = size
        self.left = float(size)

    def drain(self, amount: float) -> bool:
        self.left -= amount
        return self.left > 0


def kernel(n: int = 400) -> dict:
    """The fixed reference work: about 1 ms on a 2.1 GHz x86 core."""
    heap: list = []
    table: dict = {}
    for i in range(n):
        item = _Item(i & 63, (i * 7919) % 1009 + 1)
        heapq.heappush(heap, (item.size * 1e-6, i, item))
        table[item.key] = table.get(item.key, 0.0) + item.left
    while heap:
        time, i, item = heapq.heappop(heap)
        if item.drain(300.0):
            heapq.heappush(heap, (time + 1e-6, i, item))
    return table


class SpeedProbe:
    """Kernel times taken between measured intervals, and the scaling
    they imply. Sample once before each interval and once after the
    last, so that every interval has a sample on each side."""

    def __init__(self) -> None:
        #: (end time, kernel seconds) per sample
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        started = perf_counter()
        kernel()
        now = perf_counter()
        self.samples.append((now, now - started))

    def scaled(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Each (start, end) interval's length at reference speed, from
        the median kernel time of the samples within ``NEAR_S`` of it."""
        out = []
        for start, end in intervals:
            near = [seconds for at, seconds in self.samples
                    if start - NEAR_S <= at <= end + NEAR_S]
            out.append((end - start) * REFERENCE_S / statistics.median(near))
        return out
