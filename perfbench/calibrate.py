"""Host-speed calibration for the benchmark's host times.

A shared host runs the same code at different speeds from one minute to
the next (other tenants on the same physical cores).  The benchmark
times a fixed pure-Python kernel -- a small discrete-event loop plus
scattered lookups in a table larger than the caches, using none of the
program's code -- before and after every configuration it times, and
divides the configuration's host time by the mean of those two kernel
times over ``NOMINAL_S``.  Host times are therefore reported in
*reference seconds*: seconds on a host where the kernel takes
``NOMINAL_S``.  The run's mean factor is reported as the per-layer
metric ``host.speed_factor``.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Kernel time on the reference host.
NOMINAL_S = 0.017

_TABLE_SIZE = 1 << 17


class Calibrator:
    """Kernel timings, taken between the timed configurations."""

    def __init__(self) -> None:
        self.samples: list = []
        self._table = {i: (i * 2654435761) & 0xFFFF for i in range(_TABLE_SIZE)}

    def measure(self) -> int:
        """Time the kernel once; returns the sample's index."""
        began = time.perf_counter()
        _event_loop()
        _scatter(self._table)
        self.samples.append(time.perf_counter() - began)
        return len(self.samples) - 1

    def scaled(self, seconds: float, before: int, after: int) -> float:
        """``seconds`` measured between samples ``before`` and ``after``,
        in reference seconds."""
        slowness = (self.samples[before] + self.samples[after]) / 2 / NOMINAL_S
        return seconds / slowness

    @property
    def factor(self) -> float:
        """Mean host slowness against the reference host (> 1: slower)."""
        if not self.samples:
            self.measure()
        return statistics.fmean(self.samples) / NOMINAL_S


def _event_loop(processes: int = 160, steps: int = 30) -> int:
    heap = []
    boxes = {}

    def process(pid):
        total = 0
        for step in range(steps):
            total += (boxes.pop(pid, None) or 0) + step
            boxes[(pid * 7 + step) % 97] = total & 0xFFFF
            yield step % 5 + 1

    runs = [process(pid) for pid in range(processes)]
    for pid in range(processes):
        heapq.heappush(heap, (0, pid))
    while heap:
        now, pid = heapq.heappop(heap)
        try:
            delay = next(runs[pid])
        except StopIteration:
            continue
        heapq.heappush(heap, (now + delay, pid))
    return len(boxes)


def _scatter(table: dict, lookups: int = 12000) -> int:
    acc, x = 0, 12345
    for _ in range(lookups):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += table[x & (_TABLE_SIZE - 1)]
    return acc
