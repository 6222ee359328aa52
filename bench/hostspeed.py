"""Host-speed scaling for a shared machine.

On a host shared with other tenants, the speed of the same Python code
drifts by ±25% over tens of seconds. An identical roadmap build took 0.97 s
in one run and 1.52 s in the next. A fixed calibration kernel, run between
operations, slows down by the same factor. Each time the benchmark gates on
is therefore scaled by REFERENCE_S / (kernel time), the kernel timed just
before and just after the operation.
The result is the time the operation would take on a host where the kernel
takes REFERENCE_S. Over 100 s on a 2-core VM, this cut the spread of
5-second query medians from 13.5% to 3.8%.

The kernel uses only the standard library and numpy, never morphnav, so a
change to the program cannot move it. The raw wall-clock figures are kept
in the run record next to the scaled ones.
"""

from __future__ import annotations

import heapq
import math
from time import perf_counter

import numpy as np

# Kernel time that defines the reference host; about its time on a quiet
# 2-core VM at the time the benchmark was written.
REFERENCE_S = 0.002
# Minimum time between two calibrations in the timed loop.
INTERVAL_S = 0.25


def kernel() -> None:
    """Work of the same kinds as the program's: heap and float arithmetic
    in Python, and small numpy array calls."""
    heap: list[tuple[float, int]] = []
    for i in range(1500):
        heapq.heappush(heap, (math.hypot(i % 37, i % 11), i))
    while heap:
        heapq.heappop(heap)
    pts = np.linspace(0.0, 1.0, 40)[:, None] * np.ones(3)
    for _ in range(60):
        np.clip(pts, 0.2, 0.8).sum(axis=1).any()


def kernel_s() -> float:
    """Kernel time, the faster of two runs so that one interrupt does not
    count."""
    best = math.inf
    for _ in range(2):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


class HostSpeed:
    """Scales wall times to the reference host. The kernel is timed between
    operations, at most every `interval_s`; each operation is scaled by the
    mean factor of the calibrations just before and just after it."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.factors: list[float] = []
        self.scaled_s: list[float] = []
        self._pending: list[float] = []
        self._measure()

    def _measure(self) -> None:
        self.factors.append(REFERENCE_S / kernel_s())
        self._at = perf_counter()

    def _close_window(self) -> None:
        self._measure()
        factor = 0.5 * (self.factors[-2] + self.factors[-1])
        self.scaled_s.extend(t * factor for t in self._pending)
        self._pending.clear()

    def before_op(self) -> None:
        if perf_counter() - self._at >= self.interval_s:
            self._close_window()

    def add(self, wall_s: float) -> None:
        self._pending.append(wall_s)

    def finish(self) -> list[float]:
        """Scaled times of every operation added, in order."""
        if self._pending:
            self._close_window()
        return self.scaled_s
