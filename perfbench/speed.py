"""Machine-speed gauge: times in the benchmark are reported at a fixed
reference speed.

Shared 2-core hosts drift: a fixed pure-Python loop runs 15-25% faster or
slower from one second to the next, and process CPU time drifts with it, so
raw times of identical work differ by that much between runs.  The gauge
times a fixed interpreter-bound kernel (tuples, frozensets, dict updates and
a sort, the operations the program is made of) every `INTERVAL` seconds, and
`scale(dt)` converts a raw duration to what it would be at the speed where
the kernel takes `REFERENCE_S`: dt * REFERENCE_S / (median of the last
`WINDOW` kernel times).  A change to the program moves the scaled times as it
moves the raw ones; a change in the host's speed moves both the kernel and
the operation, and cancels.
"""
from __future__ import annotations

import statistics
import time
from collections import deque

REFERENCE_S = 0.0016   # kernel time on a quiet 2-core host, Python 3.11.7
INTERVAL = 0.05
WINDOW = 3


def kernel() -> int:
    table: dict = {}
    acc = 0
    for i in range(1000):
        key = (i & 63, i % 7, "k")
        s = frozenset((i & 7, (i >> 3) & 7, (i >> 6) & 7))
        old = table.get(key)
        table[key] = s if old is None else (old | s)
        acc += len(table[key])
    return acc + len(sorted(table.items(), key=lambda kv: (len(kv[1]), kv[0])))


class SpeedGauge:
    def __init__(self):
        self.samples: deque = deque(maxlen=WINDOW)
        self.all: list = []
        self._last = float("-inf")

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.all.append(end - start)
        self._last = end

    def tick(self) -> None:
        """Sample when the last sample is older than INTERVAL."""
        if time.perf_counter() - self._last >= INTERVAL:
            self.sample()

    def warm(self) -> None:
        for _ in range(WINDOW):
            self.sample()

    def scale(self, dt: float) -> float:
        return dt * REFERENCE_S / statistics.median(self.samples)
