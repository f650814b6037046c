"""Timing corrected for the host's drifting speed.

The host this benchmark was written on runs the same code up to 1.9x slower
for phases of seconds to minutes (other tenants share its cores), which no
run of a few seconds can average out. A fixed reference kernel (pure-Python
breadth-first passes plus small numpy products, the package's own mix, and
sharing no code with it) is therefore timed before and after every timed
call, and every SAMPLE_EVERY_S seconds inside a longer one (on SIGALRM, with
the kernel's own time left out). Each stretch between two samples is scaled
by REF_MS / (the kernel's time at its two ends, averaged), so a timing reads
as the time the call takes when the host runs the kernel in REF_MS. Across
the host's phases, a query embedding's time over the kernel's time stayed
within 0.93-0.99, while each alone moved by 1.8x.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REF_MS = 1.2  # the kernel's median time on the reference host at full speed
SAMPLE_EVERY_S = 0.2
BURST = 3


class Clock:
    """start()/stop() around one timed call; stop() returns corrected seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        n = 400
        self._adjacency = [
            sorted({(u + 1) % n, (u - 1) % n, int(rng.integers(n))} - {u}) for u in range(n)
        ]
        self._a = rng.random((64, 32))
        self._b = rng.random((32, 32))
        self._speed = 1.0
        self._last = -float("inf")
        self.factors: list[float] = []  # one per corrected timing

    def _kernel_ms(self) -> float:
        t0 = time.perf_counter()
        for source in range(0, len(self._adjacency), 40):
            dist = {source: 0}
            frontier = [source]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in self._adjacency[u]:
                        if v not in dist:
                            dist[v] = dist[u] + 1
                            nxt.append(v)
                frontier = nxt
        for _ in range(20):
            np.maximum(0.0, self._a @ self._b).sum()
        return 1000.0 * (time.perf_counter() - t0)

    def _factor(self, fresh: bool = False) -> float:
        # a burst of BURST kernel runs at most every SAMPLE_EVERY_S; its
        # fastest run skips the cache misses the timed call left behind
        if fresh or time.perf_counter() - self._last > SAMPLE_EVERY_S:
            self._speed = REF_MS / min(self._kernel_ms() for _ in range(BURST))
            self._last = time.perf_counter()
        return self._speed

    def _close_segment(self, end: float, factor: float) -> None:
        """Add the segment since the last sample, at the mean of the speed
        factors measured at its two ends."""
        self._corrected += (end - self._seg_start) * (self._seg_factor + factor) / 2
        self.factors.append((self._seg_factor + factor) / 2)

    def _tick(self, signum, frame) -> None:
        # SIGALRM inside a timed call: sample the kernel mid-call, and keep
        # the kernel's own time out of the call's time
        end = time.perf_counter()
        factor = self._factor(fresh=True)
        self._close_segment(end, factor)
        self._seg_start, self._seg_factor = time.perf_counter(), factor

    def start(self) -> None:
        self._corrected = 0.0
        self._seg_factor = self._factor()
        signal.signal(signal.SIGALRM, self._tick)
        self._seg_start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> float:
        """Corrected seconds since start()."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._close_segment(end, self._factor())
        return self._corrected
