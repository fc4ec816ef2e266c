"""Machine-speed calibration of the end-to-end timings.

On a shared host the same code runs up to twice as slow from one minute to
the next, because neighbours contend for the core, its caches and memory.
The workload process therefore times a fixed kernel, which never calls
motbounds, between operations, and divides each operation's wall time by the
kernel's slowdown against its reference time: the timings are reported in
seconds at the reference machine speed. The raw wall times are printed next
to them.

Each workload uses the kernel whose slowdown tracked its own best when both
ran side by side on a 2-vCPU Intel Xeon VM:

* ``python``: a plain Python loop; dual_wide, dual_deep and the set-up of
  every workload (imports are interpreter work). It needs no numpy, so it can
  run before the imports it calibrates;
* ``interpreter``: a shorter loop plus many numpy calls on tiny arrays, like
  the ascent and cascade on small sections; desk_batch;
* ``memory``: rank-one updates of a 7.2 MB dense matrix, like the dense
  tableau simplex that dominates showcase.

A single short sample can catch a burst of contention that a multi-second
operation averages out, so the kernels that scale such operations (python
and memory) report the median of five samples. The desk_batch operations
are short, and their many samples are averaged over the 24 operations of a
unit.
"""

from __future__ import annotations

import time

# Kernel times at the reference speed: the fast-period times (10th
# percentile) on that VM with Python 3.11 and numpy 2.4.
REFERENCE_S = {"python": 0.008, "interpreter": 0.007, "memory": 0.0165}
SAMPLES = {"python": 5, "interpreter": 1, "memory": 5}
EVERY_S = 0.25  # minimum time between two samples within a timed window


class Calibration:
    def __init__(self, kind: str):
        if kind not in REFERENCE_S:
            raise ValueError(f"unknown calibration kernel {kind!r}")
        self.kind = kind
        if kind != "python":
            import numpy as np

            self._np = np
            rng = np.random.default_rng(0)
            self._small = rng.random(16)
            self._dense = rng.random((300, 3000)) if kind == "memory" else None

    @staticmethod
    def _python(count=200_000):
        s = 0
        for i in range(count):
            s += i
        return s

    def _interpreter(self):
        np = self._np
        x = self._small
        for _ in range(1500):
            x = np.maximum(x * 0.5 + self._small, self._small).cumsum()[::-1] * 1e-3
        return self._python(60_000), x

    def _memory(self):
        t = self._dense.copy()
        for j in range(12):
            t -= self._np.outer(t[:, j], t[j] * 1e-3)
        return t

    def _time(self) -> float:
        kernel = getattr(self, f"_{self.kind}")
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start

    def slowdown(self) -> float:
        """Kernel wall time over its reference time; above 1 means slower."""
        times = sorted(self._time() for _ in range(SAMPLES[self.kind]))
        return times[len(times) // 2] / REFERENCE_S[self.kind]


class ScaledTimes:
    """Operation wall times, raw and divided by the slowdown around them.

    A calibration sample is taken before the first operation and then after
    any operation that ends at least EVERY_S after the previous sample; the
    operations in between are divided by the mean of the two samples.
    """

    def __init__(self, kind: str):
        self.calibration = Calibration(kind)
        self.raw = []
        self.scaled = []
        self._pending = []
        self._sample()

    def _sample(self):
        self._last = self.calibration.slowdown()
        self._last_t = time.perf_counter()

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self._pending.append(seconds)
        if time.perf_counter() - self._last_t >= EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        before = self._last
        self._sample()
        factor = (before + self._last) / 2
        self.scaled.extend(t / factor for t in self._pending)
        self._pending.clear()
