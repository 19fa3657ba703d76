"""Host-speed calibration of the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over tens of seconds (measured on a 2-vCPU container:
the same pure-Python loop took 14 ms in one 10 s stretch and 21 ms in
another; CPU time tracks wall time, so the slowdown is the hardware's,
not the scheduler's).  A run of the benchmark lasts about as long as one
such stretch, so raw host seconds of the same code differ by that much
from run to run.

:class:`HostClock` removes most of it.  It times a fixed *probe* -- three
small kernels that use nothing of the repository: a pure-Python loop of
dict lookups, method calls and heap operations (like the DES engine), a
NumPy loop over a production-sized 3-D field (memory bound) and a NumPy
loop over a tile-sized one (call-overhead bound, like the GCM on small
tiles).  The host's *speed factor* at a moment is the mean over the
three kernels of their time divided by their nominal time.  Every timed
interval is bracketed by probes, and its *reference seconds* are its
host seconds divided by the mean of the two factors: the time it would
have taken on a host that runs the probe in its nominal time.

The probe is the same code in every revision of the repository, so a
change to the program moves reference seconds exactly as it moves host
seconds; only the host's drift is divided out.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, List, Tuple

import numpy as np

#: Nominal seconds of each probe kernel (about their times on a 2-vCPU
#: x86-64 container in a fast stretch, Python 3.x, NumPy 2.x).  They only
#: set the scale of reference seconds and never change, so reference
#: seconds of different revisions compare directly.
NOMINAL_S = {"python": 0.020, "numpy_large": 0.020, "numpy_small": 0.020}

#: A probe that ended less than this many seconds ago is reused as the
#: start bracket of the next interval instead of probing again.
REUSE_S = 0.05


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def bump(self, n: int) -> int:
        self.value += n
        return self.value


class HostClock:
    """Times intervals in host seconds and in reference seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._large = rng.standard_normal((30, 64, 128))
        self._small = rng.standard_normal((10, 16, 32))
        self._items = {i: _Item(i, i % 13) for i in range(512)}
        #: ``(perf_counter at the end of the probe, speed factor)``
        self.samples: List[Tuple[float, float]] = []
        #: host seconds spent probing
        self.probe_s = 0.0

    def _python(self) -> int:
        items, heap, total = self._items, [], 0
        for i in range(22000):
            item = items[(i * 7) % 512]
            total += item.bump(i & 3)
            heapq.heappush(heap, (total % 1009, i))
            if len(heap) > 64:
                total -= heapq.heappop(heap)[0]
        return total

    def _numpy_large(self) -> float:
        a = b = self._large
        for _ in range(11):
            b = np.roll(b, 1, axis=2) * 0.5 + a * 0.25 + b[:, ::-1, :] * 0.25
        return float(b[0, 0, 0])

    def _numpy_small(self) -> float:
        a = b = self._small
        for _ in range(700):
            b = b * 0.5 + a[:, ::-1, :] * 0.25 + np.roll(b, 1, axis=2) * 0.25
        return float(b[0, 0, 0])

    def probe(self) -> float:
        """Run the probe now; returns (and records) the speed factor."""
        start = time.perf_counter()
        ratios = []
        for name, kernel in (("python", self._python),
                             ("numpy_large", self._numpy_large),
                             ("numpy_small", self._numpy_small)):
            t0 = time.perf_counter()
            kernel()
            ratios.append((time.perf_counter() - t0) / NOMINAL_S[name])
        end = time.perf_counter()
        self.probe_s += end - start
        factor = sum(ratios) / len(ratios)
        self.samples.append((end, factor))
        return factor

    def factor(self) -> float:
        """The speed factor now: the last probe's if it just ended."""
        if self.samples and time.perf_counter() - self.samples[-1][0] < REUSE_S:
            return self.samples[-1][1]
        return self.probe()

    def timed(self, fn: Callable):
        """``fn()`` bracketed by probes: ``(result, host s, reference s)``."""
        before = self.factor()
        t0 = time.perf_counter()
        out = fn()
        host = time.perf_counter() - t0
        return out, host, host / (0.5 * (before + self.probe()))

    def median_factor(self) -> float:
        return float(np.median([f for _t, f in self.samples])) if self.samples else 1.0
