"""The machine's speed, sampled while a run measures the program.

The machine the figures come from is shared, and its speed drifts: the
same fixed work runs up to a third slower or faster from one stretch of
tens of seconds to the next, on both cores alike.  Raw wall times of two
runs of the same code therefore differ by about as much as a change
worth catching.

A ``Gauge`` times a fixed reference kernel (a sparse LU solve, an
``einsum`` and a Python loop, on inputs of its own that do not involve
lcdroplet) between the program's calls, at least ``MIN_GAP_S`` apart.
``scaled(a, b)`` then gives the program's time in the interval
``[a, b]``, net of the samples taken inside it, with each stretch between
two samples scaled by ``REFERENCE_S / k``, where ``k`` is the median
kernel time of the samples around it.  The result is in seconds at the
reference speed: the time the interval would take when the kernel takes
``REFERENCE_S``.  A program that does more work reads slower in full;
only the machine's drift is divided out.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

# the kernel's median time on the machine of perfbench/README.md
REFERENCE_S = 0.010
# samples are at least this far apart (end of one to the next call)
MIN_GAP_S = 0.2
# a stretch between two samples is scaled by the median of this many
# samples on each side of it
WINDOW = 2
WARM_UP = 5


def reference_kernel():
    """A fixed piece of work like the program's own mix: sparse matrix
    arithmetic and an LU solve, a batched ``einsum``, a Python loop."""
    n = 48
    rng = np.random.default_rng(0)
    ones = -np.ones(n * n - 1)
    far = -np.ones(n * n - n)
    lap = sp.diags([4.0 + rng.random(n * n), ones, ones, far, far],
                   [0, 1, -1, n, -n], format="coo")
    rhs = rng.random(n * n)
    blocks = rng.random((2000, 3, 3))

    def kernel() -> float:
        matrix = lap.tocsc() + sp.identity(n * n, format="csc")
        x = sla.splu(matrix).solve(rhs)
        y = np.einsum("kij,kjl->kil", blocks, blocks).sum()
        s = 0
        for i in range(20000):
            s += i * i
        return float(x[0] + y + s)

    return kernel


class Gauge:
    def __init__(self):
        self._kernel = reference_kernel()
        for _ in range(WARM_UP):
            self._kernel()
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._factors: dict[int, float] = {}

    def sample(self, times: int = 1) -> None:
        """Time the kernel, now, ``times`` times in a row."""
        for _ in range(times):
            t0 = time.perf_counter()
            self._kernel()
            t1 = time.perf_counter()
            self.starts.append(t0)
            self.ends.append(t1)
        self._factors.clear()

    def maybe_sample(self) -> None:
        """Time the kernel if the last sample is ``MIN_GAP_S`` old."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= MIN_GAP_S:
            self.sample()

    def kernel_times(self) -> list[float]:
        return [b - a for a, b in zip(self.starts, self.ends)]

    def _factor(self, j: int) -> float:
        """Scale of the stretch that ends where sample ``j`` starts."""
        if j not in self._factors:
            lo, hi = max(0, j - WINDOW), min(len(self.starts), j + WINDOW)
            if lo >= hi:
                lo, hi = max(0, len(self.starts) - WINDOW), len(self.starts)
            local = statistics.median(self.ends[i] - self.starts[i] for i in range(lo, hi))
            self._factors[j] = REFERENCE_S / local
        return self._factors[j]

    def scaled(self, a: float, b: float) -> float:
        """Seconds at the reference speed in ``[a, b]``, samples excluded.
        A sample lies wholly inside or outside any interval the benchmark
        times, since both are taken between the program's calls."""
        if not self.starts:
            raise RuntimeError("the gauge has no sample")
        j = bisect.bisect_left(self.starts, a)
        total, t = 0.0, a
        while j < len(self.starts) and self.ends[j] <= b:
            total += (self.starts[j] - t) * self._factor(j)
            t = self.ends[j]
            j += 1
        return total + (b - t) * self._factor(j)
