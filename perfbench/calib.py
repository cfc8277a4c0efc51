"""Host calibration: time work against a fixed pure-Python kernel.

The host this benchmark was written on drifts by about 20% in speed
within seconds, and CPU time drifts with wall time, so neither is
comparable across runs.  Each timed phase is therefore cut into slices
of about :data:`SLICE_S` seconds of program work, and a fixed kernel runs
between consecutive slices.  A slice's calibration factor is
``NOMINAL_KERNEL_S`` over the median of the kernel readings around it;
every op time in the slice is multiplied by it.  Normalised times are what the work
would take on a host where the kernel takes exactly
:data:`NOMINAL_KERNEL_S`.  Raw wall figures are kept beside them.
"""

from __future__ import annotations

import statistics
import time

#: Kernel wall time at the nominal speed (the median on a 2-CPU x86-64
#: container under Python 3.11, where the benchmark was tuned).
NOMINAL_KERNEL_S = 0.0050

#: Target program time per calibration slice.
SLICE_S = 0.10


_BUF = [0] * 1024
_TABLE = {i: i * 7 for i in range(512)}


def kernel(n: int = 12000) -> int:
    """A fixed mix of the interpreter work the program does: integer
    arithmetic, list and dict indexing, float division.  It allocates no
    containers, so it neither triggers nor defers the program's garbage
    collections and leaves the program's heap as it found it."""
    x, y, acc = 12345, 0.5, 0
    buf, table = _BUF, _TABLE
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        j = x & 1023
        buf[j] = (buf[j] + i) & 0xFFFF
        acc += table[j & 511]
        y = y * 0.5 + (x & 255) / 7.0
    return acc + int(y)


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Calibrated:
    """Op timings of one phase, normalised slice by slice.

    Call :meth:`begin`, then :meth:`add` once per op (or per batch of
    ``count`` ops) with its raw wall seconds, then :meth:`end`.  A kernel
    runs whenever the open slice holds :data:`SLICE_S` of work, so the
    kernel time never lands inside an op's timing.  One kernel reading is
    noisy, so a slice's factor uses the median of the :data:`WINDOW`
    readings nearest to it: drift slower than a few slices is followed,
    a single disturbed reading is not.
    """

    WINDOW = 6

    def __init__(self, timer=time_kernel) -> None:
        self.timer = timer
        self.kernels: list[float] = []
        self.factors: list[float] = []
        self.raw: list[float] = []
        self.norm: list[float] = []
        self.counts: list[int] = []
        self._slices: list[list[tuple[float, int]]] = [[]]
        self._open = 0.0

    def begin(self) -> None:
        self.kernels.append(self.timer())

    def add(self, seconds: float, count: int = 1) -> None:
        self._slices[-1].append((seconds, count))
        self._open += seconds
        if self._open >= SLICE_S:
            self._close_slice()

    def _close_slice(self) -> None:
        if not self._slices[-1]:
            return
        self.kernels.append(self.timer())
        self._slices.append([])
        self._open = 0.0

    def end(self) -> None:
        """Close the last slice and normalise every op."""
        self._close_slice()
        half = self.WINDOW // 2
        for i, ops in enumerate(self._slices[:-1]):
            # slice i ran between kernels i and i + 1
            lo = max(0, min(i + 1 - half, len(self.kernels) - self.WINDOW))
            window = self.kernels[lo:lo + self.WINDOW]
            factor = NOMINAL_KERNEL_S / statistics.median(window)
            self.factors.append(factor)
            for seconds, count in ops:
                self.raw.append(seconds)
                self.norm.append(seconds * factor)
                self.counts.append(count)
        self._slices = [[]]

    # ---------------------------------------------------------- results
    @property
    def ops(self) -> int:
        return sum(self.counts)

    def rate(self, normalised: bool = True) -> float:
        total = sum(self.norm if normalised else self.raw)
        return self.ops / total

    def latencies(self, normalised: bool = True) -> list[float]:
        return list(self.norm if normalised else self.raw)

    def factor_summary(self) -> dict:
        """Median factor and its within-run spread (IQR over median)."""
        return spread_summary(self.factors)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank-interpolated quantile (``statistics.quantiles``,
    inclusive method) for one ``q`` in (0, 1)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def spread_summary(values: list[float]) -> dict:
    if not values:
        return {"median": None, "iqr_over_median": None, "n": 0}
    med = statistics.median(values)
    iqr = quantile(values, 0.75) - quantile(values, 0.25)
    return {"median": med, "iqr_over_median": iqr / med if med else None,
            "n": len(values)}
