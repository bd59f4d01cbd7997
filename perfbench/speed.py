"""Machine-speed probe: every timing of a run expressed at one fixed reference speed.

On a shared host the same code runs up to 2x slower for seconds to minutes
at a time while other tenants load the cores, and thread CPU time slows
with it (see README, "Timings at reference speed"). Raw wall-clock medians
of runs taken minutes apart then differ by more than the regressions the
benchmark should catch. So a run interleaves a fixed kernel between the
program's operations, never inside one, and scales every time measured
near it by REF_S / (the kernel's time there): a figure in ms is what the
operation takes on the machine at the speed where the kernel takes REF_S.
The kernel imports nothing from attnloc, so a change to the program moves
the figures and not the reference.

The kernel is a small attention-like computation at the workload's width:
a 136 x d by d x d product, a grouped softmax over 17 groups of 8, and one
Python object per array op, as on the autodiff tape.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

EVERY_S = 0.04  # wall time from the end of one probe to the next
NEAREST = 5  # probes whose median scales one timing
SETUP_PROBES = 3  # probes right before and right after each set-up
# width -> (repetitions, REF_S). REF_S is about the kernel's fastest time on
# a 2-vCPU Xeon (Sapphire Rapids) KVM guest with one BLAS thread, so figures
# read close to that machine's wall clock when nothing else loads its host.
KERNEL = {64: (30, 2.0e-3), 256: (4, 1.9e-3)}


class _Op:
    """One tape-like node per array op, for the kernel's Python overhead."""

    __slots__ = ("data", "parents")

    def __init__(self, data, parents):
        self.data, self.parents = data, parents


def kernel(x: np.ndarray, w: np.ndarray, reps: int) -> float:
    acc = 0.0
    for _ in range(reps):
        h = _Op(x @ w, (x,))
        g = h.data.reshape(17, 8, -1)
        s = _Op((g * g[:, :1]).sum(-1), (h,))
        e = np.exp(s.data - s.data.max(axis=1, keepdims=True))
        a = _Op(e / e.sum(axis=1, keepdims=True), (s,))
        o = _Op(np.maximum((a.data[:, :, None] * g).sum(axis=1), 0.0), (a, h))
        acc += float(o.data[0, 0])
    return acc


class SpeedProbe:
    """Times the kernel between operations and scales timings by what it saw."""

    def __init__(self, width: int, wrap=None):
        self.reps, self.ref_s = KERNEL[width]
        self.x = np.linspace(-1.0, 1.0, 136 * width).reshape(136, width)
        self.w = np.linspace(-1.0, 1.0, width * width).reshape(width, width) / width
        # a traced run wraps the kernel in a span of its own, so its time
        # stays out of the self time of the layer it runs inside
        self._kernel = kernel if wrap is None else wrap(kernel)
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._last_end = -float("inf")

    def probe(self) -> None:
        # one untimed repetition brings the inputs back into cache, so the
        # program's footprint between probes does not move the reference
        self._kernel(self.x, self.w, 1)
        t0 = time.perf_counter()
        self._kernel(self.x, self.w, self.reps)
        self._last_end = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(self._last_end - t0)

    def tick(self) -> None:
        """Probe if EVERY_S has passed since the last probe; call between operations."""
        if time.perf_counter() - self._last_end >= EVERY_S:
            self.probe()

    def factor(self, t: float) -> float:
        """REF_S over the median of the NEAREST probes around time t."""
        n = len(self.durations)
        if n == 0:
            raise ValueError("no speed probe was taken")
        lo = max(0, min(bisect.bisect_left(self.starts, t) - NEAREST // 2, n - NEAREST))
        return self.ref_s / statistics.median(self.durations[lo:lo + NEAREST])

    def adjust(self, start: float, seconds: float) -> float:
        """A duration that began at `start`, at the reference speed."""
        return seconds * self.factor(start + seconds / 2)

    def slowdown(self) -> dict:
        """How much slower than REF_S the kernel ran over the run: quartiles and extremes."""
        r = [d / self.ref_s for d in self.durations]
        q1, med, q3 = statistics.quantiles(r, n=4) if len(r) > 1 else (r[0],) * 3
        return {"probes": len(r), "min": min(r), "q1": q1, "median": med, "q3": q3, "max": max(r)}
