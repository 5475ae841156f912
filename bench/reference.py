"""Calibration of timings against a fixed reference kernel.

On a shared host the speed of a vCPU drifts: the same work can take 1.7
times as long for tens of seconds, with CPU time equal to wall time, and
the level shifts from one minute to the next.  A raw timing then measures
the host more than the program.  This module times a fixed kernel of small
LAPACK and numpy calls, the same kind of work the solvers do, between
stretches of the benchmark's work.  Each stretch's times are scaled by

    factor = REFERENCE_MS / (kernel time around the stretch)

where the kernel time is the median of the SMOOTH timings nearest the
stretch (one kernel timing is noisy; the host's speed drifts over seconds),
so a calibrated timing is what the stretch would have taken on a host
running the kernel in REFERENCE_MS.  The kernel is the benchmark's own code
and imports nothing from the package, so a change to the package cannot
move it.  Raw timings stay in the full record.

Seen over two minutes on a 2-vCPU VM, 10 s medians of raw solve time
spread by 31% (interquartile range over median) and those of the
calibrated time by 4-5%.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: The kernel's time, in ms, on the host that defines "reference speed": the
#: 2-vCPU VM the numbers in NOTES.md come from, in a quiet phase.  It only
#: scales calibrated figures; both sides of a comparison use the same value.
REFERENCE_MS = 1.0
#: The work stretch, in seconds, after which the kernel is timed again.
SEGMENT_S = 0.05
#: Kernel timings whose median calibrates one stretch: those at its two ends
#: and the two before and after them.
SMOOTH = 6
KERNEL_REPS = 6

_rng = np.random.default_rng(20120700)
_A = _rng.standard_normal((32, 29))
_B = _rng.standard_normal(32)
_M = _rng.standard_normal((12, 12))
_M = _M @ _M.T + 12.0 * np.eye(12)
_V = _rng.standard_normal(12)


def kernel() -> float:
    s = 0.0
    for i in range(KERNEL_REPS):
        x = np.linalg.lstsq(_A, _B, rcond=None)[0]
        y = np.linalg.solve(_M, _V)
        s += float(x[i] + y[i % 12]) + float(np.maximum(y, 0.0).sum())
    return s


def reference_s(repeat: int = 2) -> float:
    """The kernel's time in seconds, the fastest of `repeat` timings, so
    that one preemption does not count as a slow host."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class Segment:
    """One stretch of work, ended by a kernel timing."""

    wall_s: float
    cpu_s: float
    latencies_s: list[float]
    ref_after_s: float


def factors(first_ref_s: float, segments: list[Segment], smooth: int = SMOOTH) -> list[float]:
    """Calibration factor of each segment: REFERENCE_MS over the median of
    the `smooth` kernel timings centred on it."""
    refs = [first_ref_s] + [s.ref_after_s for s in segments]
    half = smooth // 2
    out = []
    for i in range(len(segments)):
        lo = max(0, min(i + 1 - half, len(refs) - smooth))
        out.append(REFERENCE_MS * 1e-3 / statistics.median(refs[lo:lo + smooth]))
    return out


@dataclass
class Calibration:
    """Cuts a timed region into segments of at least `segment_s` of work and
    times the reference kernel between them.  `start` opens the region,
    `cut` closes a segment (and `maybe_cut` does when it is long enough);
    kernel time is excluded from every segment."""

    reference: Callable[[], float] = reference_s
    segment_s: float = SEGMENT_S
    segments: list[Segment] = field(default_factory=list)

    def start(self) -> None:
        self._first_ref = self.reference()
        self._begin()

    def add_latency(self, seconds: float) -> None:
        self._latencies.append(seconds)

    def maybe_cut(self) -> None:
        if time.perf_counter() - self._t0 >= self.segment_s:
            self.cut()

    def cut(self) -> None:
        wall = time.perf_counter() - self._t0
        cpu = time.process_time() - self._cpu0
        self.segments.append(Segment(wall, cpu, self._latencies, self.reference()))
        self._begin()

    def _begin(self) -> None:
        self._latencies: list[float] = []
        self._cpu0 = time.process_time()
        self._t0 = time.perf_counter()

    def totals(self) -> dict[str, float | list[float]]:
        """Raw and calibrated wall and CPU seconds, and the raw and
        calibrated latencies of every solve."""
        segs = self.segments
        fs = factors(self._first_ref, segs)
        return {
            "wall_s": sum(s.wall_s for s in segs),
            "cpu_s": sum(s.cpu_s for s in segs),
            "wall_cal_s": sum(s.wall_s * f for s, f in zip(segs, fs)),
            "cpu_cal_s": sum(s.cpu_s * f for s, f in zip(segs, fs)),
            "latencies_s": [x for s in segs for x in s.latencies_s],
            "latencies_cal_s": [x * f for s, f in zip(segs, fs) for x in s.latencies_s],
            "factor_median": statistics.median(fs),
        }
