"""Host-speed reference for the benchmark's time metrics.

On a shared host the CPU speed one process gets drifts. On a 2-vCPU Xeon
virtual machine the same scenario list ran up to 40% slower for 30 s and
more at a time, while CPU time stayed equal to wall time. So no statistic
taken within one run can remove the drift. The benchmark times a fixed
pure-Python kernel after every operation and divides each operation's host
time by the speed factor `median(nearby kernel seconds) / NOMINAL_S`. Times
are then reported in seconds at the host speed where the kernel takes
NOMINAL_S. The kernel uses what the simulator's hot loops use: frozen
slotted dataclasses, float math, tuple keys, a sort with a key function and
dict stores. It does not import `ucircle`, so a change to the package
cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

NOMINAL_S = 0.0005
# Samples per factor in `scale`: the operation's own and two on each side.
# Over repeated runs of one seed this halved the run-to-run spread left by
# one factor per pass.
WINDOW = 5


@dataclass(frozen=True, slots=True)
class _Point:
    x: float
    y: float


def _kernel() -> tuple:
    pts = [_Point(math.cos(i * 2.399963) * (1 + i * 0.1), math.sin(i * 2.399963) * (1 + i * 0.1)) for i in range(60)]
    best = math.inf
    index = {}
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            d = math.hypot(a.x - b.x, a.y - b.y)
            if d < best:
                best = d
        index[(round(a.x, 3), round(a.y, 3))] = i
    ordered = sorted(pts, key=lambda p: (math.atan2(p.y, p.x), p.x))
    return best, ordered[0], len(index)


def sample() -> float:
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def factor(samples) -> float:
    """How much slower than nominal the host ran while `samples` were taken."""
    return statistics.median(samples) / NOMINAL_S


def scale(times, samples) -> list[float]:
    """Scale `times[i]` to nominal speed by the samples taken next to it.

    `samples[i]` is taken right after `times[i]`. Each time is divided by the
    factor of the WINDOW samples centred on its own, so that a change of host
    speed within a pass is followed.
    """
    half = WINDOW // 2
    return [t / factor(samples[max(0, i - half) : i + half + 1]) for i, t in enumerate(times)]
