"""Host calibration and the summary statistics the benchmark reports.

Timings on a shared host drift by more than half between back-to-back
processes, while the ratio of a replication's time to a fixed pure-Python
loop run next to it stays within a few percent.  Every reported time is
therefore scaled to a reference host on which that loop takes
``CALIB_REF_S``: ``scaled = raw * CALIB_REF_S / calib``.
"""
from __future__ import annotations

import math
import statistics
import time
from collections import deque

import numpy as np

CALIB_REF_S = 1.5e-3
MIN_TAIL = 10  # a percentile is reported only with this many samples beyond it
Z95 = 1.959963984540054

_CALIB_DRAWS = np.random.default_rng(12345).random(8192)


class _Queue:
    __slots__ = ("items", "n")

    def __init__(self) -> None:
        self.items: deque = deque()
        self.n = 0

    def push(self, item) -> None:
        self.items.append(item)
        self.n += 1

    def pop(self):
        return self.items.popleft() if self.items else None


def calib() -> float:
    """Seconds one fixed simulator-like loop takes on this host right now.

    It mirrors the engine's mix: a list built from numpy draws, slotted
    method calls, a deque, float compares and integer arithmetic.
    """
    start = time.perf_counter()
    q = _Queue()
    acc = 0
    for i, u in enumerate(_CALIB_DRAWS.tolist()):
        if u < 0.3:
            q.push((i, u))
        if u > 0.6:
            item = q.pop()
            if item is not None:
                acc += i - item[0]
    return time.perf_counter() - start


def scaled(walls: list[float], calibs: list[float]) -> list[float]:
    """Scale each wall time by the mean of the calibrations around it.

    ``calibs`` holds one more entry than ``walls``: entry i was taken just
    before replication i, the last one after the final replication.
    """
    if len(calibs) != len(walls) + 1:
        raise ValueError(f"need {len(walls) + 1} calibrations, got {len(calibs)}")
    return [
        w * CALIB_REF_S * 2.0 / (calibs[i] + calibs[i + 1]) for i, w in enumerate(walls)
    ]


def tail_percentile(samples: list[float], pct: int) -> float | None:
    """The ``pct`` percentile, or None unless ``MIN_TAIL`` samples lie beyond it."""
    if len(samples) < 2:
        return None
    cut = statistics.quantiles(samples, n=100)[pct - 1]
    beyond = sum(1 for s in samples if s > cut)
    return cut if beyond >= MIN_TAIL else None


def ci_rel(samples: list[float]) -> float:
    """95% confidence half-width of the mean, as a share of the mean."""
    n = len(samples)
    if n < 2:
        return math.inf
    return Z95 * statistics.stdev(samples) / math.sqrt(n) / abs(statistics.fmean(samples))


def seconds_to_rel_ci(wall: float, groups: list[list[float]], target: float = 0.01) -> float:
    """Host seconds until the worst group's 95% CI shrinks to ``target`` of its mean.

    ``wall`` bought the samples in ``groups``; the half-width falls as the
    square root of the sample count, so the time needed is
    ``wall * (ci_rel / target) ** 2``.
    """
    worst = max(ci_rel(g) for g in groups)
    return wall * (worst / target) ** 2
