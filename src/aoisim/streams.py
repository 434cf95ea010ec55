"""Seedable, splittable random streams for the simulator.

Each stream is an independent PCG64 substream keyed by
(run seed, source id, role).  Substreams are derived through numpy's
SeedSequence spawn keys, so adding sources or roles never perturbs the draws
of existing streams, and the same key always reproduces the same sequence.

A stream builds its generator and draws its first block of uniforms on first
use, so a source's unused roles cost nothing; a first use that says how many
draws it may take (``skip_to_below``, ``take_below``) draws no more than
that.  Later blocks hold ``_BLOCK`` values, or fewer when the streams are
made for a run of known horizon: no stream takes more than one draw per
slot, so a block never needs more values than the run has slots.  Block
sizes never change which values are drawn, only when.
"""
from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

__all__ = ["Role", "UniformStream", "SourceStreams"]

_BLOCK = 1 << 14
_U64 = (1 << 64) - 1


class Role:
    """Stream roles, one per independent randomness consumer of a source."""

    ARRIVAL = 0
    CHANNEL = 1
    ACCESS = 2
    DELAY = 3


class UniformStream:
    """Buffered stream of U(0,1) draws on a dedicated substream."""

    __slots__ = (
        "_seed", "_key", "_block", "_gen", "_buf", "_idx", "_end", "_below", "_below_p", "_next"
    )

    def __init__(self, seed: int, key: tuple[int, ...], block: int = _BLOCK):
        self._seed = seed
        self._key = key
        self._block = block
        self._gen: np.random.Generator | None = None
        self._buf: np.ndarray | None = None
        self._idx = self._end = 0
        self._below: list[int] = []  # positions in the block of draws below _below_p
        self._below_p: float | None = None
        # index into _below of the first position >= _idx whenever that
        # position is >= _idx (_idx only grows within a block)
        self._next = 0

    def _refill(self, first_size: int = _BLOCK) -> None:
        gen = self._gen
        size = self._block
        if gen is None:
            ss = np.random.SeedSequence(entropy=self._seed & _U64, spawn_key=self._key)
            gen = self._gen = np.random.Generator(np.random.PCG64(ss))
            size = min(first_size, size)
        self._buf = gen.random(size)
        self._idx = 0
        self._end = size
        self._below_p = None

    def uniform(self) -> float:
        if self._idx == self._end:
            self._refill()
        i = self._idx
        self._idx = i + 1
        return self._buf.item(i)

    def skip_to_below(self, p: float, limit: int) -> int:
        """Take draws up to and including the first one below ``p``.

        Takes at most ``limit`` draws and returns how many draws came before
        the one below ``p``, or ``limit`` when none of them is.  Equivalent
        to counting ``uniform() >= p`` calls, but one block at a time.
        """
        if self._below_p == p:  # fast path: the next hit is in this block
            j = self._next
            below = self._below
            if j < len(below):
                k = below[j] - self._idx
                if 0 <= k < limit:
                    self._idx += k + 1
                    self._next = j + 1
                    return k
        skipped = 0
        while skipped < limit:
            if self._idx == self._end:
                self._refill(limit - skipped)
            if self._below_p != p:
                self._below = np.flatnonzero(self._buf < p).tolist()
                self._below_p = p
                self._next = 0
            i = self._idx
            below = self._below
            j = bisect_left(below, i)
            stop = min(self._end, i + limit - skipped)
            if j < len(below) and below[j] < stop:
                self._idx = below[j] + 1
                self._next = j + 1
                return skipped + below[j] - i
            skipped += stop - i
            self._idx = stop
        return limit

    def take_below(self, p: float, count: int) -> np.ndarray:
        """Take the next ``count`` draws; return the positions of those below ``p``.

        Positions count from 0 at the first draw taken, in ascending order.
        Equivalent to ``count`` calls of ``uniform() < p``, but one block at
        a time.
        """
        parts = []
        taken = 0
        while taken < count:
            if self._idx == self._end:
                self._refill(count - taken)
            i = self._idx
            stop = min(self._end, i + count - taken)
            parts.append(np.flatnonzero(self._buf[i:stop] < p) + taken)
            taken += stop - i
            self._idx = stop
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.empty(0, np.intp)

    def geometric(self, p: float) -> int:
        """Number of Bernoulli(p) trials up to the first success; support {1, 2, ...}."""
        if p >= 1.0:
            return 1
        u = self.uniform()
        return int(math.log(1.0 - u) / math.log(1.0 - p)) + 1


class SourceStreams:
    """The independent streams one source consumes during a run.

    Given the run's ``horizon``, every block holds at most ``horizon`` values.
    """

    __slots__ = ("arrival", "channel", "access", "delay")

    def __init__(self, seed: int, source_id: int, horizon: int | None = None):
        block = _BLOCK if horizon is None else min(_BLOCK, horizon)
        self.arrival = UniformStream(seed, (source_id, Role.ARRIVAL), block)
        self.channel = UniformStream(seed, (source_id, Role.CHANNEL), block)
        self.access = UniformStream(seed, (source_id, Role.ACCESS), block)
        self.delay = UniformStream(seed, (source_id, Role.DELAY), block)
