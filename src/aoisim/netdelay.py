"""Network delay stage between the access point and the destination.

Every update delivered at the access point is forwarded through its own
independent geometric delay (support {1, 2, ...}, mean 1/k), so updates can
overtake each other.  An update in flight is a ``(source, gen)`` pair: its
source and its generation slot.  At the destination a reception is
*informative* when its generation slot is newer than everything received so
far for that source, else *obsolete*.  Receptions landing in the same slot
are processed by source, newest first, so at most one of them is
informative per source.

The stage never feeds back into the access point, so the engine hands it a
span of slots at a time, with array operations: ``DelayStage.inject`` takes
a span's deliveries and draws each source's delays from its own delay
stream, a block of values at once; ``deliver_due`` hands out every reception
due by a slot and classifies them with one running maximum per source.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .streams import SourceStreams

__all__ = ["DelayStage", "deliver_due"]


class DelayStage:
    """Updates in flight, and the newest generation received per source.

    ``flight`` holds the updates in flight as rows arrival slot, source and
    gen, in no particular order; ``newest_gen`` the newest generation
    received per source (-1 before the first); ``received`` the receptions
    the last ``deliver_due`` handed out, as rows source, gen, slot and
    informative (1 or 0), sorted by source, then slot, newest first.

    ``k`` is the per-slot forwarding probability, in (0, 1]; ``SimConfig``
    checks it as ``network_k``.  Source i's delays come from
    ``streams[i].delay``.
    """

    __slots__ = ("k", "streams", "flight", "newest_gen", "received")

    def __init__(self, k: float, streams: Sequence[SourceStreams]):
        self.k = k
        self.streams = streams
        self.flight = np.empty((3, 0), np.int64)
        self.newest_gen = np.full(len(streams), -1, np.int64)
        self.received = np.empty((4, 0), np.int64)

    def inject(self, src: np.ndarray, gen: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """Launch deliveries at the access point; returns their arrival slots.

        The deliveries are sorted by source and, within a source, by slot,
        so each source takes the next of its delays in delivery order.
        """
        counts = np.bincount(src, minlength=len(self.streams))
        delays = [
            self.streams[i].delay.geometric(self.k, m)
            for i, m in enumerate(counts.tolist())
            if m
        ]
        arrive = slot + np.concatenate(delays) if delays else slot
        self.flight = np.concatenate((self.flight, (arrive, src, gen)), axis=1)
        return arrive


def deliver_due(stage: DelayStage, slot: int) -> list[tuple[tuple[int, int], bool]]:
    """Receptions due at or before ``slot``, as ``((source, gen), informative)``.

    They are listed in reception order: by slot, then source, newest first.
    The stage keeps them as ``received`` too, and the rest stay in flight.
    """
    due = stage.flight[0] <= slot
    arrive, src, gen = stage.flight.compress(due, axis=1)
    stage.flight = stage.flight.compress(~due, axis=1)
    order = np.lexsort((-gen, arrive, src))
    src, gen, arrive = src[order], gen[order], arrive[order]
    # each gen against the newest before it: the source's newest so far, or
    # the running maximum of its gens, lifted above those of earlier sources
    lift = (int(gen.max(initial=0)) + 2) * src
    best = np.maximum.accumulate(gen + lift)
    before = np.empty_like(gen)
    before[:1] = -1
    np.subtract(best[:-1], lift[1:], out=before[1:])
    newest = stage.newest_gen
    fresh = gen > np.maximum(before, newest[src])
    last = np.ones(len(src), bool)
    np.not_equal(src[1:], src[:-1], out=last[:-1])
    newest[src[last]] = np.maximum(newest[src[last]], (best - lift)[last])
    stage.received = np.array((src, gen, arrive, fresh))
    by_slot = arrive.argsort(kind="stable")
    return list(zip(zip(src[by_slot].tolist(), gen[by_slot].tolist()), fresh[by_slot].tolist()))
