"""Network delay stage between the access point and the destination.

Every update delivered at the access point is forwarded through its own
independent geometric delay (support {1, 2, ...}, mean 1/k), so updates can
overtake each other.  An update in flight is a ``(source, gen)`` pair: its
source and its generation slot.  At the destination a reception is
*informative* when its generation slot is newer than everything received so
far for that source, else *obsolete*.  Receptions landing in the same slot
are processed by source, freshest first, so at most one of them is
informative per source; the stage's heap pops them in that order.
"""
from __future__ import annotations

from heapq import heappop, heappush

from .streams import UniformStream

__all__ = ["DelayStage", "deliver_due"]


class DelayStage:
    """Updates in flight, on a heap keyed ``(arrival slot, source, -gen)``, and
    the newest generation received per source (-1 before the first).

    ``k`` is the per-slot forwarding probability, in (0, 1]; ``SimConfig``
    checks it as ``network_k``.
    """

    __slots__ = ("k", "heap", "newest_gen")

    def __init__(self, k: float, n_sources: int):
        self.k = k
        self.heap: list[tuple[int, int, int]] = []
        self.newest_gen = [-1] * n_sources

    def inject(self, item: tuple[int, int], ap_slot: int, stream: UniformStream) -> int:
        """Launch a ``(source, gen)`` pair at the access point; returns its arrival slot."""
        arrive = ap_slot + stream.geometric(self.k)
        heappush(self.heap, (arrive, item[0], -item[1]))
        return arrive

    @property
    def earliest(self) -> int | None:
        """The earliest arrival slot in flight, or None when nothing is."""
        return self.heap[0][0] if self.heap else None


def deliver_due(stage: DelayStage, slot: int) -> list[tuple[tuple[int, int], bool]]:
    """This slot's receptions, as ``((source, gen), informative)`` in reception order.

    The heap hands out a slot's receptions only once every earlier slot's
    are taken, so call this for every slot in which one is due, in order,
    as the engine does.
    """
    heap = stage.heap
    newest_gen = stage.newest_gen
    received = []
    while heap and heap[0][0] == slot:
        _, i, neg_gen = heappop(heap)
        gen = -neg_gen
        fresh = gen > newest_gen[i]
        if fresh:
            newest_gen[i] = gen
        received.append(((i, gen), fresh))
    return received
