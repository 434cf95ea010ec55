"""Network delay stage between the access point and the destination.

Every update delivered at the access point is forwarded through its own
independent geometric delay (support {1, 2, ...}, mean 1/k), so updates can
overtake each other.  An update in flight is a ``(source, gen)`` pair: its
source and its generation slot.  At the destination a reception is
*informative* when its generation slot is newer than everything delivered so
far for that source, else *obsolete*.  Receptions landing in the same slot
are processed freshest-first, so at most one of them is informative per
source.
"""
from __future__ import annotations

from .streams import UniformStream

__all__ = ["DelayStage", "DestState", "deliver_due"]


class DelayStage:
    """In-flight ``(source, gen)`` pairs keyed by their destination arrival slot.

    ``k`` is the per-slot forwarding probability, in (0, 1]; ``SimConfig``
    checks it as ``network_k``.
    """

    __slots__ = ("k", "_due")

    def __init__(self, k: float):
        self.k = k
        self._due: dict[int, list[tuple[int, int]]] = {}

    def inject(self, item: tuple[int, int], ap_slot: int, stream: UniformStream) -> int:
        """Launch a ``(source, gen)`` pair at the access point; returns its arrival slot."""
        delay = 1 if self.k >= 1.0 else stream.geometric(self.k)
        arrive = ap_slot + delay
        self._due.setdefault(arrive, []).append(item)
        return arrive

    def due(self, slot: int) -> list[tuple[int, int]]:
        """``(source, gen)`` pairs whose delay expires this slot (unordered)."""
        return self._due.pop(slot, [])


class DestState:
    """Newest generation slot received so far at the destination, per source."""

    __slots__ = ("newest_gen",)

    def __init__(self, n_sources: int):
        self.newest_gen: list[int | None] = [None] * n_sources

    def classify(self, item: tuple[int, int]) -> bool:
        """Record the reception of a ``(source, gen)`` pair; True when it is informative."""
        i, gen = item
        newest = self.newest_gen[i]
        if newest is None or gen > newest:
            self.newest_gen[i] = gen
            return True
        return False


def deliver_due(
    stage: DelayStage, dest: DestState, slot: int
) -> list[tuple[tuple[int, int], bool]]:
    """Process this slot's receptions, freshest generation first per source."""
    items = stage.due(slot)
    if not items:
        return []
    items.sort(key=lambda item: (item[0], -item[1]))
    return [(item, dest.classify(item)) for item in items]
