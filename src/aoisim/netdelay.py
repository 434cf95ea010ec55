"""Network delay stage between the access point and the destination.

Every packet delivered at the access point is forwarded through its own
independent geometric delay (support {1, 2, ...}, mean 1/k), so packets can
overtake each other.  At the destination a reception is *informative* when
its generation slot is newer than everything delivered so far for that
source, else *obsolete*.  Receptions landing in the same slot are processed
freshest-first, so at most one of them is informative per source.
"""
from __future__ import annotations

from .errors import DomainError
from .queueing import Packet
from .streams import UniformStream

__all__ = ["DelayStage", "DestState", "deliver_due"]


class DelayStage:
    """In-flight packets keyed by their destination arrival slot."""

    __slots__ = ("k", "_due")

    def __init__(self, k: float):
        if not (0.0 < k <= 1.0):
            raise DomainError(f"delay parameter k must be in (0, 1], got {k}")
        self.k = k
        self._due: dict[int, list[Packet]] = {}

    def inject(self, packet: Packet, ap_slot: int, stream: UniformStream) -> int:
        """Launch a packet at the access point; returns its arrival slot."""
        delay = 1 if self.k >= 1.0 else stream.geometric(self.k)
        arrive = ap_slot + delay
        self._due.setdefault(arrive, []).append(packet)
        return arrive

    def due(self, slot: int) -> list[Packet]:
        """Packets whose delay expires this slot (unordered)."""
        return self._due.pop(slot, [])


class DestState:
    """Newest generation slot received so far at the destination, per source."""

    __slots__ = ("newest_gen",)

    def __init__(self, n_sources: int):
        self.newest_gen: list[int | None] = [None] * n_sources

    def classify(self, packet: Packet) -> bool:
        """Record one reception; True when it is informative."""
        i = packet.source_id
        newest = self.newest_gen[i]
        if newest is None or packet.gen_slot > newest:
            self.newest_gen[i] = packet.gen_slot
            return True
        return False


def deliver_due(
    stage: DelayStage, dest: DestState, slot: int
) -> list[tuple[Packet, bool]]:
    """Process this slot's receptions, freshest generation first per source."""
    pkts = stage.due(slot)
    if not pkts:
        return []
    pkts.sort(key=lambda p: (p.source_id, -p.gen_slot))
    return [(p, dest.classify(p)) for p in pkts]
