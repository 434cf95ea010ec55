"""Per-source queue state machines.

Two disciplines share one interface: an unbounded FIFO buffer, and a
replacement buffer that keeps at most one waiting packet, overwriting it
when a newer update arrives.

Within a slot the engine calls ``begin_attempt`` for granted sources before
any ``on_arrival``, so a packet can never be transmitted in its generation
slot.  When a delivery completes, the successor packet (FIFO head or the
waiting update) is moved into service immediately; an arrival later in the
same slot therefore queues behind it instead of replacing it.  The packet in
service is never preempted or replaced.
"""
from __future__ import annotations

from collections import deque
from enum import Enum

from .errors import ProtocolError

__all__ = ["Discipline", "Packet", "SourceQueue"]


class Discipline(Enum):
    FIFO = "fifo"
    REPLACEMENT = "replacement"


class Packet:
    """One status update: its source, generation slot, and per-source sequence number."""

    __slots__ = ("source_id", "gen_slot", "seq")

    def __init__(self, source_id: int, gen_slot: int, seq: int):
        self.source_id = source_id
        self.gen_slot = gen_slot
        self.seq = seq

    def __repr__(self) -> str:
        return f"Packet(source={self.source_id}, gen={self.gen_slot}, seq={self.seq})"


class SourceQueue:
    """Queue of one source, tracking conservation counters.

    ``generated == delivered + dropped + occupancy()`` holds at every slot
    boundary.
    """

    __slots__ = (
        "discipline",
        "source_id",
        "in_service",
        "_fifo",
        "_waiting",
        "generated",
        "delivered",
        "dropped",
    )

    def __init__(self, discipline: Discipline, source_id: int = 0):
        self.discipline = discipline
        self.source_id = source_id
        self.in_service: Packet | None = None
        self._fifo: deque[Packet] = deque()
        self._waiting: Packet | None = None
        self.generated = 0
        self.delivered = 0
        self.dropped = 0

    def occupancy(self) -> int:
        n = 0 if self.in_service is None else 1
        if self.discipline is Discipline.FIFO:
            return n + len(self._fifo)
        return n + (0 if self._waiting is None else 1)

    def on_arrival(self, packet: Packet) -> None:
        """Admit a fresh update; under replacement this may evict the waiting one."""
        self.generated += 1
        if self.discipline is Discipline.FIFO:
            self._fifo.append(packet)
            return
        if self._waiting is not None:
            self.dropped += 1
        self._waiting = packet

    def begin_attempt(self) -> Packet | None:
        """Packet to transmit in a granted slot, promoting one into service if idle."""
        pkt = self.in_service
        if pkt is not None:
            return pkt
        pkt = self._pop_next()
        self.in_service = pkt
        return pkt

    def on_delivery(self) -> Packet:
        """Complete the in-service packet; its successor enters service at once."""
        pkt = self.in_service
        if pkt is None:
            raise ProtocolError(
                f"source {self.source_id}: delivery signalled with no packet in service"
            )
        self.delivered += 1
        self.in_service = self._pop_next()
        return pkt

    def _pop_next(self) -> Packet | None:
        if self.discipline is Discipline.FIFO:
            return self._fifo.popleft() if self._fifo else None
        pkt = self._waiting
        self._waiting = None
        return pkt
