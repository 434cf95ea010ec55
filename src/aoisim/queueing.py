"""Per-source queue state machines.

Two disciplines share one interface: an unbounded FIFO buffer, and a
replacement buffer that keeps at most one waiting update, overwriting it
when a newer update arrives.  A queue belongs to one source, so an update is
just its generation slot.

A caller hands a queue its events in slot order, and within a slot in the
order of the slot's steps: ``begin_attempt`` when the source transmits,
``on_delivery`` when that succeeds, then ``on_arrival``, so an update can
never be transmitted in its generation slot.  Slots in which the source
neither transmits nor gets an update may be skipped.  The engine calls
``begin_attempt`` at the first attempt slot of every service, whether or
not an update is in service, and never moves an update into service
itself: the slot convention lives here alone.  When a delivery completes,
the successor (FIFO head or the waiting update) is moved into service
immediately; an arrival later in the same slot therefore queues behind it
instead of replacing it.  The update in service is never preempted or
replaced.

A queue keeps no counts of its own: ``on_arrival`` returns whether the
update was admitted (False when it replaced the waiting one, which leaves
the occupancy as it was), and ``on_delivery`` returns the update delivered,
so a caller counts arrivals, drops and deliveries from those.
"""
from __future__ import annotations

from collections import deque
from enum import Enum

from .errors import ProtocolError

__all__ = ["Discipline", "SourceQueue"]


class Discipline(Enum):
    FIFO = "fifo"
    REPLACEMENT = "replacement"


class SourceQueue:
    """Queue of one source, holding generation slots.

    ``in_system`` is the occupancy, kept up to date by ``on_arrival`` and
    ``on_delivery``.  Waiting updates sit in ``_waiting``, oldest first;
    under replacement it holds at most one.
    """

    __slots__ = (
        "source_id",
        "in_service",
        "in_system",
        "_waiting",
        "_replace",
    )

    def __init__(self, discipline: Discipline, source_id: int = 0):
        self.source_id = source_id
        self.in_service: int | None = None
        self.in_system = 0
        self._waiting: deque[int] = deque()
        self._replace = discipline is Discipline.REPLACEMENT

    def occupancy(self) -> int:
        return self.in_system

    def on_arrival(self, gen: int) -> bool:
        """Take the update generated in slot ``gen``; False when it replaced the waiting one."""
        waiting = self._waiting
        if waiting and self._replace:
            waiting[0] = gen
            return False
        waiting.append(gen)
        self.in_system += 1
        return True

    def begin_attempt(self) -> int | None:
        """Update to transmit in a granted slot, promoting one into service if idle."""
        gen = self.in_service
        if gen is None and self._waiting:
            gen = self.in_service = self._waiting.popleft()
        return gen

    def on_delivery(self) -> int:
        """Complete the update in service and return its generation slot.

        Its successor enters service at once.
        """
        gen = self.in_service
        if gen is None:
            raise ProtocolError(
                f"source {self.source_id}: delivery signalled with no update in service"
            )
        self.in_system -= 1
        waiting = self._waiting
        self.in_service = waiting.popleft() if waiting else None
        return gen
