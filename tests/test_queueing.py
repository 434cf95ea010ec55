"""State-machine tests for the per-source queues.

The long-run drives at the bottom mirror the engine's intra-slot order
(attempt, resolve, then arrivals) and check the sampled occupancy against
the stationary closed forms.
"""
from __future__ import annotations

import random
from collections import Counter

import pytest

from aoisim.analytic import QueueParams, geo_values, replacement_values
from aoisim.errors import ProtocolError
from aoisim.queueing import Discipline, SourceQueue

DRIVE_SLOTS = 200_000
OCC_TOL = 0.01  # Monte Carlo tolerance on stationary occupancy fractions


class TestFifo:
    def test_serves_in_arrival_order(self) -> None:
        q = SourceQueue(Discipline.FIFO)
        for gen in (1, 2, 3):
            assert q.on_arrival(gen)  # admitted: nothing dropped
        assert q.in_system == 3
        assert q.begin_attempt() == 1
        assert q.on_delivery() == 1
        assert q.begin_attempt() == 2
        assert q.on_delivery() == 2
        assert q.begin_attempt() == 3

    def test_never_drops(self) -> None:
        q = SourceQueue(Discipline.FIFO)
        assert all(q.on_arrival(j) for j in range(50))
        assert q.occupancy() == 50

    def test_successor_enters_service_on_delivery(self) -> None:
        q = SourceQueue(Discipline.FIFO)
        q.on_arrival(1)
        q.on_arrival(2)
        q.begin_attempt()
        q.on_delivery()
        # 2 is already in service, so a same-slot arrival queues behind it
        assert q.in_service == 2
        q.on_arrival(3)
        assert q.begin_attempt() == 2
        q.on_delivery()
        assert q.in_service == 3

    def test_attempt_is_idempotent_within_a_slot(self) -> None:
        q = SourceQueue(Discipline.FIFO)
        q.on_arrival(1)
        assert q.begin_attempt() == 1
        assert q.begin_attempt() == 1

    def test_attempt_on_empty_returns_none(self) -> None:
        q = SourceQueue(Discipline.FIFO)
        assert q.begin_attempt() is None
        assert q.begin_attempt() is None
        assert q.occupancy() == 0


class TestReplacement:
    def test_waiting_packet_is_replaced(self) -> None:
        q = SourceQueue(Discipline.REPLACEMENT)
        q.on_arrival(1)
        assert q.begin_attempt() == 1
        assert q.on_arrival(2)
        assert not q.on_arrival(3)  # replaces 2, which is dropped
        assert q.occupancy() == 2
        assert q.on_delivery() == 1
        # the surviving waiting update is promoted at the delivery instant
        assert q.in_service == 3

    def test_in_service_packet_is_never_replaced(self) -> None:
        q = SourceQueue(Discipline.REPLACEMENT)
        q.on_arrival(1)
        q.begin_attempt()
        q.on_arrival(2)
        assert q.in_service == 1
        assert q.occupancy() == 2

    def test_occupancy_capped_at_two(self) -> None:
        q = SourceQueue(Discipline.REPLACEMENT)
        q.on_arrival(1)
        q.begin_attempt()
        admitted = [q.on_arrival(j) for j in range(2, 12)]
        assert q.occupancy() == 2
        assert admitted.count(False) == 9

    def test_same_slot_arrival_waits_behind_promoted(self) -> None:
        q = SourceQueue(Discipline.REPLACEMENT)
        q.on_arrival(1)
        q.begin_attempt()
        q.on_arrival(2)
        q.on_delivery()
        assert q.in_service == 2
        # same slot as the delivery: waits, replaces nothing in service
        assert q.on_arrival(3)
        assert q.occupancy() == 2


class TestProtocol:
    @pytest.mark.parametrize("discipline", list(Discipline))
    def test_delivery_without_service_raises(self, discipline: Discipline) -> None:
        q = SourceQueue(discipline)
        with pytest.raises(ProtocolError):
            q.on_delivery()
        q.on_arrival(1)
        with pytest.raises(ProtocolError):
            q.on_delivery()  # arrived but never promoted by begin_attempt

    @pytest.mark.parametrize("discipline", list(Discipline))
    def test_conservation_under_random_drive(self, discipline: Discipline) -> None:
        # the queue keeps no counts, so the drive counts from its return values
        rng = random.Random(7)
        q = SourceQueue(discipline)
        generated = delivered = dropped = 0

        def conserved() -> bool:
            return q.in_system == generated - delivered - dropped

        for slot in range(5000):
            p = q.begin_attempt()
            assert conserved()
            if p is not None and rng.random() < 0.6:
                assert q.on_delivery() == p
                delivered += 1
                assert conserved()
            if rng.random() < 0.4:
                generated += 1
                if not q.on_arrival(slot):
                    dropped += 1
                assert conserved()
        assert generated == delivered + dropped + q.occupancy()
        if discipline is Discipline.FIFO:
            assert dropped == 0


def drive(discipline: Discipline, lam: float, mu: float, seed: int) -> Counter:
    """Slot loop in engine order, sampling occupancy at slot start."""
    rng = random.Random(seed)
    q = SourceQueue(discipline)
    counts: Counter = Counter()
    for slot in range(DRIVE_SLOTS):
        counts[q.occupancy()] += 1
        if q.begin_attempt() is not None and rng.random() < mu:
            q.on_delivery()
        if rng.random() < lam:
            q.on_arrival(slot)
    return counts


class TestStationaryOccupancy:
    def test_fifo_matches_closed_form(self) -> None:
        lam, mu = 0.2, 0.5
        counts = drive(Discipline.FIFO, lam, mu, seed=11)
        st = geo_values(QueueParams(lam, mu))
        pis = [st["pi0"], st["pi1"], st["pi2"], st["utilization"] ** 2 * st["pi1"]]
        for n in range(4):
            assert counts[n] / DRIVE_SLOTS == pytest.approx(pis[n], abs=OCC_TOL)

    def test_replacement_matches_closed_form(self) -> None:
        lam, mu = 0.2, 0.5
        counts = drive(Discipline.REPLACEMENT, lam, mu, seed=12)
        st = replacement_values(QueueParams(lam, mu))
        for n in range(3):
            assert counts[n] / DRIVE_SLOTS == pytest.approx(st[f"pi{n}"], abs=OCC_TOL)
        assert max(counts) <= 2

    def test_arrivals_see_slot_start_state(self) -> None:
        # Bernoulli arrivals are independent of the state, so the state
        # sampled on arrival slots must match the all-slots distribution.
        lam, mu = 0.3, 0.6
        rng = random.Random(13)
        q = SourceQueue(Discipline.FIFO)
        seen_all: Counter = Counter()
        seen_by_arrivals: Counter = Counter()
        for slot in range(DRIVE_SLOTS):
            state = q.occupancy()
            seen_all[state] += 1
            if q.begin_attempt() is not None and rng.random() < mu:
                q.on_delivery()
            if rng.random() < lam:
                seen_by_arrivals[state] += 1
                q.on_arrival(slot)
        arrivals = sum(seen_by_arrivals.values())
        for n in range(3):
            assert seen_by_arrivals[n] / arrivals == pytest.approx(
                seen_all[n] / DRIVE_SLOTS, abs=OCC_TOL
            )
