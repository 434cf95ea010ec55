"""Network delay stage: geometric forwarding, reordering, obsolescence."""
from __future__ import annotations

import pytest

from aoisim.netdelay import DelayStage, DestState, deliver_due
from aoisim.streams import SourceStreams


def pkt(gen: int, source: int = 0) -> tuple[int, int]:
    """The ``(source, gen)`` pair the engine hands the delay stage."""
    return source, gen


class TestDelayStage:
    def test_unit_rate_is_one_slot(self) -> None:
        stage = DelayStage(1.0)
        stream = SourceStreams(1, 0).delay
        for slot in range(20):
            assert stage.inject(pkt(slot), slot, stream) == slot + 1
        assert stage.due(5) != []
        assert stage.due(5) == []  # popped exactly once

    def test_geometric_mean_delay(self) -> None:
        stage = DelayStage(0.5)
        stream = SourceStreams(2, 0).delay
        n = 200_000
        total = sum(stage.inject(pkt(0), 0, stream) for _ in range(n))
        assert total / n == pytest.approx(2.0, rel=0.01)

    def test_delay_is_at_least_one_slot(self) -> None:
        stage = DelayStage(0.9)
        stream = SourceStreams(3, 0).delay
        assert all(stage.inject(pkt(0), 7, stream) >= 8 for _ in range(2000))


class TestDestState:
    def test_newer_is_informative_older_is_obsolete(self) -> None:
        dest = DestState(1)
        assert dest.classify(pkt(5)) is True
        assert dest.classify(pkt(3)) is False  # overtaken packet lands late
        assert dest.classify(pkt(5)) is False  # equal generation is not news
        assert dest.classify(pkt(8)) is True
        assert dest.newest_gen == [8]

    def test_sources_are_independent(self) -> None:
        dest = DestState(2)
        assert dest.classify(pkt(9, source=0)) is True
        assert dest.classify(pkt(1, source=1)) is True
        assert dest.newest_gen == [9, 1]


class TestDeliverDue:
    def test_same_slot_tie_goes_freshest_first(self) -> None:
        stage = DelayStage(1.0)
        dest = DestState(1)
        stream = SourceStreams(5, 0).delay
        stage.inject(pkt(4), 0, stream)
        stage.inject(pkt(7), 0, stream)
        results = deliver_due(stage, dest, 1)
        assert results == [((0, 7), True), ((0, 4), False)]

    def test_empty_slot_returns_nothing(self) -> None:
        stage = DelayStage(0.5)
        dest = DestState(1)
        assert deliver_due(stage, dest, 3) == []

    def test_counts_split_receptions_exactly(self) -> None:
        stage = DelayStage(0.4)
        dest = DestState(1)
        stream = SourceStreams(6, 0).delay
        n = 5000
        for gen in range(n):
            stage.inject(pkt(gen), gen, stream)
        fresh = []
        for slot in range(n + 200):
            fresh += [f for _, f in deliver_due(stage, dest, slot)]
        assert len(fresh) == n
        assert not all(fresh)  # reordering definitely happened at k=0.4

    def test_unit_rate_never_reorders(self) -> None:
        stage = DelayStage(1.0)
        dest = DestState(1)
        stream = SourceStreams(7, 0).delay
        for gen in range(500):
            stage.inject(pkt(gen), gen, stream)
        fresh = []
        for slot in range(502):
            fresh += [f for _, f in deliver_due(stage, dest, slot)]
        assert fresh == [True] * 500
