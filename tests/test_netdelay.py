"""Network delay stage: geometric forwarding, reordering, obsolescence."""
from __future__ import annotations

import pytest

from aoisim.netdelay import DelayStage, deliver_due
from aoisim.streams import SourceStreams


def pkt(gen: int, source: int = 0) -> tuple[int, int]:
    """The ``(source, gen)`` pair the engine hands the delay stage."""
    return source, gen


class TestDelayStage:
    def test_unit_rate_is_one_slot(self) -> None:
        stage = DelayStage(1.0, 1)
        stream = SourceStreams(1, 0).delay
        for slot in range(20):
            assert stage.inject(pkt(slot), slot, stream) == slot + 1
        for slot in range(1, 5):
            assert deliver_due(stage, slot) != []
        assert deliver_due(stage, 5) == [((0, 4), True)]
        assert deliver_due(stage, 5) == []  # popped exactly once

    def test_geometric_mean_delay(self) -> None:
        stage = DelayStage(0.5, 1)
        stream = SourceStreams(2, 0).delay
        n = 200_000
        total = sum(stage.inject(pkt(0), 0, stream) for _ in range(n))
        assert total / n == pytest.approx(2.0, rel=0.01)

    def test_delay_is_at_least_one_slot(self) -> None:
        stage = DelayStage(0.9, 1)
        stream = SourceStreams(3, 0).delay
        assert all(stage.inject(pkt(0), 7, stream) >= 8 for _ in range(2000))

    def test_earliest_is_the_next_arrival_slot(self) -> None:
        stage = DelayStage(1.0, 2)
        stream = SourceStreams(4, 0).delay
        assert stage.earliest is None  # nothing in flight
        stage.inject(pkt(3, source=1), 9, stream)
        stage.inject(pkt(2, source=0), 4, stream)
        assert stage.earliest == 5
        deliver_due(stage, 5)
        assert stage.earliest == 10
        deliver_due(stage, 10)
        assert stage.earliest is None


class TestClassification:
    def test_newer_is_informative_older_is_obsolete(self) -> None:
        stage = DelayStage(1.0, 1)
        stream = SourceStreams(4, 0).delay
        for slot, gen in enumerate((5, 3, 5, 8)):
            stage.inject(pkt(gen), slot, stream)
        assert deliver_due(stage, 1) == [((0, 5), True)]
        assert deliver_due(stage, 2) == [((0, 3), False)]  # overtaken packet lands late
        assert deliver_due(stage, 3) == [((0, 5), False)]  # equal generation is not news
        assert deliver_due(stage, 4) == [((0, 8), True)]
        assert stage.newest_gen == [8]

    def test_sources_are_independent(self) -> None:
        stage = DelayStage(1.0, 2)
        stream = SourceStreams(4, 0).delay
        assert stage.newest_gen == [-1, -1]  # nothing received yet
        stage.inject(pkt(9, source=0), 0, stream)
        stage.inject(pkt(1, source=1), 0, stream)
        assert deliver_due(stage, 1) == [((0, 9), True), ((1, 1), True)]
        assert stage.newest_gen == [9, 1]


class TestDeliverDue:
    def test_same_slot_tie_goes_freshest_first(self) -> None:
        stage = DelayStage(1.0, 1)
        stream = SourceStreams(5, 0).delay
        stage.inject(pkt(4), 0, stream)
        stage.inject(pkt(7), 0, stream)
        results = deliver_due(stage, 1)
        assert results == [((0, 7), True), ((0, 4), False)]

    def test_empty_slot_returns_nothing(self) -> None:
        stage = DelayStage(0.5, 1)
        assert deliver_due(stage, 3) == []

    def test_counts_split_receptions_exactly(self) -> None:
        stage = DelayStage(0.4, 1)
        stream = SourceStreams(6, 0).delay
        n = 5000
        for gen in range(n):
            stage.inject(pkt(gen), gen, stream)
        fresh = []
        for slot in range(n + 200):
            fresh += [f for _, f in deliver_due(stage, slot)]
        assert len(fresh) == n
        assert not all(fresh)  # reordering definitely happened at k=0.4

    def test_unit_rate_never_reorders(self) -> None:
        stage = DelayStage(1.0, 1)
        stream = SourceStreams(7, 0).delay
        for gen in range(500):
            stage.inject(pkt(gen), gen, stream)
        fresh = []
        for slot in range(502):
            fresh += [f for _, f in deliver_due(stage, slot)]
        assert fresh == [True] * 500
