"""Network delay stage: geometric forwarding, reordering, obsolescence."""
from __future__ import annotations

import numpy as np
import pytest

from aoisim.netdelay import DelayStage, deliver_due
from aoisim.streams import SourceStreams


def stage_of(k: float, n_sources: int = 1, seed: int = 1) -> DelayStage:
    return DelayStage(k, [SourceStreams(seed, i) for i in range(n_sources)])


def inject(stage: DelayStage, *deliveries: tuple[int, int, int]) -> list[int]:
    """Launch ``(source, gen, slot)`` deliveries, sorted by source, then slot.

    Returns their arrival slots."""
    src, gen, slot = np.array(deliveries, np.int64).reshape(-1, 3).T
    return stage.inject(src, gen, slot).tolist()


class TestDelayStage:
    def test_unit_rate_is_one_slot(self) -> None:
        stage = stage_of(1.0)
        assert inject(stage, *((0, slot, slot) for slot in range(20))) == list(range(1, 21))
        for slot in range(1, 5):
            assert deliver_due(stage, slot) != []
        assert deliver_due(stage, 5) == [((0, 4), True)]
        assert deliver_due(stage, 5) == []  # handed out exactly once

    def test_geometric_mean_delay(self) -> None:
        stage = stage_of(0.5, seed=2)
        n = 200_000
        total = sum(inject(stage, *[(0, 0, 0)] * n))
        assert total / n == pytest.approx(2.0, rel=0.01)

    def test_delay_is_at_least_one_slot(self) -> None:
        stage = stage_of(0.9, seed=3)
        assert all(arrive >= 8 for arrive in inject(stage, *[(0, 0, 7)] * 2000))

    def test_earliest_is_the_next_arrival_slot(self) -> None:
        # ``flight`` holds the arrival slots still to come; a reception is
        # handed out by the first call whose slot reaches its arrival slot
        stage = stage_of(1.0, n_sources=2, seed=4)
        assert stage.flight.shape == (3, 0)  # nothing in flight
        inject(stage, (0, 2, 4), (1, 3, 9))
        assert stage.flight[0].min() == 5
        assert deliver_due(stage, 4) == []
        assert deliver_due(stage, 5) == [((0, 2), True)]
        assert stage.flight[0].min() == 10
        assert deliver_due(stage, 12) == [((1, 3), True)]
        assert stage.flight.shape == (3, 0)

    def test_every_reception_due_is_handed_out_in_slot_order(self) -> None:
        stage = stage_of(1.0, n_sources=2, seed=4)
        inject(stage, (0, 6, 7), (1, 1, 2), (1, 4, 5))
        assert deliver_due(stage, 8) == [((1, 1), True), ((1, 4), True), ((0, 6), True)]
        assert stage.received.tolist() == [[0, 1, 1], [6, 1, 4], [8, 3, 6], [1, 1, 1]]


class TestClassification:
    def test_newer_is_informative_older_is_obsolete(self) -> None:
        stage = stage_of(1.0, seed=4)
        inject(stage, *((0, gen, slot) for slot, gen in enumerate((5, 3, 5, 8))))
        assert deliver_due(stage, 1) == [((0, 5), True)]
        assert deliver_due(stage, 2) == [((0, 3), False)]  # overtaken packet lands late
        assert deliver_due(stage, 3) == [((0, 5), False)]  # equal generation is not news
        assert deliver_due(stage, 4) == [((0, 8), True)]
        assert stage.newest_gen.tolist() == [8]

    def test_one_hand_out_classifies_as_slot_by_slot(self) -> None:
        stage = stage_of(1.0, seed=4)
        inject(stage, *((0, gen, slot) for slot, gen in enumerate((5, 3, 5, 8))))
        assert deliver_due(stage, 4) == [
            ((0, 5), True), ((0, 3), False), ((0, 5), False), ((0, 8), True)
        ]
        assert stage.newest_gen.tolist() == [8]

    def test_sources_are_independent(self) -> None:
        stage = stage_of(1.0, n_sources=2, seed=4)
        assert stage.newest_gen.tolist() == [-1, -1]  # nothing received yet
        inject(stage, (0, 9, 0), (1, 1, 0))
        assert deliver_due(stage, 1) == [((0, 9), True), ((1, 1), True)]
        assert stage.newest_gen.tolist() == [9, 1]


class TestDeliverDue:
    def test_same_slot_tie_goes_freshest_first(self) -> None:
        stage = stage_of(1.0, seed=5)
        inject(stage, (0, 4, 0), (0, 7, 0))
        results = deliver_due(stage, 1)
        assert results == [((0, 7), True), ((0, 4), False)]

    def test_empty_slot_returns_nothing(self) -> None:
        stage = stage_of(0.5)
        assert deliver_due(stage, 3) == []

    def test_counts_split_receptions_exactly(self) -> None:
        # deliveries go in and receptions come out a span of 250 slots at a
        # time, as the engine hands them over; the updates still in flight
        # at a span's end come out in a later span, classified as the
        # destination would, slot by slot
        stage = stage_of(0.4, n_sources=2, seed=6)
        n = 5000
        sent, arrive, received = [], [], []
        for start in range(0, n, 250):
            span = [(0, g, g) for g in range(start, start + 250)]
            span += [(1, g, g) for g in range(start, start + 250, 3)]
            sent += span
            arrive += inject(stage, *span)
            received += deliver_due(stage, start + 249)
        received += deliver_due(stage, n + 400)
        newest = [-1, -1]
        expected = []
        for _, i, neg_gen in sorted((a, i, -g) for a, (i, g, _) in zip(arrive, sent)):
            expected.append(((i, -neg_gen), -neg_gen > newest[i]))
            newest[i] = max(newest[i], -neg_gen)
        assert received == expected
        assert not all(fresh for _, fresh in received)  # reordering definitely happened at k=0.4

    def test_unit_rate_never_reorders(self) -> None:
        stage = stage_of(1.0, seed=7)
        inject(stage, *((0, gen, gen) for gen in range(500)))
        fresh = []
        for slot in range(502):
            fresh += [f for _, f in deliver_due(stage, slot)]
        assert fresh == [True] * 500
