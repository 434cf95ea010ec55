"""Access policy grants and channel resolution."""
from __future__ import annotations

import math

import pytest

from aoisim.access import (
    ChannelConfig,
    ChannelKind,
    PolicyConfig,
    PolicyKind,
    grant,
    resolve,
)
from aoisim.errors import ConfigError
from aoisim.streams import SourceStreams
from reference_engine import random_access_grant


def streams_for(n: int, seed: int = 5) -> list[SourceStreams]:
    return [SourceStreams(seed, i) for i in range(n)]


def resolve_on(
    channel: ChannelConfig, transmitters: list[int], ss: list[SourceStreams]
) -> list[int]:
    """``resolve`` with the per-run constants the engine computes from ``channel``."""
    probs = [channel.attempt_prob(i) for i in range(len(ss))]
    return resolve(probs, transmitters, ss, channel.kind is ChannelKind.COLLISION)


class TestWorkConserving:
    def test_skips_to_first_backlogged(self) -> None:
        assert grant(0, [False, False, True, False]) == [2]
        assert grant(1, [False, False, True, False]) == [2]
        assert grant(3, [True, False, True, False]) == [0]  # wraps past 3

    def test_idles_only_when_everything_is_empty(self) -> None:
        assert grant(4, [False, False, False]) == []

    def test_reads_occupancies_as_backlog(self) -> None:
        # the engine passes the slot-start occupancies
        assert grant(0, [0, 0, 3, 0]) == [2]
        assert grant(3, [1, 0, 2, 0]) == [0]
        assert grant(2, [0, 0, 0]) == []

    def test_equals_round_robin_under_full_backlog(self) -> None:
        full = [True] * 5
        for slot in range(25):
            assert grant(slot, full) == [slot % 5]

    def test_never_grants_an_empty_source(self) -> None:
        backlog = [False, True, False, True]
        for slot in range(40):
            granted = grant(slot, backlog)
            assert len(granted) == 1 and backlog[granted[0]]


class TestRandomAccess:
    """The reference loop's slot-wise rule; the engine's rule is checked against it."""

    def test_only_backlogged_sources_transmit(self) -> None:
        ss = streams_for(3)
        assert random_access_grant((1.0, 1.0, 1.0), [True, False, True], ss) == [0, 2]

    def test_single_transmitter_frequency(self) -> None:
        # two backlogged sources, q each: P{exactly one transmits} = 2q(1-q)
        q = 0.3
        ss = streams_for(2, seed=17)
        slots = 60_000
        singles = sum(
            1 for _ in range(slots) if len(random_access_grant((q, q), [True, True], ss)) == 1
        )
        expect = 2 * q * (1 - q)
        se = math.sqrt(expect * (1 - expect) / slots)
        assert abs(singles / slots - expect) < 3 * se


class TestPolicyValidation:
    def test_random_access_requires_probs(self) -> None:
        with pytest.raises(ConfigError):
            PolicyConfig(PolicyKind.RANDOM_ACCESS).validate(2)

    def test_scheduled_policies_take_no_probs(self) -> None:
        with pytest.raises(ConfigError):
            PolicyConfig(PolicyKind.ROUND_ROBIN, access_probs=(0.5,)).validate(1)

    def test_prob_range_and_length(self) -> None:
        with pytest.raises(ConfigError):
            PolicyConfig(PolicyKind.RANDOM_ACCESS, access_probs=(0.5,)).validate(2)
        with pytest.raises(ConfigError):
            PolicyConfig(PolicyKind.RANDOM_ACCESS, access_probs=(0.0, 0.5)).validate(2)


class TestCollisionChannel:
    def test_exactly_one_transmitter_succeeds(self) -> None:
        channel = ChannelConfig(ChannelKind.COLLISION)
        ss = streams_for(3)
        assert resolve_on(channel, [1], ss) == [1]
        assert resolve_on(channel, [0, 2], ss) == []
        assert resolve_on(channel, [0, 1, 2], ss) == []
        assert resolve_on(channel, [], ss) == []

    def test_certain_access_always_collides(self) -> None:
        # with access probability 1 every backlogged source transmits
        channel = ChannelConfig(ChannelKind.COLLISION)
        ss = streams_for(2)
        for _ in range(20):
            assert resolve_on(channel, [0, 1], ss) == []

    def test_thinning_applies_per_source_success(self) -> None:
        channel = ChannelConfig(
            ChannelKind.COLLISION, service_probs=(0.4, 0.4), collision_thinning=True
        )
        ss = streams_for(2, seed=23)
        slots = 40_000
        wins = sum(1 for _ in range(slots) if resolve_on(channel, [0], ss) == [0])
        se = math.sqrt(0.4 * 0.6 / slots)
        assert abs(wins / slots - 0.4) < 3 * se


class TestErasureChannel:
    def test_perfect_passes_everyone(self) -> None:
        channel = ChannelConfig(ChannelKind.PERFECT)
        ss = streams_for(3)
        assert resolve_on(channel, [0, 1, 2], ss) == [0, 1, 2]

    def test_per_source_success_rate(self) -> None:
        channel = ChannelConfig(ChannelKind.ERASURE, service_probs=(0.7, 0.2))
        ss = streams_for(2, seed=29)
        slots = 40_000
        wins = [0, 0]
        for _ in range(slots):
            for i in resolve_on(channel, [0, 1], ss):
                wins[i] += 1
        for i, p in enumerate((0.7, 0.2)):
            se = math.sqrt(p * (1 - p) / slots)
            assert abs(wins[i] / slots - p) < 3 * se

    def test_certain_link_never_draws(self) -> None:
        # p = 1 must not consume randomness, so adding a certain link does
        # not perturb the draws of other consumers
        channel = ChannelConfig(ChannelKind.ERASURE, service_probs=(1.0,))
        ss = streams_for(1)
        before = ss[0].channel.uniform()
        assert resolve_on(channel, [0], ss) == [0]
        after = ss[0].channel.uniform()
        ss2 = streams_for(1)
        assert before == ss2[0].channel.uniform()
        assert after == ss2[0].channel.uniform()


class TestChannelValidation:
    def test_perfect_takes_no_probs(self) -> None:
        with pytest.raises(ConfigError):
            ChannelConfig(ChannelKind.PERFECT, service_probs=(0.5,)).validate(1)

    def test_thinning_only_for_collision(self) -> None:
        with pytest.raises(ConfigError):
            ChannelConfig(
                ChannelKind.ERASURE, service_probs=(0.5,), collision_thinning=True
            ).validate(1)

    def test_prob_length_and_range(self) -> None:
        with pytest.raises(ConfigError):
            ChannelConfig(ChannelKind.ERASURE, service_probs=(0.5,)).validate(2)
        with pytest.raises(ConfigError):
            ChannelConfig(ChannelKind.ERASURE, service_probs=(0.0, 0.5)).validate(2)

    def test_attempt_prob_is_the_product(self) -> None:
        channel = ChannelConfig(
            ChannelKind.ERASURE, service_probs=(0.5, 0.8), success_probs=(0.9, 0.25)
        )
        assert channel.attempt_prob(0) == pytest.approx(0.45)
        assert channel.attempt_prob(1) == pytest.approx(0.2)

    def test_collision_without_thinning_ignores_link_probs(self) -> None:
        # a lone transmitter on an unthinned collision channel always succeeds
        channel = ChannelConfig(ChannelKind.COLLISION, service_probs=(0.5,))
        assert channel.attempt_prob(0) == 1.0
        thinned = ChannelConfig(ChannelKind.COLLISION, service_probs=(0.5,), collision_thinning=True)
        assert thinned.attempt_prob(0) == 0.5
        ss = streams_for(1)
        assert resolve_on(channel, [0], ss) == [0]
        assert ss[0].channel.uniform() == streams_for(1)[0].channel.uniform()
