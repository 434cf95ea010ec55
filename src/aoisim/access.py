"""Medium access policies and channel models.

A policy turns (slot, set of backlogged sources) into the set of sources
allowed to transmit; a channel turns the set of actual transmitters into the
set of successful deliveries.  Both are stateless given the configuration,
the slot index, and the per-source random streams.

Round robin and random access grant each source on its own, so the engine
computes when a backlogged source next transmits without visiting the slots
in between: the next slot the source owns, or its first access draw below
its access probability.  Work conserving depends on the whole backlog, so
while a source is backlogged ``grant`` names the next slot's transmitter
from the backlog at the end of each slot, and the engine puts that attempt
on the same heap of next attempts.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import ConfigError
from .streams import SourceStreams

__all__ = [
    "PolicyKind",
    "PolicyConfig",
    "ChannelKind",
    "ChannelConfig",
    "grant",
    "resolve",
]


class PolicyKind(Enum):
    ROUND_ROBIN = "round_robin"
    WORK_CONSERVING = "work_conserving"
    RANDOM_ACCESS = "random_access"


class ChannelKind(Enum):
    PERFECT = "perfect"
    ERASURE = "erasure"
    COLLISION = "collision"


@dataclass(frozen=True)
class PolicyConfig:
    """Access policy selection plus the per-source attempt probabilities it needs.

    ``access_probs`` is required for RANDOM_ACCESS and must be absent
    otherwise.  Scheduled policies grant exactly one source per slot:
    ROUND_ROBIN grants ``slot mod n`` whether or not that source has a
    packet; WORK_CONSERVING starts from ``slot mod n`` and advances
    cyclically to the first backlogged source, so it never wastes a slot and
    degenerates to plain round-robin when every source is backlogged.
    """

    kind: PolicyKind
    access_probs: tuple[float, ...] | None = None

    def validate(self, n_sources: int) -> None:
        if self.kind is PolicyKind.RANDOM_ACCESS:
            if self.access_probs is None:
                raise ConfigError("random_access policy requires access_probs")
            if len(self.access_probs) != n_sources:
                raise ConfigError(
                    f"access_probs length {len(self.access_probs)} != n_sources {n_sources}"
                )
            for i, q in enumerate(self.access_probs):
                if not (0.0 < q <= 1.0):
                    raise ConfigError(f"access_probs[{i}] must be in (0, 1], got {q}")
        elif self.access_probs is not None:
            raise ConfigError(f"{self.kind.value} policy takes no access_probs")


@dataclass(frozen=True)
class ChannelConfig:
    """Channel model with per-source service and erasure probabilities.

    ``service_probs`` is the per-attempt success of the transmitter's own
    link (geometric service); ``success_probs`` an independent per-attempt
    erasure survival.  A scheduled attempt succeeds with their product.  The
    COLLISION channel instead succeeds exactly when a single source
    transmits; per-source thinning is applied on top only when
    ``collision_thinning`` is set.
    """

    kind: ChannelKind
    service_probs: tuple[float, ...] | None = None
    success_probs: tuple[float, ...] | None = None
    collision_thinning: bool = False

    def validate(self, n_sources: int) -> None:
        for name, probs in (
            ("service_probs", self.service_probs),
            ("success_probs", self.success_probs),
        ):
            if probs is None:
                continue
            if len(probs) != n_sources:
                raise ConfigError(
                    f"{name} length {len(probs)} != n_sources {n_sources}"
                )
            for i, v in enumerate(probs):
                if not (0.0 < v <= 1.0):
                    raise ConfigError(f"{name}[{i}] must be in (0, 1], got {v}")
        if self.kind is ChannelKind.PERFECT:
            if self.service_probs is not None or self.success_probs is not None:
                raise ConfigError("perfect channel takes no per-source probabilities")
        if self.collision_thinning and self.kind is not ChannelKind.COLLISION:
            raise ConfigError("collision_thinning only applies to the collision channel")

    def attempt_prob(self, source_id: int) -> float:
        """Per-attempt success of a lone transmitter on this channel."""
        if self.kind is ChannelKind.COLLISION and not self.collision_thinning:
            return 1.0
        p = 1.0
        if self.service_probs is not None:
            p *= self.service_probs[source_id]
        if self.success_probs is not None:
            p *= self.success_probs[source_id]
        return p


def grant(slot: int, backlogged: Sequence[int]) -> list[int]:
    """Work conserving: the first backlogged source from ``slot mod n`` on, cyclically.

    ``backlogged[i]`` is source i's occupancy at the start of the slot, or
    any value that is truthy when it is backlogged.  Returns that one source
    in a list, or an empty list when no source is backlogged.
    """
    n = len(backlogged)
    start = slot % n
    for j in range(n):
        i = start + j
        if i >= n:
            i -= n
        if backlogged[i]:
            return [i]
    return []


def resolve(
    probs: Sequence[float],
    transmitters: Sequence[int],
    streams: Sequence[SourceStreams],
    collision: bool,
) -> list[int]:
    """Transmitters whose packet is delivered this slot, ascending order.

    ``probs[i]`` is ``ChannelConfig.attempt_prob(i)`` and ``collision`` says
    whether the channel is a collision channel; a run computes both once.  A
    collision channel delivers nothing unless exactly one source transmits.
    Each remaining transmitter succeeds with its probability, taking a channel
    draw only when that is below 1.
    """
    if collision and len(transmitters) != 1:
        return []
    successes = []
    for t in transmitters:
        p = probs[t]
        if p >= 1.0 or streams[t].channel.uniform() < p:
            successes.append(t)
    return successes
