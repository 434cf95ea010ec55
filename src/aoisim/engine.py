"""Event-driven simulator for N sources sharing a medium.

Time is slotted.  Within each slot, events happen in a fixed order:

1. occupancy is sampled (slot-start state, the state arrivals will "see");
2. the access policy grants the slot from the slot-start backlog;
3. granted sources transmit and the channel resolves successes;
4. delivered packets leave their queue and either reach the monitor point or
   enter the network delay stage; delay-stage packets due this slot are
   classified at the destination;
5. Bernoulli arrivals are admitted (so a packet is never transmitted in its
   generation slot);
6. each source's age is sampled as ``slot - newest_gen + 1``, or
   ``slot + 1`` while nothing has been received.

The average age reported for a run is the per-slot mean of those samples.

The engine only visits event slots: slots with an arrival, a delay-stage
reception, a grant to a backlogged source under work conserving or random
access, or a round robin's successful attempt.  Each event slot runs the six
steps above in the same order, touching only the sources involved; nothing
changes in the slots between them.

Arrivals do not depend on the system state, and a source's arrival stream
takes one draw per slot, so the engine takes the draws of a whole block of
slots from every arrival stream at once and merges the arrival slots by
(slot, source) into the arrival calendar.  Each kind of pending event has
one owner: arrivals are on the calendar, grants on the engine's heap of
``(slot, source)`` events, and receptions on the delay stage's heap; the
next event slot is the earliest of the three.

Under round robin only a slot's owner transmits and the channel draws are
its own, so when an update enters service (its source becomes backlogged,
or a delivery leaves a successor) the engine draws the owner's channel
stream ahead over the slots it owns up to the first success, and schedules
only that slot; the failed attempts in between change nothing but the
draws.  An update that waits for its first owned slot enters service at the
source's first visit at or after that slot, so that a newer arrival before
it still replaces it under packet management.

Steps 1 and 6 are kept as running sums: the occupancy histogram adds the
time spent in each state when the state changes, and the age area adds the
arithmetic series ``slot - newest_gen + 1`` between receptions.  Every
random stream is drawn in the same order as a slot-by-slot loop would draw
it, so results are the same at every seed.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush

import numpy as np

from .access import (
    ChannelConfig,
    ChannelKind,
    PolicyConfig,
    PolicyKind,
    grant,
    resolve,
)
from .analytic import QueueParams
from .errors import ConfigError
from .netdelay import DelayStage, deliver_due
from .queueing import Discipline, SourceQueue
from .streams import _BLOCK, SourceStreams

__all__ = [
    "MeasurePoint",
    "SimConfig",
    "GapSums",
    "ReceptionStats",
    "SourceMetrics",
    "MetricsReport",
    "mean_or_nan",
    "run",
    "run_with_logs",
    "dedicated_channel_run",
]

_NAN = float("nan")


class MeasurePoint(Enum):
    AP = "ap"
    DESTINATION = "destination"


@dataclass(frozen=True)
class SimConfig:
    """Full description of one run; two equal configs give identical results.

    ``lambdas`` may include the boundary rates 0 (silent source) and 1
    (an update every slot).  ``measure_at`` defaults to the destination when
    the delay stage is enabled and to the access point otherwise; without a
    delay stage the two coincide.
    """

    n_sources: int
    lambdas: tuple[float, ...]
    discipline: Discipline
    policy: PolicyConfig
    channel: ChannelConfig
    network_k: float | None = None
    horizon: int = 1_000_000
    seed: int = 0
    measure_at: MeasurePoint | None = None
    warmup: int = 0

    def validate(self) -> None:
        if self.n_sources < 1:
            raise ConfigError(f"n_sources must be >= 1, got {self.n_sources}")
        if len(self.lambdas) != self.n_sources:
            raise ConfigError(
                f"lambdas length {len(self.lambdas)} != n_sources {self.n_sources}"
            )
        for i, lam in enumerate(self.lambdas):
            if not (0.0 <= lam <= 1.0):
                raise ConfigError(f"lambdas[{i}] must be in [0, 1], got {lam}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if not (0 <= self.warmup < self.horizon):
            raise ConfigError(
                f"warmup must be in [0, horizon), got {self.warmup} with horizon {self.horizon}"
            )
        if self.network_k is not None and not (0.0 < self.network_k <= 1.0):
            raise ConfigError(f"network_k must be in (0, 1], got {self.network_k}")
        self.policy.validate(self.n_sources)
        self.channel.validate(self.n_sources)

    def resolved_measure_at(self) -> MeasurePoint:
        if self.measure_at is not None:
            return self.measure_at
        return MeasurePoint.DESTINATION if self.network_k is not None else MeasurePoint.AP


@dataclass(slots=True)
class GapSums:
    """Sums over the inter-reception gaps Z that share one condition."""

    count: int = 0
    z_sum: int = 0
    z2_sum: int = 0
    t_sum: int = 0  # system time of the reception that closes each gap


@dataclass(slots=True)
class ReceptionStats:
    """Running sums over one source's receptions at the monitor point.

    The engine calls ``add`` for every reception in the window, in order.
    At the access point it then calls ``mark_left_empty`` when that delivery
    left the source queue empty at the end of its slot (arrivals of that slot
    included); receptions at the destination are never marked.  Every
    reception after the first closes a gap with interarrival gap Y, system
    time T, inter-reception gap Z and previous system time T₋; these are the
    terms of the age-area decomposition (Kaul, Yates & Gruteser, "Real-time
    status: How often should one update?", INFOCOM 2012).  Each sum is an
    integer, so the statistics derived from them are exact up to one final
    division, and the memory used does not grow with the horizon.
    """

    count: int = 0
    t_sum: int = 0
    yt2_sum: int = 0  # sum of 2YT + Y² + Y, twice the age area of each gap
    zt2_sum: int = 0  # sum of 2T₋Z + Z² + Z
    tz_sum: int = 0  # sum of T₋Z
    left_empty: int = 0  # receptions marked by mark_left_empty
    # gaps split by whether the reception that opened them left the queue empty
    after_empty: GapSums = field(default_factory=GapSums)
    after_busy: GapSums = field(default_factory=GapSums)
    last_gen: int = 0
    last_recv: int = 0
    last_left_empty: bool = False

    def add(self, gen: int, recv: int) -> None:
        t = recv - gen
        if self.count:
            last_gen = self.last_gen
            last_recv = self.last_recv
            y = gen - last_gen
            z = recv - last_recv
            t_prev = last_recv - last_gen
            self.yt2_sum += (2 * t + y + 1) * y
            self.zt2_sum += (2 * t_prev + z + 1) * z
            self.tz_sum += t_prev * z
            gaps = self.after_empty if self.last_left_empty else self.after_busy
            gaps.count += 1
            gaps.z_sum += z
            gaps.z2_sum += z * z
            gaps.t_sum += t
        self.count += 1
        self.t_sum += t
        self.last_gen = gen
        self.last_recv = recv
        self.last_left_empty = False

    def mark_left_empty(self) -> None:
        """The latest reception left the source queue empty."""
        self.left_empty += 1
        self.last_left_empty = True


def mean_or_nan(total: int, count: int) -> float:
    """``total / count``, or NaN when there is nothing to average."""
    return total / count if count else _NAN


@dataclass(frozen=True)
class SourceMetrics:
    """Per-source results of one run (window excludes warm-up slots).

    ``generated``, ``delivered`` and ``dropped`` count the window only, while
    ``in_system_at_end`` counts every packet queued at the horizon, warm-up
    arrivals included.  So ``generated == delivered + dropped +
    in_system_at_end`` holds only without warm-up; with it, the left side
    gains the occupancy at the warm-up boundary.
    """

    source_id: int
    avg_aoi: float
    generated: int
    delivered: int
    dropped: int
    in_system_at_end: int
    informative: int
    obsolete: int
    empirical_drop_prob: float
    empirical_effective_rate: float
    occupancy_hist: dict[int, float]
    estimator_yt: float
    estimator_zt: float
    mean_system_time: float
    mean_interarrival: float
    mean_interarrival_sq: float
    stability_warning: bool


@dataclass(frozen=True)
class MetricsReport:
    """Results of one run, per source, plus the configuration that produced it."""

    config: SimConfig
    window: int
    per_source: tuple[SourceMetrics, ...]


def _service_share(config: SimConfig, i: int) -> float:
    """Heuristic per-source service capacity used for the stability flag."""
    n = config.n_sources
    att = config.channel.attempt_prob(i)
    if config.policy.kind is PolicyKind.RANDOM_ACCESS:
        qs = config.policy.access_probs
        assert qs is not None
        return qs[i] * att / n
    return att / n


def _window_sum(lo: int, hi: int, base: int) -> int:
    """Sum of ``slot - base + 1`` over the slots ``lo <= slot < hi``."""
    k = hi - lo
    return k * (lo + hi - 1) // 2 - k * (base - 1)


def run_with_logs(config: SimConfig) -> tuple[MetricsReport, list[ReceptionStats]]:
    """Run one simulation, returning metrics and the per-source reception statistics."""
    config.validate()
    n = config.n_sources
    lambdas = config.lambdas
    horizon = config.horizon
    warmup = config.warmup
    window = horizon - warmup
    policy = config.policy
    channel = config.channel
    per_slot_grant = policy.kind is PolicyKind.WORK_CONSERVING
    round_robin = policy.kind is PolicyKind.ROUND_ROBIN
    access_probs = policy.access_probs
    attempt_probs = [channel.attempt_prob(i) for i in range(n)]
    collision = channel.kind is ChannelKind.COLLISION

    queues = [SourceQueue(config.discipline, i) for i in range(n)]
    streams = [SourceStreams(config.seed, i, horizon) for i in range(n)]

    stage = DelayStage(config.network_k, n) if config.network_k is not None else None
    measure_dest = stage is not None and config.resolved_measure_at() is MeasurePoint.DESTINATION

    stats = [ReceptionStats() for _ in range(n)]
    # Step 6 lazily: the age is slot - base + 1, with base 0 until something
    # is received.  age_area holds the window's ages before slot age_from.
    base = [0] * n
    age_from = [warmup] * n
    age_area = [0] * n
    # Step 1 lazily: occ is the occupancy every slot start from occ_from on
    # sees; occ_slots[i][o] counts the window's slot starts that saw o.
    occ = [0] * n
    occ_from = [warmup] * n
    occ_slots: list[defaultdict[int, int]] = [defaultdict(int) for _ in range(n)]
    # work conserving is granted slot by slot from the occupancies; the
    # other policies hold one pending grant event per backlogged source,
    # and a round-robin source keeps its mark when no success is left
    # before the horizon, so that it is never scheduled again
    n_backlogged = 0
    grant_pending = [False] * n
    # a round-robin update waiting for its first owned slot: that slot,
    # until a visit at or after it moves the update into service
    promote_at = [horizon] * n
    last_gen = [-1] * n
    y_sum = [0] * n
    y2_sum = [0] * n
    y_count = [0] * n
    informative = [0] * n
    obsolete = [0] * n
    counts_at_warmup: list[tuple[int, int, int]] | None = None

    # the arrival calendar covers `span` slots at a time: a block, or fewer
    # when the rates add up to more than 1, so that it expects no more than
    # about _BLOCK arrivals
    arriving = [i for i, lam in enumerate(lambdas) if lam > 0.0]
    span = max(1, min(horizon, int(_BLOCK / max(1.0, sum(lambdas)))))

    def calendar(start: int) -> tuple[list[int], list[int], int]:
        """Arrival slots and sources from ``start`` on, and the slot they end at.

        The arrivals are merged by (slot, source).  A calendar without one
        is skipped unless it is the last.  Both lists end with a sentinel:
        the end slot and source -1.
        """
        while True:
            end = min(start + span, horizon)
            hits = [streams[i].arrival.take_below(lambdas[i], end - start) for i in arriving]
            if len(hits) == 1:
                slots = (hits[0] + start).tolist()
                sources = [arriving[0]] * len(slots)
            elif hits:
                merged = np.concatenate(hits) + start
                owners = np.repeat(arriving, [len(h) for h in hits])
                order = np.lexsort((owners, merged))
                slots = merged[order].tolist()
                sources = owners[order].tolist()
            else:
                slots = sources = []
            if slots or end == horizon:
                return slots + [end], sources + [-1], end
            start = end

    # the next arrival is cal_slots[ci], or the horizon when none is left
    cal_slots, cal_sources, cal_end = calendar(0)
    ci = 0
    # grant events: (slot, source), a round robin's already known to succeed
    grants: list[tuple[int, int]] = []

    slot = -1
    due = False  # a delay-stage reception is due this slot
    while True:
        if per_slot_grant and n_backlogged:
            slot += 1
        else:
            slot = cal_slots[ci]
            if grants and grants[0][0] < slot:
                slot = grants[0][0]
        if stage is not None:
            due_at = stage.earliest
            if due_at is not None and due_at < slot:
                slot = due_at
            due = due_at == slot
        if slot >= horizon:
            break
        rec = slot >= warmup
        if counts_at_warmup is None and rec:
            # no event lies between the warm-up boundary and this slot
            counts_at_warmup = [(q.generated, q.delivered, q.dropped) for q in queues]

        if per_slot_grant:
            granted = grant(slot, occ)
        else:
            granted = []
            while grants and grants[0][0] == slot:
                i = heappop(grants)[1]
                granted.append(i)
                grant_pending[i] = False

        # every granted source is backlogged, so each one transmits
        received: list[tuple[int, int]] = []  # (source, gen) reaching the monitor point
        if granted:
            for i in granted:
                queues[i].begin_attempt()
                promote_at[i] = horizon
            if round_robin:
                # the owner's success, drawn when its update entered service
                delivered = granted
            else:
                delivered = resolve(attempt_probs, granted, streams, collision)
            for i in delivered:
                gen = queues[i].on_delivery()
                if stage is not None:
                    stage.inject((i, gen), slot, streams[i].delay)
                if not measure_dest:
                    received.append((i, gen))

        if due:
            for (i, gen), fresh in deliver_due(stage, slot):
                if rec:
                    if fresh:
                        informative[i] += 1
                    else:
                        obsolete[i] += 1
                if fresh and measure_dest:
                    received.append((i, gen))

        for i, gen in received:
            if gen > base[i]:
                lo = age_from[i]
                if slot > lo:
                    age_area[i] += _window_sum(lo, slot, base[i])
                    age_from[i] = slot
                base[i] = gen
            if rec:
                stats[i].add(gen, slot)

        first = ci
        while cal_slots[ci] == slot:
            i = cal_sources[ci]
            ci += 1
            q = queues[i]
            if slot >= promote_at[i]:
                q.begin_attempt()
                promote_at[i] = horizon
            q.on_arrival(slot)
            prev = last_gen[i]
            if rec and prev >= 0:
                y = slot - prev
                y_sum[i] += y
                y2_sum[i] += y * y
                y_count[i] += 1
            last_gen[i] = slot
        if ci > first:
            visits = granted + cal_sources[first:ci]
            if cal_slots[ci] == cal_end and cal_end < horizon:
                cal_slots, cal_sources, cal_end = calendar(cal_end)
                ci = 0
        else:
            visits = granted

        # the next slot starts: record occupancy changes and schedule grants
        # (a source both granted and arriving is visited twice; the second
        # visit changes nothing)
        mark_empty = rec and not measure_dest
        for i in visits:
            o = queues[i].in_system
            if o != occ[i]:
                lo = occ_from[i]
                if slot >= lo:
                    occ_slots[i][occ[i]] += slot + 1 - lo
                    occ_from[i] = slot + 1
                if per_slot_grant and not (o and occ[i]):
                    n_backlogged += 1 if o else -1
                occ[i] = o
                if not o and mark_empty:
                    # only a delivery empties a queue: it left nothing
                    # behind, arrivals of this slot included
                    stats[i].mark_left_empty()
            if o and not per_slot_grant and not grant_pending[i]:
                grant_pending[i] = True
                if round_robin:
                    # an update enters service: draw ahead over the slots
                    # the owner has left, from the next one, to the first
                    # success; with none left nxt passes the horizon, and
                    # the mark stays
                    nxt = slot + 1 + (i - slot - 1) % n  # the next slot i owns
                    if queues[i].in_service is None:
                        promote_at[i] = nxt  # the update waits for that slot
                    p = attempt_probs[i]
                    if p < 1.0:
                        left = (horizon - 1 - nxt) // n + 1
                        nxt += n * streams[i].channel.skip_to_below(p, left)
                else:
                    # random access: one access draw per backlogged slot
                    nxt = slot + 1 + streams[i].access.skip_to_below(
                        access_probs[i], horizon - slot - 1
                    )
                if nxt < horizon:
                    heappush(grants, (nxt, i))

    if counts_at_warmup is None:
        counts_at_warmup = [(q.generated, q.delivered, q.dropped) for q in queues]

    per_source = []
    for i in range(n):
        q = queues[i]
        base_generated, base_delivered, base_dropped = counts_at_warmup[i]
        generated = q.generated - base_generated
        delivered = q.delivered - base_delivered
        dropped = q.dropped - base_dropped
        avg_aoi = (age_area[i] + _window_sum(age_from[i], horizon, base[i])) / window
        hist = occ_slots[i]
        hist[occ[i]] += horizon - occ_from[i]
        rx = stats[i]
        if rx.count >= 2:
            # both estimates scale the mean age area per gap by the
            # empirical reception rate
            rate = rx.count / window
            k = rx.count - 1
            est_yt = rate * (rx.yt2_sum / 2) / k
            est_zt = rate * (rx.zt2_sum / 2) / k
        else:
            est_yt = est_zt = _NAN
        per_source.append(
            SourceMetrics(
                source_id=i,
                avg_aoi=avg_aoi,
                generated=generated,
                delivered=delivered,
                dropped=dropped,
                in_system_at_end=q.occupancy(),
                informative=informative[i],
                obsolete=obsolete[i],
                empirical_drop_prob=dropped / generated if generated else 0.0,
                empirical_effective_rate=delivered / window,
                occupancy_hist={o: c / window for o, c in sorted(hist.items()) if c},
                estimator_yt=est_yt,
                estimator_zt=est_zt,
                mean_system_time=mean_or_nan(rx.t_sum, rx.count),
                mean_interarrival=mean_or_nan(y_sum[i], y_count[i]),
                mean_interarrival_sq=mean_or_nan(y2_sum[i], y_count[i]),
                stability_warning=(
                    config.discipline is Discipline.FIFO
                    and lambdas[i] >= _service_share(config, i) - 1e-12
                ),
            )
        )
    report = MetricsReport(config=config, window=window, per_source=tuple(per_source))
    return report, stats


def run(config: SimConfig) -> MetricsReport:
    """Run one simulation and return its metrics."""
    return run_with_logs(config)[0]


def dedicated_channel_run(
    params: QueueParams,
    discipline: Discipline,
    horizon: int = 1_000_000,
    seed: int = 0,
) -> MetricsReport:
    """Single source granted every slot, per-attempt success ``params.mu``."""
    config = SimConfig(
        n_sources=1,
        lambdas=(params.lam,),
        discipline=discipline,
        policy=PolicyConfig(PolicyKind.ROUND_ROBIN),
        channel=ChannelConfig(ChannelKind.ERASURE, service_probs=(params.mu,)),
        horizon=horizon,
        seed=seed,
    )
    return run(config)
