"""Simulator for N sources sharing a medium.

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

Two implementations compute the queues; which one runs depends only on
the policy and the discipline:

* ``_fifo_round_robin``, FIFO round robin, visits no slot.  A source's
  queue is a Geo/Geo/1 queue in the slots it owns, so its deliveries follow
  Lindley's recursion, computed a span of slots at a time with array
  operations, for all sources at once.
* ``_attempts``, every other policy and discipline, visits only the slots
  in which an update arrives or an attempt is resolved.  It keeps a heap of
  the next attempts: a round robin's or random access's depends only on its
  source's own backlog and draws (a round robin's is drawn ahead to the
  owner's next success), and work conserving's is the next slot's
  ``grant`` while any source is backlogged.

The attempt path hands each queue its events from the span's arrival
calendar in the order of the slot's steps: a slot's ``begin_attempt`` and
delivery before its arrivals.  It calls ``begin_attempt`` at the first
attempt slot of every service (the first owned slot under round robin,
every attempt otherwise) whether or not an update is already in service,
so which update a queue sends is decided in ``SourceQueue`` alone.

Both go a span of slots at a time and share one span accounting, a
``_Run``, which ``run_with_logs`` builds per run and passes to the path.  It
holds the streams, the delay stage, the run's sums and the state carried
from span to span.  ``_Run.arrivals`` draws a span's arrivals, one draw per
slot from every arrival stream at once, and adds their interarrival
moments, and ``_Run.add_span`` takes the span's admitted arrivals and its
deliveries as arrays.  It adds the window's deliveries, admitted arrivals,
occupancy histogram and each delivery's left-empty flag, and passes the
deliveries through the delay stage (it never feeds back into the access
point) and on to the reception sums and the age area at the monitor point.
An arrival that replaces the waiting update is not admitted, so a run's
drops are its arrivals less its admitted ones; under FIFO every arrival is
admitted.  The paths keep no statistics of their own.

Steps 1 and 6 are kept as sums: the occupancy histogram adds the time
spent at each level between a span's arrivals and deliveries, and the age
area is the sum of ``slot + 1`` over the window less, for each reception,
the rise of the newest generation times the window slots from the
reception on.  Both implementations take the same values from every
random stream as a slot-by-slot loop would, so results are the same at
every seed.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from operator import itemgetter

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


# The largest run: its slot arithmetic in int64 (the FIFO round-robin
# kernel's lift, a span's occupancy sort key) reaches about
# 4 * n_sources * horizon, which these caps keep below 2**63
_MAX_SOURCES = 1 << 16
_MAX_HORIZON = 1 << 44


def _check_size(name: str, value: int, top: int) -> None:
    if not (1 <= value <= top):
        raise ConfigError(f"{name} must be in [1, 2**{top.bit_length() - 1}], got {value}")


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
        _check_size("n_sources", self.n_sources, _MAX_SOURCES)
        if len(self.lambdas) != self.n_sources:
            raise ConfigError(
                f"lambdas length {len(self.lambdas)} != n_sources {self.n_sources}"
            )
        for i, lam in enumerate(self.lambdas):
            if not (0.0 <= lam <= 1.0):
                raise ConfigError(f"lambdas[{i}] must be in [0, 1], got {lam}")
        _check_size("horizon", self.horizon, _MAX_HORIZON)
        if not (0 <= self.warmup < self.horizon):
            raise ConfigError(
                f"warmup must be in [0, horizon), got {self.warmup} with horizon {self.horizon}"
            )
        k = self.network_k
        # at k <= 2**-54, 1 - k rounds to 1, and no delay can be drawn
        if k is not None and not (0.0 < k <= 1.0 and 1.0 - k != 1.0):
            raise ConfigError(f"network_k must be in (2**-54, 1], about (5.55e-17, 1], got {k}")
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
    """Sums over one source's receptions at the monitor point in the window.

    The engine adds them with array operations, a span of receptions at a
    time (``_Run._fold``), and builds this record once, at the run's end.  A
    reception at the access point is a delivery, and it left the queue empty
    when nothing was left behind at the end of its slot (arrivals of that
    slot included); a reception at the destination never counts as leaving
    it empty.  Every reception after the window's first closes a gap with
    interarrival gap Y, system time T, inter-reception gap Z and previous
    system time T₋; these are the terms of the age-area decomposition (Kaul,
    Yates & Gruteser, "Real-time status: How often should one update?",
    INFOCOM 2012).  Each sum is an integer, so the statistics derived from
    them are exact up to one final division, and the memory used does not
    grow with the horizon.
    """

    count: int = 0
    t_sum: int = 0
    yt2_sum: int = 0  # sum of 2YT + Y² + Y, twice the age area of each gap
    zt2_sum: int = 0  # sum of 2T₋Z + Z² + Z
    tz_sum: int = 0  # sum of T₋Z
    left_empty: int = 0  # receptions that left the queue empty
    # gaps split by whether the reception that opened them left the queue empty
    after_empty: GapSums = field(default_factory=GapSums)
    after_busy: GapSums = field(default_factory=GapSums)


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


def run_with_logs(config: SimConfig) -> tuple[MetricsReport, list[ReceptionStats]]:
    """Run one simulation, returning metrics and the per-source reception statistics."""
    config.validate()
    run = _Run(config)
    if config.policy.kind is PolicyKind.ROUND_ROBIN and config.discipline is Discipline.FIFO:
        _fifo_round_robin(config, run)
    else:
        _attempts(config, run)
    return run.report()


# From this horizon on, a run adds its terms, each below about
# 3 * horizon**2, as Python integers, since int64 could overflow
_INT64_HORIZON = 1 << 30

# A run's tallies per source, by row.  _Run.arrivals adds the first four:
# the window's arrivals, interarrival count, sum and sum of squares.
# _Run._fold adds the next fifteen: the window's summed newest generation
# at the monitor point, then ReceptionStats' sums, "empty" and "busy" being
# its after_empty and after_busy.  _Run._receive counts the window's
# informative and obsolete delay-stage receptions, and _Run.add_span the
# window's deliveries and admitted arrivals (those that replaced no waiting
# update).
_SUMS = (
    "generated", "y_count", "y_sum", "y2_sum",
    "base_area", "count", "t_sum", "yt2_sum", "zt2_sum", "tz_sum", "left_empty",
    "empty_count", "empty_z_sum", "empty_z2_sum", "empty_t_sum",
    "busy_count", "busy_z_sum", "busy_z2_sum", "busy_t_sum",
    "informative", "obsolete",
    "delivered", "admitted",
)
_ROW = {name: j for j, name in enumerate(_SUMS)}


class _Run:
    """One run's span accounting: its streams, its sums and the state carried from span to span.

    A queue path draws each span's arrivals through ``arrivals`` or
    ``arrival_span`` and hands the span's admitted arrivals and deliveries
    to ``add_span``; ``report`` builds the run's results from the sums.
    """

    def __init__(self, config: SimConfig) -> None:
        n = config.n_sources
        horizon = config.horizon
        self.config = config
        self.streams = [SourceStreams(config.seed, i, horizon) for i in range(n)]
        self.stage = (
            DelayStage(config.network_k, self.streams) if config.network_k is not None else None
        )
        self.measure_dest = (
            self.stage is not None and config.resolved_measure_at() is MeasurePoint.DESTINATION
        )
        self.arriving = [i for i, lam in enumerate(config.lambdas) if lam > 0.0]
        # arrivals are drawn `span` slots at a time: a block, or fewer when
        # the rates add up to more than 1, so that a span expects no more
        # than about _BLOCK arrivals
        self.span = max(1, min(horizon, int(_BLOCK / max(1.0, sum(config.lambdas)))))
        self.sums = np.zeros((len(_SUMS), n), np.int64 if horizon < _INT64_HORIZON else object)
        # each source's window slot starts by occupancy
        self.occupancy: list[defaultdict[int, int]] = [defaultdict(int) for _ in range(n)]
        # carried from span to span, by source: the last arrival slot (-1
        # before the first); the last reception at the monitor point, as
        # rows gen (0 before the first), slot (-1 before the first) and
        # whether it left the queue empty; the occupancy at the span's start
        self.last_arrival = np.full(n, -1, np.int64)
        self.last_rx = np.zeros((3, n), np.int64)
        self.last_rx[1] = -1
        self.occ = np.zeros(n, np.int64)

    def arrivals(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        """The arrivals in the slots ``start <= slot < end``: sources and slots, sorted by source.

        Takes ``end - start`` draws from the arrival stream of every source
        with a positive rate, adds the window's arrivals and interarrival
        moments and moves each source's last arrival on.
        """
        lambdas = self.config.lambdas
        arriving = self.arriving
        hits = [self.streams[i].arrival.take_below(lambdas[i], end - start) for i in arriving]
        if hits:
            a_src = np.repeat(arriving, [len(h) for h in hits])
            a_slot = np.concatenate(hits) + start
        else:
            a_src = a_slot = np.empty(0, np.int64)
        first = _firsts(a_src)
        prev = _previous(a_slot, first, a_src, self.last_arrival)
        last = _lasts(first)
        self.last_arrival[a_src[last]] = a_slot[last]
        in_window = a_slot >= self.config.warmup
        paired = in_window & (prev >= 0)
        y = (a_slot - prev).astype(self.sums.dtype) * paired
        _add_by_source(self.sums[:4], a_src, first, in_window, paired, y, y * y)
        return a_src, a_slot

    def arrival_span(self, start: int) -> tuple[int, np.ndarray, np.ndarray]:
        """The end of the span from ``start``, and its arrivals as ``arrivals`` gives them.

        A span is ``span`` slots; one without arrivals merges into the next,
        but for the last, so a sparse run does not pay for the accounting of
        empty spans.
        """
        horizon = self.config.horizon
        end = start
        while True:
            stop = min(end + self.span, horizon)
            a_src, a_slot = self.arrivals(end, stop)
            end = stop
            if len(a_src) or end == horizon:
                return end, a_src, a_slot

    def add_span(
        self, start: int, end: int, a_src: np.ndarray, a_slot: np.ndarray, delivered: np.ndarray
    ) -> None:
        """Add the statistics of the run's slots ``start <= slot < end``.

        ``a_src`` and ``a_slot`` are the span's admitted arrivals,
        ``delivered`` its deliveries as rows source, gen and slot, each
        sorted by source and, within a source, by slot.  Adds the window's
        deliveries, admitted arrivals and slot starts by occupancy, moves
        each source's occupancy on to the span's end, and passes the
        deliveries, with whether each left its queue empty, to ``_receive``.
        """
        warmup = self.config.warmup
        sums = self.sums
        occ = self.occ
        n = len(occ)
        sources = np.arange(n)
        d_src, d_gen, d_slot = delivered
        sums[_ROW["delivered"]] += np.bincount(d_src[d_slot >= warmup], minlength=n)
        sums[_ROW["admitted"]] += np.bincount(a_src[a_slot >= warmup], minlength=n)

        # occupancy: each source's level from the span's start, +1 at the
        # slot after an arrival, -1 at the slot after a delivery, then back
        # to 0 at the span's end; e_kind orders the events of one slot (the
        # span's start, arrivals, deliveries, the span's end), so the level
        # after a delivery is what it left behind, arrivals of its slot included
        net = np.bincount(a_src, minlength=n) - np.bincount(d_src, minlength=n)
        n_a, n_d = len(a_src), len(d_src)
        e_src = np.concatenate((sources, a_src, d_src, sources))
        e_time = np.concatenate((np.full(n, start), a_slot + 1, d_slot + 1, np.full(n, end)))
        e_kind = np.repeat(np.arange(4), (n, n_a, n_d, n))
        step = np.concatenate((occ, np.ones(n_a, np.int64), np.full(n_d, -1), -occ - net))
        key = (e_src * (end - start + 2) + e_time - start) * 4 + e_kind
        order = np.argsort(key, kind="stable")
        e_src, e_kind = e_src.take(order), e_kind.take(order)
        level = np.cumsum(step.take(order))
        t = np.maximum(e_time.take(order), warmup)
        held = np.zeros_like(t)
        np.subtract(t[1:], t[:-1], out=held[:-1])
        held[e_kind == 3] = 0
        occ += net
        left_empty = level[e_kind == 2] == 0
        kept = held > 0
        if kept.any():
            # a source's levels in a span form a range, so each source
            # counts its slots in its own slice of one bincount
            h_src, h_level, h_slots = np.array((e_src, level, held)).compress(kept, axis=1)
            h_first = _firsts(h_src)
            starts = h_first.nonzero()[0]
            lo = np.minimum.reduceat(h_level, starts)
            width = np.maximum.reduceat(h_level, starts) - lo + 1
            offset = np.cumsum(width) - width
            run = np.cumsum(h_first) - 1
            tally = np.bincount(offset[run] + h_level - lo[run], weights=h_slots)
            seen = tally.nonzero()[0]
            run = np.searchsorted(offset, seen, "right") - 1
            occupancy = self.occupancy
            for i, o, slots in zip(
                h_src[starts[run]].tolist(),
                (lo[run] + seen - offset[run]).tolist(),
                tally[seen].tolist(),
            ):
                occupancy[i][o] += int(slots)

        self._receive(np.array((d_src, d_gen, d_slot, left_empty)), end - 1)

    def _receive(self, delivered: np.ndarray, until: int) -> None:
        """Add a span's deliveries, and what they make the monitor point receive, to the sums.

        ``delivered`` has rows source, gen, slot and left empty, sorted by
        source and, within a source, by slot.  A delay stage takes them and
        hands out its receptions due by slot ``until``, whose informative and
        obsolete ones in the window are counted; the receptions at the
        monitor point, the deliveries or the informative receptions, are
        then folded.
        """
        stage = self.stage
        if stage is not None:
            stage.inject(*delivered[:3])
            deliver_due(stage, until)
            received = stage.received
            r_src, _, r_slot, fresh = received
            in_window = r_slot >= self.config.warmup
            _add_by_source(
                self.sums[_ROW["informative"]:_ROW["obsolete"] + 1], r_src, _firsts(r_src),
                in_window & (fresh == 1), in_window & (fresh == 0),
            )
            if self.measure_dest:
                delivered = received.compress(fresh == 1, axis=1)
                delivered[3] = 0  # a reception at the destination never left the queue empty
        self._fold(delivered)

    def _fold(self, received: np.ndarray) -> None:
        """Add receptions at the monitor point to the reception sums.

        ``received`` has rows source, gen, slot and left empty (1 when the
        reception left the queue empty), sorted by source and, within a
        source, by slot; each reception follows the source's last one,
        which moves on.  A reception outside the window only raises the
        newest generation.
        """
        warmup = self.config.warmup
        r_src = received[0]
        first = _firsts(r_src)
        received = received[1:].astype(self.sums.dtype)
        prev_gen, prev_slot, prev_empty = _previous(received, first, r_src, self.last_rx)
        last = _lasts(first)
        self.last_rx[:, r_src[last]] = received[:, last]
        r_gen, r_slot, left_empty = received
        # the window's receptions are a suffix of each source's, so a gap
        # lies in the window when the reception that opens it does
        in_window = r_slot >= warmup
        paired = prev_slot >= warmup
        after_empty = paired & (prev_empty == 1)
        after_busy = paired & (prev_empty == 0)
        t = r_slot - r_gen
        y = (r_gen - prev_gen) * paired
        z = (r_slot - prev_slot) * paired
        t_prev = prev_slot - prev_gen
        _add_by_source(
            self.sums[4:19], r_src, first,
            # each reception raises the newest generation for the rest of the window
            (r_gen - prev_gen) * (self.config.horizon - np.maximum(r_slot, warmup)),
            in_window, t * in_window, (2 * t + y + 1) * y, (2 * t_prev + z + 1) * z, t_prev * z,
            left_empty * in_window,
            after_empty, z * after_empty, z * z * after_empty, t * after_empty,
            after_busy, z * after_busy, z * z * after_busy, t * after_busy,
        )

    def report(self) -> tuple[MetricsReport, list[ReceptionStats]]:
        """The run's metrics and per-source reception statistics, from its sums."""
        config = self.config
        horizon = config.horizon
        warmup = config.warmup
        window = horizon - warmup
        # the window's ages, were nothing ever received: slot + 1 summed over it
        total_age = (horizon * (horizon + 1) - warmup * (warmup + 1)) // 2
        total = dict(zip(_SUMS, self.sums.tolist()))
        # each source's GapSums fields, after an empty and after a busy queue
        gaps = [
            list(zip(*(total[f"{kind}_{name}"] for name in GapSums.__slots__)))
            for kind in ("empty", "busy")
        ]
        stats = []
        per_source = []
        for i, (in_system, hist) in enumerate(zip(self.occ.tolist(), self.occupancy)):
            rx = ReceptionStats(
                count=total["count"][i],
                t_sum=total["t_sum"][i],
                yt2_sum=total["yt2_sum"][i],
                zt2_sum=total["zt2_sum"][i],
                tz_sum=total["tz_sum"][i],
                left_empty=total["left_empty"][i],
                after_empty=GapSums(*gaps[0][i]),
                after_busy=GapSums(*gaps[1][i]),
            )
            stats.append(rx)
            generated = total["generated"][i]
            delivered = total["delivered"][i]
            dropped = generated - total["admitted"][i]
            y_count = total["y_count"][i]
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
                    avg_aoi=(total_age - total["base_area"][i]) / window,
                    generated=generated,
                    delivered=delivered,
                    dropped=dropped,
                    in_system_at_end=in_system,
                    informative=total["informative"][i],
                    obsolete=total["obsolete"][i],
                    empirical_drop_prob=dropped / generated if generated else 0.0,
                    empirical_effective_rate=delivered / window,
                    occupancy_hist={o: c / window for o, c in sorted(hist.items()) if c},
                    estimator_yt=est_yt,
                    estimator_zt=est_zt,
                    mean_system_time=mean_or_nan(rx.t_sum, rx.count),
                    mean_interarrival=mean_or_nan(total["y_sum"][i], y_count),
                    mean_interarrival_sq=mean_or_nan(total["y2_sum"][i], y_count),
                    stability_warning=(
                        config.discipline is Discipline.FIFO
                        and config.lambdas[i] >= _service_share(config, i) - 1e-12
                    ),
                )
            )
        report = MetricsReport(config=config, window=window, per_source=tuple(per_source))
        return report, stats


def _attempts(config: SimConfig, run: _Run) -> None:
    """Every policy and discipline but FIFO round robin, event slot by event slot.

    Goes a span at a time: merges the span's arrivals by (slot, source) into
    a calendar, and visits the earlier of the next calendar slot and the
    next ``(slot, source)`` attempt on a heap.  A slot resolves its attempts
    first; a round robin's are drawn to succeed.  A source still backlogged
    after its attempt, or whose arrival finds its queue idle, then draws its
    next attempt: under random access the first later slot whose access
    draw is below q, one draw per slot; under round robin the owner's first
    success over the slots it owns, since the failed attempts in between
    change nothing but the draws.  An arrival in or after the first slot of
    that service runs its ``begin_attempt`` first.  Work conserving draws
    nothing: after the slot's arrivals ``grant`` puts the next slot's
    attempt on the heap while any source is backlogged.  The span's admitted
    arrivals and deliveries go to ``run.add_span``.
    """
    n = config.n_sources
    horizon = config.horizon
    streams = run.streams
    round_robin = config.policy.kind is PolicyKind.ROUND_ROBIN
    conserving = config.policy.kind is PolicyKind.WORK_CONSERVING
    access_probs = config.policy.access_probs
    attempt_probs = [config.channel.attempt_prob(i) for i in range(n)]
    collision = config.channel.kind is ChannelKind.COLLISION
    queues = [SourceQueue(config.discipline, i) for i in range(n)]
    # the first attempt slot of a source's scheduled service, until its
    # begin_attempt has run; horizon when there is none
    begins = [horizon] * n
    attempts: list[tuple[int, int]] = []  # heap of (slot, source)
    backlogged = [False] * n  # whether a queue holds an update, under work conserving
    n_backlogged = 0

    def schedule(i: int, after: int) -> None:
        # the next service starts after slot `after`; with no attempt left
        # before the horizon the source is never scheduled again
        if round_robin:
            begin = slot = after + 1 + (i - after - 1) % n  # the next slot i owns
            p = attempt_probs[i]
            if p < 1.0:
                slot += n * streams[i].channel.skip_to_below(p, (horizon - 1 - begin) // n + 1)
        else:
            begin = slot = after + 1 + streams[i].access.skip_to_below(
                access_probs[i], horizon - after - 1
            )
        begins[i] = begin
        if slot < horizon:
            heappush(attempts, (slot, i))

    start = 0
    while start < horizon:
        end, a_src, a_slot = run.arrival_span(start)
        # the calendar: arrivals sorted by source, so a stable sort by slot
        # breaks ties by source; it ends with a sentinel, the span's end
        order = a_slot.argsort(kind="stable")
        cal_slots = a_slot[order].tolist() + [end]
        cal_sources = a_src[order].tolist()
        ci = 0
        replacing: list[int] = []  # calendar indices of arrivals that replaced the waiting update
        sent: list[tuple[int, int, int]] = []  # (source, gen, slot)

        while True:
            slot = cal_slots[ci]
            if attempts and attempts[0][0] < slot:
                slot = attempts[0][0]
            if slot >= end:
                break

            granted = []
            while attempts and attempts[0][0] == slot:
                i = heappop(attempts)[1]
                queues[i].begin_attempt()
                begins[i] = horizon
                granted.append(i)
            if granted:
                delivered = granted if round_robin else resolve(attempt_probs, granted, streams, collision)
                for i in delivered:
                    sent.append((i, queues[i].on_delivery(), slot))
                for i in granted:
                    if queues[i].in_system:
                        if not conserving:
                            schedule(i, slot)
                    elif conserving:
                        backlogged[i] = False
                        n_backlogged -= 1

            while cal_slots[ci] == slot:
                i = cal_sources[ci]
                q = queues[i]
                if begins[i] <= slot:
                    q.begin_attempt()
                    begins[i] = horizon
                idle = not q.in_system
                if not q.on_arrival(slot):
                    replacing.append(ci)
                elif idle:
                    if conserving:
                        backlogged[i] = True
                        n_backlogged += 1
                    else:
                        schedule(i, slot)
                ci += 1

            # the grant reads the backlog at the slot's end, arrivals included
            if conserving and n_backlogged:
                heappush(attempts, (slot + 1, grant(slot + 1, backlogged)[0]))

        # an arrival that replaced the waiting update was not admitted
        at = order[replacing]
        run.add_span(start, end, np.delete(a_src, at), np.delete(a_slot, at), _by_source(sent))
        start = end


def _fifo_round_robin(config: SimConfig, run: _Run) -> None:
    """FIFO round robin: each source's deliveries from one Lindley recursion.

    Source i owns the slots i + n·d; d is the owned index.  Its channel
    stream takes one draw in each owned slot in which it transmits, so its
    k-th service ends with the stream's k-th success, at draw S_k, and has
    spent C_k = S_k + 1 draws by then (C_k = k + 1 when every attempt
    succeeds).  Update k, generated in slot a_k, can first be sent at owned
    index u_k = (a_k - i) // n + 1, so it is delivered at owned index

        d_k = max(u_k, d_{k-1} + 1) + C_k - C_{k-1} - 1
            = C_k + max over j <= k of (u_j - 1 - C_{j-1})

    (Lindley's recursion in owned-slot time), one running maximum, which
    ``np.maximum.accumulate`` takes for all sources at once after lifting
    each source's terms above those of the sources before it.

    The run goes a span of slots at a time: the run's arrival span, or a
    multiple of it while more than a block of updates wait.  A span takes
    every source's arrival draws, and the channel draws that the services ending before
    the span's end can spend, with ``take_below``: the same values a
    slot-by-slot loop draws.  Updates whose service may end later wait for
    a later span.  The span's arrivals and the deliveries before its end
    then go to ``run.add_span``, as on the other path.  The arrays a span
    holds are sorted by source, and carry the source in row 0.
    """
    n = config.n_sources
    horizon = config.horizon
    streams = run.streams
    probs = [config.channel.attempt_prob(i) for i in range(n)]
    failing = np.array([p < 1.0 for p in probs])  # sources whose attempts can fail
    sources = np.arange(n)
    # a source's recursion terms lie in [-horizon - 1, horizon], so adding
    # lift[i] to source i's puts them above those of every source before it
    lift = (2 * horizon + 8) * sources
    none = np.empty((3, 0), np.int64)

    waiting = none  # updates without a delivery slot: source, gen, u
    scheduled = none  # updates delivered at or after the span's start: source, gen, slot
    successes = none[:2]  # channel successes drawn: source, draw
    state = np.zeros((5, n), np.int64)
    (
        spent,  # C of the last update given a slot
        lag,  # that update's owned index minus spent
        drawn,  # channel draws taken
        used,  # leading successes of the source in `successes` spent
        n_waiting,
    ) = state
    lag[:] = -1

    start = 0
    while start < horizon:
        # a span copies the waiting updates once, so it grows with them, to
        # about as many arrivals as they are: the copying stays in proportion
        # to the arrivals, and the memory to the waiting updates
        end = min(start + run.span * max(1, waiting.shape[1] // _BLOCK), horizon)

        a_src, a_slot = run.arrivals(start, end)

        # give delivery slots to the waiting updates whose service can end
        # before `end`: the next service starts at owned index `begin` or
        # later and each takes an owned slot or more, so at most `room` of
        # them do, spending at most `room` channel draws
        if len(a_src):
            waiting = _merge(waiting, np.array((a_src, a_slot, (a_slot - a_src) // n + 1)))
            n_waiting += np.bincount(a_src, minlength=n)
        total_given = 0
        if waiting.shape[1]:
            w_start = np.cumsum(n_waiting) - n_waiting
            u_first = waiting[2].take(np.minimum(w_start, waiting.shape[1] - 1))
            begin = np.maximum(spent + lag + 1, u_first)
            room = np.maximum((end - sources + n - 1) // n - begin, 0)
            n_given = np.minimum(n_waiting, room)
            target = spent + room
            to_draw = (failing & (n_given > 0) & (target > drawn)).nonzero()[0].tolist()
            if to_draw:
                if used.any():
                    s_src = successes[0]
                    n_drawn = np.bincount(s_src, minlength=n)
                    s_rank = np.arange(len(s_src)) - (np.cumsum(n_drawn) - n_drawn)[s_src]
                    successes = successes.compress(s_rank >= used[s_src], axis=1)
                    used[:] = 0
                new = []
                for i in to_draw:
                    k = int(drawn[i])
                    hit = streams[i].channel.take_below(probs[i], int(target[i]) - k)
                    new.append(np.array((np.full(len(hit), i), hit + k)))
                    drawn[i] = target[i]
                successes = _merge(successes, np.concatenate(new, axis=1))
            n_drawn = np.bincount(successes[0], minlength=n)
            n_given = np.where(failing, np.minimum(n_given, n_drawn - used), n_given)
            total_given = int(n_given.sum())
        if total_given:
            # each source's first n_given waiting updates
            g_rank = np.arange(total_given) - np.repeat(np.cumsum(n_given) - n_given, n_given)
            at = np.repeat(w_start, n_given) + g_rank
            g_src, g_gen, g_u = waiting.take(at, axis=1)
            g_spent = spent[g_src] + g_rank + 1
            fail = failing[g_src]
            if fail.any():
                f_src = g_src[fail]
                unspent = np.cumsum(n_drawn) - n_drawn + used  # each source's first unspent success
                g_spent[fail] = successes[1].take(unspent[f_src] + g_rank[fail]) + 1
                used += n_given * failing
            first = g_rank == 0
            v = g_u - 1 - _previous(g_spent, first, g_src, spent)
            v[first] = np.maximum(v[first], lag[g_src[first]])
            g_lag = np.maximum.accumulate(v + lift[g_src]) - lift[g_src]
            last = _lasts(first)
            spent[g_src[last]] = g_spent[last]
            lag[g_src[last]] = g_lag[last]
            delivered = g_src + n * (g_spent + g_lag)
            scheduled = _merge(scheduled, np.array((g_src, g_gen, delivered)))
            keep = np.ones(waiting.shape[1], bool)
            keep[at] = False
            waiting = waiting.compress(keep, axis=1)
            n_waiting -= n_given
        due = scheduled[2] < end
        delivered = scheduled.compress(due, axis=1)
        scheduled = scheduled.compress(~due, axis=1)
        run.add_span(start, end, a_src, a_slot, delivered)
        start = end


def _firsts(src: np.ndarray) -> np.ndarray:
    """Where each source's run starts in ``src``, an array sorted by source."""
    first = np.empty(len(src), bool)
    first[:1] = True
    np.not_equal(src[1:], src[:-1], out=first[1:])
    return first


def _lasts(first: np.ndarray) -> np.ndarray:
    """Where each source's run ends, given where each starts."""
    last = np.empty_like(first)
    last[:-1] = first[1:]
    last[-1:] = True
    return last


def _previous(
    values: np.ndarray, first: np.ndarray, src: np.ndarray, carried: np.ndarray
) -> np.ndarray:
    """Each value's predecessor of the same source, along the last axis.

    A source's first value takes the source's entry of ``carried``.
    """
    prev = np.empty_like(values)
    prev[..., 1:] = values[..., :-1]
    prev[..., first] = carried[..., src[first]]
    return prev


def _add_by_source(
    totals: np.ndarray, src: np.ndarray, first: np.ndarray, *rows: np.ndarray
) -> None:
    """Add row j's values into ``totals[j]``, by source; ``src`` is sorted."""
    if len(src):
        starts = first.nonzero()[0]
        totals[:, src[starts]] += np.add.reduceat(np.array(rows), starts, axis=1)


def _merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The columns of ``a`` and ``b``, each sorted by row 0 (the source), merged by source.

    A source's columns from ``b`` follow its columns from ``a``.
    """
    if not a.shape[1]:
        return b
    return np.insert(a, np.searchsorted(a[0], b[0], "right"), b, axis=1)


def _by_source(sent: list[tuple[int, int, int]]) -> np.ndarray:
    """Deliveries (source, gen, slot) listed in slot order, as rows, sorted by source."""
    return np.array(sorted(sent, key=itemgetter(0)), np.int64).reshape(-1, 3).T


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
