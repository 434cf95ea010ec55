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

Three implementations compute the queues; which one runs depends only on
the policy, the discipline and, under round robin, the number of sources:

* ``_fifo_round_robin``, FIFO round robin, visits no slot.  A source's
  queue is a Geo/Geo/1 queue in the slots it owns, so its deliveries follow
  Lindley's recursion, computed a span of slots at a time with array
  operations, for all sources at once.
* ``_one_source_round_robin``, round robin of one source under packet
  management, visits only the slots in which an update arrives or the
  source's one scheduled attempt succeeds, with no heap.
* ``_attempts``, every other config (round robin of two or more sources
  under packet management, work conserving and random access), visits the
  same slots for every source.  It keeps a heap of the next attempts: a
  round robin's or random access's depends only on its source's own
  backlog and draws (a round robin's is drawn ahead to the owner's next
  success), and work conserving's is the next slot's ``grant`` while any
  source is backlogged.

The last two hand each queue its events from the span's arrival calendar
in the order of the slot's steps: a slot's ``begin_attempt`` and delivery
before its arrivals.  They call ``begin_attempt`` at the first attempt
slot of every service (the first owned slot under round robin, every
attempt otherwise) whether or not an update is already in service, so
which update a queue sends is decided in ``SourceQueue`` alone.  Both read
a source's attempts from tables of the positions below p of its draws,
which ``_refill`` fills.

Every path goes a span of slots at a time and shares one span accounting, a
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
admitted.  The paths keep no statistics of their own.  The sums are one
table, a row per name in ``_SUMS`` and a column per source, which
``run_with_logs`` returns by name; ``_Run.report`` computes each metric
from it as a column over the sources.

Steps 1 and 6 are kept as sums, with work in proportion to a span's
events rather than to N.  For the occupancy histogram a span merges its
admitted arrivals (+1 from the next slot) with its deliveries (-1 from the
next slot), both already sorted by source and slot; at each event a
source adds the window slots since its previous one at the level it held,
and the run's last span adds each source's last level up to the horizon.
The age area is the sum of ``slot + 1`` over the window less, for each
reception, the rise of the newest generation times the window slots from
the reception on; it and the reception sums are written as rows of one
array per span of receptions and added by source at once.  Every path
takes the same values from every random stream as a slot-by-slot loop
would, so results are the same at every seed.
"""
from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from itertools import chain
from operator import sub

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
from .streams import _BLOCK, Role, run_streams

__all__ = [
    "MeasurePoint",
    "SimConfig",
    "SourceMetrics",
    "MetricsReport",
    "mean_or_nan",
    "run",
    "run_with_logs",
    "dedicated_channel_run",
]

_NAN = float("nan")
_NONE = np.empty(0, np.int64)


class MeasurePoint(Enum):
    AP = "ap"
    DESTINATION = "destination"


# The largest run: its slot arithmetic in int64 (the FIFO round-robin
# kernel's lift, a span's event keys) reaches about 2 * n_sources *
# horizon, which these caps keep below 2**63
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


def run_with_logs(config: SimConfig) -> tuple[MetricsReport, dict[str, list[int]]]:
    """Run one simulation, returning its metrics and its sums by name, one int per source.

    The sums count the window only.  ``generated``, ``delivered`` and
    ``admitted`` count arrivals, deliveries and the arrivals that replaced
    no waiting update; ``y_count``, ``y_sum`` and ``y2_sum`` the
    interarrival gaps and their moments; ``informative`` and ``obsolete``
    the delay stage's receptions.  The rest sum over the receptions at the
    monitor point: ``base_area`` the rise of the newest generation times
    the window slots from the reception on (the age area is the window's
    ``slot + 1`` summed, less it).
    A reception at the access point is a delivery, and it left the queue
    empty when nothing was left behind at the end of its slot (arrivals of
    that slot included); a reception at the destination never does.  Every
    reception after the window's first closes a gap with interarrival gap
    Y, system time T, inter-reception gap Z and previous system time T₋,
    the terms of the age-area decomposition (Kaul, Yates & Gruteser,
    "Real-time status: How often should one update?", INFOCOM 2012):
    ``count`` and ``t_sum`` count the receptions and sum T, ``yt2_sum`` sums
    2YT + Y² + Y (twice each gap's age area), ``zt2_sum`` 2T₋Z + Z² + Z,
    ``tz_sum`` T₋Z and ``left_empty`` counts the receptions that left the
    queue empty.  ``empty_count``, ``empty_z_sum``, ``empty_z2_sum`` and
    ``empty_t_sum`` count the gaps opened by such a reception and sum their
    Z, Z² and closing T; the ``busy_`` four do so for the other gaps.  Each
    sum is an integer, so what is derived from them is exact up to one
    final division, and their memory does not grow with the horizon.

    FIFO round robin runs on ``_fifo_round_robin``, round robin of one
    source under packet management on ``_one_source_round_robin``, and
    every other config on ``_attempts``; the three give the same run.
    """
    config.validate()
    run = _Run(config)
    round_robin = config.policy.kind is PolicyKind.ROUND_ROBIN
    if round_robin and config.discipline is Discipline.FIFO:
        _fifo_round_robin(config, run)
    elif round_robin and config.n_sources == 1:
        _one_source_round_robin(config, run)
    else:
        _attempts(config, run)
    return run.report()


# From this horizon on, a run adds its terms, each below about
# 3 * horizon**2, as Python integers, since int64 could overflow
_INT64_HORIZON = 1 << 30

# Each stream buffers a block of draws between spans, so a run's streams of
# one role share about this many values (16 MB), in blocks of at least the
# floor; runs of up to 128 sources keep whole blocks
_STREAM_BUDGET = 1 << 21
_MIN_STREAM_BLOCK = 1 << 8

# A run's tallies per source, by row.  _Run.arrivals adds the first four:
# the window's arrivals, interarrival count, sum and sum of squares.
# _Run._fold adds the next fifteen: the window's age area term and the
# reception sums, "empty" and "busy" the gaps after an empty and a busy
# queue (run_with_logs names them all).  _Run._receive counts the window's
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
        # draws each stream buffers
        self.block = block = min(_BLOCK, max(_MIN_STREAM_BLOCK, _STREAM_BUDGET // n))
        # the roles a source can draw: only a source with arrivals transmits
        shared = [Role.ACCESS] * (config.policy.kind is PolicyKind.RANDOM_ACCESS)
        shared += [Role.DELAY] * (config.network_k is not None)
        roles = [
            [Role.ARRIVAL, *[Role.CHANNEL] * (config.channel.attempt_prob(i) < 1.0), *shared]
            if lam > 0.0 else []
            for i, lam in enumerate(config.lambdas)
        ]
        self.streams = run_streams(config.seed, horizon, block, roles)
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
        # whether it left the queue empty; the occupancy after the last
        # event, and the first window slot at it not yet in ``occupancy``
        self.last_arrival = np.full(n, -1, np.int64)
        self.last_rx = np.zeros((3, n), np.int64)
        self.last_rx[1] = -1
        self.occ = np.zeros(n, np.int64)
        self.since = np.full(n, config.warmup, np.int64)

    def arrivals(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray, tuple]:
        """The arrivals in the slots ``start <= slot < end``, sorted by source.

        Returns their sources, their slots and their runs by source
        (``_runs``).  Takes ``end - start`` draws from the arrival stream of
        every source with a positive rate, adds the window's arrivals and
        interarrival moments and moves each source's last arrival on.
        """
        lambdas = self.config.lambdas
        hits = [self.streams[i].arrival.take_below(lambdas[i], end - start) for i in self.arriving]
        counts = [len(h) for h in hits]
        if not any(counts):
            return _NONE, _NONE, (_NONE, _NONE)
        a_src = np.repeat(self.arriving, counts)
        a_slot = np.concatenate(hits) + start
        runs = starts, ends = _runs(a_src)
        prev = _previous(a_slot, starts, a_src, self.last_arrival)
        self.last_arrival[a_src[ends]] = a_slot[ends]
        in_window = a_slot >= self.config.warmup
        paired = in_window & (prev >= 0)
        y = (a_slot - prev).astype(self.sums.dtype) * paired
        _add_by_source(self.sums[:4], a_src, starts, np.array((in_window, paired, y, y * y)))
        return a_src, a_slot, runs

    def arrival_span(self, start: int) -> tuple[int, np.ndarray, np.ndarray, tuple]:
        """The end of the span from ``start``, and its arrivals as ``arrivals`` gives them.

        A span is ``span`` slots; one without arrivals merges into the next,
        but for the last, so a sparse run does not pay for the accounting of
        empty spans.
        """
        horizon = self.config.horizon
        end = start
        while True:
            stop = min(end + self.span, horizon)
            a_src, a_slot, runs = self.arrivals(end, stop)
            end = stop
            if len(a_src) or end == horizon:
                return end, a_src, a_slot, runs

    def add_span(
        self, end: int, a_src: np.ndarray, a_slot: np.ndarray, delivered: np.ndarray
    ) -> None:
        """Add the statistics of the run's slots up to ``end``, the end of a span.

        ``a_src`` and ``a_slot`` are the span's admitted arrivals,
        ``delivered`` its deliveries as rows source, gen and slot, each
        sorted by source and, within a source, by slot.  Adds the window's
        deliveries, admitted arrivals and slot starts by occupancy, and
        passes the deliveries, with whether each left its queue empty, to
        ``_receive``.  A source's slots at one occupancy are added at the
        event that ends them, or at the horizon, in the run's last span.
        """
        warmup = self.config.warmup
        occ = self.occ
        since = self.since
        d_src, d_gen, d_slot = delivered
        n_a = len(a_src)
        left_empty = _NONE
        if n_a or len(d_src):
            # the events by source and slot, a slot's arrivals first, so the
            # level after a delivery is what it left behind, arrivals of its
            # slot included; both runs are sorted, so the stable sort merges them
            keys = np.concatenate((a_src * end + a_slot, d_src * end + d_slot))
            order = keys.argsort(kind="stable")
            e_src = np.concatenate((a_src, d_src)).take(order)
            t = np.concatenate((a_slot, d_slot)).take(order)  # the event's slot
            is_d = order >= n_a
            step = is_d * -2 + 1  # +1 for an arrival, -1 for a delivery
            starts, ends = _runs(e_src)
            g_src = e_src[starts]
            # each event's index among the span's sources
            group = np.repeat(np.arange(len(starts)), ends - starts + 1)
            counted = np.array((is_d, ~is_d)) & (t >= warmup)
            self.sums[_ROW["delivered"]:_ROW["admitted"] + 1, g_src] += np.add.reduceat(
                counted, starts, axis=1
            )
            # each source's level after each event, from its level before the first
            level = step.cumsum()
            level += (occ[g_src] - level[starts] + step[starts])[group]
            left_empty = level.compress(is_d) == 0
            occ[g_src] = level[ends]
            level -= step
            # the window's slots from a source's previous event on, at the
            # level before the event; an event in slot s changes the level
            # from slot s + 1 on
            np.maximum(t, warmup - 1, out=t)
            held = np.empty_like(t)
            np.subtract(t[1:], t[:-1], out=held[1:])
            held[starts] = t[starts] + 1 - since[g_src]
            since[g_src] = t[ends] + 1
            # a source's levels form a range, so each source counts its
            # slots in its own slice of one bincount
            lo = np.minimum.reduceat(level, starts)
            width = np.maximum.reduceat(level, starts) - lo + 1
            offset = np.cumsum(width) - width
            tally = np.bincount((offset - lo)[group] + level, weights=held)
            seen = tally.nonzero()[0]
            group = np.searchsorted(offset, seen, "right") - 1
            self._tally(g_src[group], lo[group] + seen - offset[group], tally[seen])
        if end == self.config.horizon:
            # each source's last level, from its last event to the horizon
            self._tally(np.arange(len(occ)), occ, end - since)
        self._receive(np.array((d_src, d_gen, d_slot, left_empty)), end - 1)

    def _tally(self, src: np.ndarray, level: np.ndarray, slots: np.ndarray) -> None:
        """Add ``slots[j]`` slot starts at occupancy ``level[j]`` to source ``src[j]``."""
        occupancy = self.occupancy
        for i, o, k in zip(src.tolist(), level.tolist(), slots.tolist()):
            if k:
                occupancy[i][o] += int(k)

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
                self.sums[_ROW["informative"]:_ROW["obsolete"] + 1], r_src, _runs(r_src)[0],
                np.array((in_window & (fresh == 1), in_window & (fresh == 0))),
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
        r_src = received[0]
        if not len(r_src):
            return
        warmup = self.config.warmup
        starts, ends = _runs(r_src)
        gen, slot, left_empty = rx = received[1:].astype(self.sums.dtype, copy=False)
        prev_gen, prev_slot, prev_empty = _previous(rx, starts, r_src, self.last_rx)
        self.last_rx[:, r_src[ends]] = received[1:, ends]
        # rows as in _SUMS from "base_area": the last four, the gaps after a
        # busy queue, first hold the sums of every gap, from which the four
        # before them, those after an empty queue, are taken out once added
        # by source
        terms = np.empty((15, len(r_src)), rx.dtype)
        base, count, t_sum, yt2, zt2, tz, empty_left, *_, paired, z, z2, t_paired = terms
        # the window's receptions are a suffix of each source's, so a gap
        # lies in the window when the reception that opens it does
        np.greater_equal(slot, warmup, out=count)
        np.greater_equal(prev_slot, warmup, out=paired)
        # each reception raises the newest generation for the rest of the window
        y = gen - prev_gen
        np.maximum(slot, warmup, out=base)
        np.subtract(self.config.horizon, base, out=base)
        base *= y
        y *= paired
        np.subtract(slot, prev_slot, out=z)
        z *= paired
        np.subtract(slot, gen, out=t_sum)  # T
        np.subtract(prev_slot, prev_gen, out=tz)  # T₋
        # 2YT + Y² + Y and 2T₋Z + Z² + Z
        np.multiply(t_sum, 2, out=yt2)
        yt2 += y
        yt2 += 1
        yt2 *= y
        np.multiply(tz, 2, out=zt2)
        zt2 += z
        zt2 += 1
        zt2 *= z
        tz *= z
        np.multiply(z, z, out=z2)
        np.multiply(t_sum, paired, out=t_paired)
        t_sum *= count
        np.multiply(left_empty, count, out=empty_left)
        np.multiply(terms[11:], paired * prev_empty, out=terms[7:11])
        added = np.add.reduceat(terms, starts, axis=1)
        added[11:] -= added[7:11]
        self.sums[4:19, r_src[starts]] += added

    def report(self) -> tuple[MetricsReport, dict[str, list[int]]]:
        """The run's metrics, and its sums by ``_SUMS`` name, one Python int per source.

        Each metric is computed as a column over the sources from the sums
        as Python ints, so every quotient is correctly rounded.
        """
        config = self.config
        horizon = config.horizon
        warmup = config.warmup
        window = horizon - warmup
        # the window's ages, were nothing ever received: slot + 1 summed over it
        total_age = (horizon * (horizon + 1) - warmup * (warmup + 1)) // 2
        sums = dict(zip(_SUMS, self.sums.tolist()))
        count = sums["count"]
        generated = sums["generated"]
        delivered = sums["delivered"]
        dropped = list(map(sub, generated, sums["admitted"]))
        y_count = sums["y_count"]
        fifo = config.discipline is Discipline.FIFO
        # the columns in the order of SourceMetrics' fields
        per_source = tuple(map(
            SourceMetrics,
            range(config.n_sources),
            [(total_age - area) / window for area in sums["base_area"]],
            generated,
            delivered,
            dropped,
            self.occ.tolist(),
            sums["informative"],
            sums["obsolete"],
            [d / g if g else 0.0 for d, g in zip(dropped, generated)],
            [d / window for d in delivered],
            [{o: c / window for o, c in sorted(hist.items()) if c} for hist in self.occupancy],
            [_estimate(area, k, window) for area, k in zip(sums["yt2_sum"], count)],
            [_estimate(area, k, window) for area, k in zip(sums["zt2_sum"], count)],
            list(map(mean_or_nan, sums["t_sum"], count)),
            list(map(mean_or_nan, sums["y_sum"], y_count)),
            list(map(mean_or_nan, sums["y2_sum"], y_count)),
            [
                fifo and lam >= _service_share(config, i) - 1e-12
                for i, lam in enumerate(config.lambdas)
            ],
        ))
        return MetricsReport(config=config, window=window, per_source=per_source), sums


def _estimate(area2: int, count: int, window: int) -> float:
    """An age estimate from twice the age area of a source's gaps: NaN below two receptions.

    The mean age area per gap, scaled by the empirical reception rate.
    """
    return count / window * (area2 / 2) / (count - 1) if count >= 2 else _NAN


def _attempts(config: SimConfig, run: _Run) -> None:
    """Every config but FIFO round robin and one-source round robin, event slot by event slot.

    Goes a span at a time: merges the span's arrivals by (slot, source) into
    a calendar, and visits the earlier of the next calendar slot and the
    next ``(slot, source)`` attempt on a heap.  A slot resolves its attempts
    first.  A source still backlogged after its attempt, or whose arrival
    finds its queue idle, then draws its next attempt from one stream:
    under random access the first later slot whose access draw is below q,
    one draw per slot; under round robin the owner's first channel success
    over the slots it owns, since the failed attempts in between change
    nothing but the draws.  So a round robin's attempt, at most one a slot,
    always succeeds, and is delivered as it is popped.  An arrival in or
    after the first slot of that service runs its ``begin_attempt`` first.
    Work conserving draws nothing: after the slot's arrivals ``grant`` puts
    the next slot's attempt on the heap while any source is backlogged.
    The span's admitted arrivals and deliveries go to ``run.add_span``.

    A source reads the positions below p of that stream's draws from a
    table that ``_refill`` fills a run block at a time, never past the
    draws the source may take; a service that starts after ``used`` draws
    and ends at position s attempts s - used attempt slots after its start.
    """
    n = config.n_sources
    horizon = config.horizon
    streams = run.streams
    block = run.block
    round_robin = config.policy.kind is PolicyKind.ROUND_ROBIN
    conserving = config.policy.kind is PolicyKind.WORK_CONSERVING
    attempt_probs = [config.channel.attempt_prob(i) for i in range(n)]
    collision = config.channel.kind is ChannelKind.COLLISION
    queues = [SourceQueue(config.discipline, i) for i in range(n)]
    # the first attempt slot of a source's scheduled service, until its
    # begin_attempt has run; horizon when there is none
    begins = [horizon] * n
    attempts: list[tuple[int, int]] = []  # heap of (slot, source)
    backlogged = [False] * n  # whether a queue holds an update, under work conserving
    n_backlogged = 0
    # the stream that decides a source's attempts, by p: the channel's
    # under round robin (none where p is 1), the access stream's under
    # random access; its attempt slots are `stride` apart, and it may take
    # `most` draws
    if round_robin:
        probs, stride = attempt_probs, n
        most = [(horizon - i + n - 1) // n for i in range(n)]
    else:
        probs, stride, most = config.policy.access_probs, 1, [horizon] * n
    drawing = [not round_robin or p < 1.0 for p in attempt_probs]
    # each source's positions below p in one block of its draws, last first
    tables = [array("q")] * n
    used = [0] * n  # draws its services have taken
    drawn = [0] * n  # draws taken into its tables

    def schedule(i: int, after: int) -> None:
        # the next service starts after slot `after`, under round robin in
        # the next slot i owns; with no attempt left before the horizon the
        # source is never scheduled again
        begin = slot = after + 1 + (i - after - 1) % stride
        if drawing[i]:
            table = tables[i]
            if not table:
                stream = streams[i].channel if round_robin else streams[i].access
                table, drawn[i] = _refill(stream, probs[i], drawn[i], most[i], block, used[i])
                tables[i] = table
            s = table.pop()
            slot += stride * (s - used[i])
            used[i] = s + 1
        # under random access a service's first attempt slot is its attempt
        begins[i] = begin if round_robin else slot
        if slot < horizon:
            heappush(attempts, (slot, i))

    start = 0
    while start < horizon:
        end, a_src, a_slot, _ = run.arrival_span(start)
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

            if round_robin:
                if attempts and attempts[0][0] == slot:
                    i = heappop(attempts)[1]
                    q = queues[i]
                    q.begin_attempt()
                    begins[i] = horizon
                    sent.append((i, q.on_delivery(), slot))
                    if q.in_system:
                        schedule(i, slot)
            else:
                granted = []
                while attempts and attempts[0][0] == slot:
                    i = heappop(attempts)[1]
                    queues[i].begin_attempt()
                    begins[i] = horizon
                    granted.append(i)
                if granted:
                    for i in resolve(attempt_probs, granted, streams, collision):
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
        run.add_span(end, np.delete(a_src, at), np.delete(a_slot, at), _by_source(sent))
        start = end


def _refill(stream, p: float, drawn: int, most: int, block: int, used: int) -> tuple[array, int]:
    """A source's next table of attempt positions, and the draws taken into its tables then.

    The table holds the positions below ``p`` of the stream's next block of
    draws that has one, last first, as ``array("q")``: it takes blocks of at
    most ``block`` draws from position ``drawn`` on, never past ``most``, the
    draws the source may take.  With no success left, the table holds one
    position, ``used + most``, that no service started after ``used`` draws
    reaches before the horizon.
    """
    while drawn < most:
        count = min(block, most - drawn)
        hits = stream.take_below(p, count).astype(np.int64, copy=False) + drawn
        drawn += count
        if len(hits):
            return array("q", hits[::-1].tobytes()), drawn
    return array("q", [used + most]), drawn


def _one_source_round_robin(config: SimConfig, run: _Run) -> None:
    """Round robin of one source, with no heap: ``_attempts``' steps beside one pending attempt.

    The source owns every slot, so it has at most one attempt scheduled,
    the slot of its next channel success, and the path walks each span's
    arrival calendar beside it.  A slot delivers its attempt, then takes
    its arrival; an arrival in or after the first owned slot of the
    scheduled service runs that service's ``begin_attempt`` first, and the
    next service is scheduled after both.  The queue sees its calls in
    ``_attempts``' order, the successes come from ``_refill`` as there,
    and ``run.add_span`` gets the same arrays, so the run is the same.
    """
    horizon = config.horizon
    p = config.channel.attempt_prob(0)
    queue = SourceQueue(config.discipline)
    table = array("q")  # positions below p in one block of channel draws, last first
    used = drawn = 0  # channel draws the services have taken, and taken into tables
    # the first owned slot of the scheduled service until its begin_attempt
    # has run, and the service's attempt slot; horizon (or past) for none
    begin = attempt = horizon
    start = 0
    while start < horizon:
        end, a_src, a_slot, _ = run.arrival_span(start)
        calendar = a_slot.tolist()
        calendar.append(end)  # a sentinel, the span's end
        ci = 0
        replacing: list[int] = []  # calendar indices of arrivals that replaced the waiting update
        gens: list[int] = []
        sent: list[int] = []  # the slots of the deliveries of gens
        while True:
            slot = calendar[ci]
            if attempt < slot:
                slot = attempt
            if slot >= end:
                break
            schedule = False
            if attempt == slot:
                queue.begin_attempt()
                gens.append(queue.on_delivery())
                sent.append(slot)
                schedule = queue.in_system > 0
                begin = attempt = horizon
            if calendar[ci] == slot:
                if begin <= slot:
                    queue.begin_attempt()
                    begin = horizon
                idle = not queue.in_system
                if not queue.on_arrival(slot):
                    replacing.append(ci)
                elif idle:
                    schedule = True
                ci += 1
            if schedule:
                # the next service starts in the next slot
                begin = attempt = slot + 1
                if p < 1.0:
                    if not table:
                        table, drawn = _refill(
                            run.streams[0].channel, p, drawn, horizon, run.block, used
                        )
                    s = table.pop()
                    attempt += s - used
                    used = s + 1
        delivered = np.zeros((3, len(gens)), np.int64)
        delivered[1] = gens
        delivered[2] = sent
        run.add_span(end, np.delete(a_src, replacing), np.delete(a_slot, replacing), delivered)
        start = end


def _fifo_round_robin(config: SimConfig, run: _Run) -> None:
    """FIFO round robin: each source's deliveries from one Lindley recursion.

    Source i owns the slots i + n·d; d is the owned index.  Its channel
    stream takes one draw in each owned slot in which it transmits, so its
    k-th service ends with the stream's k-th success, at draw S_k, and has
    spent C_k = S_k + 1 draws by then (C_k = k when every attempt
    succeeds).  Update k, generated in slot a_k, can first be sent at owned
    index u_k = (a_k - i) // n + 1, so it is delivered at owned index

        d_k = max(u_k, d_{k-1} + 1) + C_k - C_{k-1} - 1
            = C_k + max over j <= k of (u_j - 1 - C_{j-1})

    (Lindley's recursion in owned-slot time), one running maximum, which
    ``np.maximum.accumulate`` takes for all sources at once after lifting
    each source's terms above those of the sources before it.

    Each update gets its delivery slot in the span it arrives in.  A draw's
    value does not depend on when it is taken, so a source takes channel
    draws, with ``take_below``, when a span's arrivals need more successes
    than it holds unspent, but never past the slots it owns before the
    horizon; an update left without a success is delivered after the
    horizon.  Deliveries at or after the horizon are dropped at once and
    the rest kept until their span.  A span is the run's arrival span, or
    a multiple of it while more than a block of deliveries are kept.  The
    arrays a span holds are sorted by source.
    """
    n = config.n_sources
    horizon = config.horizon
    streams = run.streams
    probs = [config.channel.attempt_prob(i) for i in range(n)]
    failing = np.array([p < 1.0 for p in probs])  # sources whose attempts can fail
    sources = np.arange(n)
    owned = (horizon - sources + n - 1) // n  # slots each source owns before the horizon
    # a source's recursion terms lie in [-horizon - 1, horizon], so adding
    # lift[i] to source i's puts them above those of every source before it
    lift = (2 * horizon + 8) * sources
    scheduled = np.empty((3, 0), np.int64)  # deliveries from the span's start: source, gen, slot
    spare = np.empty(0, np.int64)  # unspent channel successes, as draw positions, by source
    n_spare = np.zeros(n, np.int64)
    drawn = np.zeros(n, np.int64)  # channel draws taken
    spent = np.zeros(n, np.int64)  # C of the source's last update
    lag = np.full(n, -1, np.int64)  # that update's owned index minus spent

    start = 0
    while start < horizon:
        if scheduled.shape[1]:
            # a span copies the scheduled deliveries once, so it grows with
            # them: the copying stays in proportion to the arrivals
            end = min(start + run.span * max(1, scheduled.shape[1] // _BLOCK), horizon)
            a_src, a_slot, (starts, ends) = run.arrivals(start, end)
        else:
            end, a_src, a_slot, (starts, ends) = run.arrival_span(start)
        if len(a_src):
            count = np.bincount(a_src, minlength=n)
            rank = np.arange(len(a_src)) - (np.cumsum(count) - count)[a_src]
            need = count * failing
            while short := ((need > n_spare) & (drawn < owned)).nonzero()[0].tolist():
                hits = []
                for i in short:
                    # about twice the draws the missing successes need, 64 to a block
                    p, missing = probs[i], int(need[i] - n_spare[i])
                    want = 2 * missing / p if p else _BLOCK
                    size = int(min(_BLOCK, max(64, want), owned[i] - drawn[i]))
                    hits.append(streams[i].channel.take_below(p, size) + drawn[i])
                    drawn[i] += size
                gained = [len(h) for h in hits]
                if len(short) == 1 and not len(spare):
                    spare = hits[0]
                else:
                    # a stable sort by source, so a source's new successes follow its spare ones
                    by = np.concatenate((np.repeat(sources, n_spare), np.repeat(short, gained)))
                    spare = np.concatenate((spare, *hits)).take(by.argsort(kind="stable"))
                n_spare[short] += gained
            g_spent = spent[a_src] + rank + 1
            fail = failing[a_src].nonzero()[0]
            g_spent[fail] = owned[a_src[fail]] + 1  # no success left: delivered after the horizon
            first_spare = np.cumsum(n_spare) - n_spare
            got = fail[rank[fail] < n_spare[a_src[fail]]]
            g_spent[got] = spare[first_spare[a_src[got]] + rank[got]] + 1
            taken = np.minimum(need, n_spare)
            spare = spare[np.arange(len(spare)) >= np.repeat(first_spare + taken, n_spare)]
            n_spare -= taken
            v = (a_slot - a_src) // n - _previous(g_spent, starts, a_src, spent)
            v[starts] = np.maximum(v[starts], lag[a_src[starts]])
            g_lag = np.maximum.accumulate(v + lift[a_src]) - lift[a_src]
            spent[a_src[ends]] = g_spent[ends]
            lag[a_src[ends]] = g_lag[ends]
            given = np.array((a_src, a_slot, a_src + n * (g_spent + g_lag)))
            given = given.compress(given[2] < horizon, axis=1)
            if scheduled.shape[1]:
                given = np.concatenate((scheduled, given), axis=1)
                # a stable sort by source, so a source's new deliveries follow its scheduled ones
                given = given.take(given[0].argsort(kind="stable"), axis=1)
            scheduled = given
        due = scheduled[2] < end
        run.add_span(end, a_src, a_slot, scheduled.compress(due, axis=1))
        scheduled = scheduled.compress(~due, axis=1)
        start = end


def _runs(src: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each source's run in ``src``, an array sorted by source, starts and where it ends."""
    if len(src) and src[0] == src[-1]:
        return np.zeros(1, np.int64), np.array([len(src) - 1])
    edge = np.empty(len(src) + 1, bool)
    edge[0] = edge[-1] = True
    np.not_equal(src[1:], src[:-1], out=edge[1:-1])
    bounds = edge.nonzero()[0]
    return bounds[:-1], bounds[1:] - 1


def _previous(
    values: np.ndarray, starts: np.ndarray, src: np.ndarray, carried: np.ndarray
) -> np.ndarray:
    """Each value's predecessor of the same source, along the last axis.

    A source's first value, at its run's start, takes the source's entry of
    ``carried``.
    """
    prev = np.empty_like(values)
    prev[..., 1:] = values[..., :-1]
    prev[..., starts] = carried[..., src[starts]]
    return prev


def _add_by_source(
    totals: np.ndarray, src: np.ndarray, starts: np.ndarray, rows: np.ndarray
) -> None:
    """Add row j of ``rows`` into ``totals[j]``, by source.

    ``src`` is sorted by source, and its runs start at ``starts``.
    """
    if len(src):
        totals[:, src[starts]] += np.add.reduceat(rows, starts, axis=1)


def _by_source(sent: list[tuple[int, int, int]]) -> np.ndarray:
    """Deliveries (source, gen, slot) listed in slot order, as rows, sorted by source."""
    rows = np.fromiter(chain.from_iterable(sent), np.int64, 3 * len(sent)).reshape(-1, 3).T
    return rows.take(rows[0].argsort(kind="stable"), axis=1)


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
