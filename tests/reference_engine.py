"""Reference implementation: the slot-by-slot engine loop.

``run_with_logs`` visits every slot and does the work of every source in it,
following the six steps of ``aoisim.engine`` literally.  It is kept here,
outside the package, as the oracle for the differential tests of the
event-driven engine, together with ``AoiTracker``, the per-slot age
accumulator it needs, ``random_access_grant``, the slot-wise random-access
rule, ``DelayStage``, ``DestState`` and ``deliver_due``, a slot-wise delay
stage that sorts each slot's receptions, ``DeliveryLog`` and
``sample_path_estimators``, which keep every reception and compute the two
area-decomposition estimates from the whole trace, and ``ReceptionFold`` and
``fold_trace``, which add a trace's reception sums one reception at a time,
by the names ``RECEPTION_SUMS`` of the engine's sums.  Only the tests
import it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from aoisim.access import ChannelKind, PolicyKind, grant, resolve
from aoisim.engine import (
    MeasurePoint,
    MetricsReport,
    SimConfig,
    SourceMetrics,
    _service_share,
)
from aoisim.queueing import Discipline, SourceQueue
from aoisim.streams import SourceStreams, UniformStream

_NAN = float("nan")


def random_access_grant(
    access_probs: Sequence[float],
    backlogged: Sequence[bool],
    streams: Sequence[SourceStreams],
) -> list[int]:
    """Backlogged sources that attempt this slot, in ascending order.

    Each backlogged source takes one access draw and attempts when it is
    below its access probability.
    """
    return [
        i
        for i, b in enumerate(backlogged)
        if b and streams[i].access.uniform() < access_probs[i]
    ]


class DelayStage:
    """In-flight ``(source, gen)`` pairs keyed by their destination arrival slot."""

    __slots__ = ("k", "_due")

    def __init__(self, k: float):
        self.k = k
        self._due: dict[int, list[tuple[int, int]]] = {}

    def inject(self, item: tuple[int, int], ap_slot: int, stream: UniformStream) -> int:
        """Launch a ``(source, gen)`` pair at the access point; returns its arrival slot."""
        delay = 1
        if self.k < 1.0:  # the number of Bernoulli(k) trials up to the first success
            delay = int(math.log(1.0 - stream.uniform()) / math.log(1.0 - self.k)) + 1
        arrive = ap_slot + delay
        self._due.setdefault(arrive, []).append(item)
        return arrive

    def due(self, slot: int) -> list[tuple[int, int]]:
        """``(source, gen)`` pairs whose delay expires this slot (unordered)."""
        return self._due.pop(slot, [])


class DestState:
    """Newest generation slot received so far at the destination, per source."""

    __slots__ = ("newest_gen",)

    def __init__(self, n_sources: int):
        self.newest_gen: list[int | None] = [None] * n_sources

    def classify(self, item: tuple[int, int]) -> bool:
        """Record the reception of a ``(source, gen)`` pair; True when it is informative."""
        i, gen = item
        newest = self.newest_gen[i]
        if newest is None or gen > newest:
            self.newest_gen[i] = gen
            return True
        return False


def deliver_due(
    stage: DelayStage, dest: DestState, slot: int
) -> list[tuple[tuple[int, int], bool]]:
    """Process this slot's receptions, freshest generation first per source."""
    items = stage.due(slot)
    if not items:
        return []
    items.sort(key=lambda item: (item[0], -item[1]))
    return [(item, dest.classify(item)) for item in items]


@dataclass
class DeliveryLog:
    """Per-source reception trace at the monitor point.

    ``left_empty`` is only populated when the monitor point is the access
    point: entry j says whether delivery j left the source queue empty at the
    end of its slot (arrivals of that slot included).
    """

    gen_slots: list[int] = field(default_factory=list)
    recv_slots: list[int] = field(default_factory=list)
    left_empty: list[bool] = field(default_factory=list)


# the sums over a source's receptions, by the names aoisim.engine.run_with_logs gives them
RECEPTION_SUMS = (
    "count", "t_sum", "yt2_sum", "zt2_sum", "tz_sum", "left_empty",
    "empty_count", "empty_z_sum", "empty_z2_sum", "empty_t_sum",
    "busy_count", "busy_z_sum", "busy_z2_sum", "busy_t_sum",
)


@dataclass
class ReceptionFold:
    """A source's reception sums, added one reception at a time.

    The engine adds its receptions with array operations, a span at a time;
    this is the independent fold the tests hold it to.  Call ``add`` for
    every reception in the window, in order, and after it
    ``mark_left_empty`` when that delivery left the source queue empty.
    """

    sums: dict[str, int] = field(default_factory=lambda: dict.fromkeys(RECEPTION_SUMS, 0))
    last_gen: int = 0
    last_recv: int = 0
    last_left_empty: bool = False

    def add(self, gen: int, recv: int) -> None:
        sums = self.sums
        t = recv - gen
        if sums["count"]:
            y = gen - self.last_gen
            z = recv - self.last_recv
            t_prev = self.last_recv - self.last_gen
            sums["yt2_sum"] += (2 * t + y + 1) * y
            sums["zt2_sum"] += (2 * t_prev + z + 1) * z
            sums["tz_sum"] += t_prev * z
            # the gap's sums, by whether the reception that opened it left the queue empty
            gaps = "empty_" if self.last_left_empty else "busy_"
            sums[gaps + "count"] += 1
            sums[gaps + "z_sum"] += z
            sums[gaps + "z2_sum"] += z * z
            sums[gaps + "t_sum"] += t
        sums["count"] += 1
        sums["t_sum"] += t
        self.last_gen = gen
        self.last_recv = recv
        self.last_left_empty = False

    def mark_left_empty(self) -> None:
        """The latest reception left the source queue empty."""
        self.sums["left_empty"] += 1
        self.last_left_empty = True


def fold_trace(trace: Iterable[tuple[int, int, bool]]) -> dict[str, int]:
    """The reception sums of ``(gen, recv, left empty)`` triples, in reception order, by name."""
    fold = ReceptionFold()
    for gen, recv, left_empty in trace:
        fold.add(gen, recv)
        if left_empty:
            fold.mark_left_empty()
    return fold.sums


def sample_path_estimators(log: DeliveryLog, window: int) -> tuple[float, float]:
    """Two area-decomposition estimates of the average age from one trace.

    The first rebuilds the age area from interarrival gaps Y and system times
    T, the second from inter-reception gaps Z and the previous system time;
    both are scaled by the empirical reception rate over ``window`` slots.
    On a stable run they agree with the per-slot average up to edge effects.
    """
    gens = log.gen_slots
    recvs = log.recv_slots
    m = len(gens)
    if m < 2:
        raise ValueError(f"need at least 2 receptions, got {m}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    rate = m / window
    yt_acc = 0.0
    zt_acc = 0.0
    for j in range(1, m):
        y = gens[j] - gens[j - 1]
        t = recvs[j] - gens[j]
        z = recvs[j] - recvs[j - 1]
        t_prev = recvs[j - 1] - gens[j - 1]
        yt_acc += y * t + 0.5 * y * y + 0.5 * y
        zt_acc += t_prev * z + 0.5 * z * z + 0.5 * z
    k = m - 1
    return rate * yt_acc / k, rate * zt_acc / k


class AoiTracker:
    """Age accumulator of one source at one monitor point."""

    __slots__ = ("newest_gen", "age_sum", "samples")

    def __init__(self) -> None:
        self.newest_gen: int | None = None
        self.age_sum = 0
        self.samples = 0

    def on_update(self, gen_slot: int) -> None:
        newest = self.newest_gen
        if newest is None or gen_slot > newest:
            self.newest_gen = gen_slot

    def sample(self, slot: int) -> int:
        newest = self.newest_gen
        age = slot + 1 if newest is None else slot - newest + 1
        self.age_sum += age
        self.samples += 1
        return age


def run_with_logs(config: SimConfig) -> tuple[MetricsReport, list[DeliveryLog]]:
    """Run one simulation, returning metrics and the per-source reception traces."""
    config.validate()
    n = config.n_sources
    lambdas = config.lambdas
    horizon = config.horizon
    warmup = config.warmup
    window = horizon - warmup

    queues = [SourceQueue(config.discipline, i) for i in range(n)]
    streams = [SourceStreams(config.seed, i) for i in range(n)]
    policy = config.policy
    channel = config.channel

    stage = DelayStage(config.network_k) if config.network_k is not None else None
    dest = DestState(n) if stage is not None else None
    measure_dest = stage is not None and config.resolved_measure_at() is MeasurePoint.DESTINATION

    trackers = [AoiTracker() for _ in range(n)]
    logs = [DeliveryLog() for _ in range(n)]
    occ_counts: list[list[int]] = [[0, 0, 0] for _ in range(n)]
    last_gen = [-1] * n
    y_sum = [0] * n
    y2_sum = [0] * n
    y_count = [0] * n
    informative = [0] * n
    obsolete = [0] * n
    # the window's arrivals, deliveries and arrivals that replaced a waiting update
    generated = [0] * n
    delivered = [0] * n
    dropped = [0] * n

    rr = policy.kind is PolicyKind.ROUND_ROBIN
    wc = policy.kind is PolicyKind.WORK_CONSERVING
    probs = [channel.attempt_prob(i) for i in range(n)]
    collision = channel.kind is ChannelKind.COLLISION

    for slot in range(horizon):
        rec = slot >= warmup
        if rec:
            for i in range(n):
                o = queues[i].occupancy()
                oc = occ_counts[i]
                if o >= len(oc):
                    oc.extend([0] * (o + 1 - len(oc)))
                oc[o] += 1

        # grant from the slot-start backlog
        if rr:
            granted = [slot % n]
        else:
            nonempty = [queues[i].occupancy() > 0 for i in range(n)]
            if wc:
                granted = grant(slot, nonempty)
            else:
                granted = random_access_grant(policy.access_probs, nonempty, streams)

        transmitters = []
        for g in granted:
            if queues[g].begin_attempt() is not None:
                transmitters.append(g)
        successes = resolve(probs, transmitters, streams, collision) if transmitters else []

        delivered_now: list[int] = []
        for i in successes:
            gen = queues[i].on_delivery()
            if rec:
                delivered[i] += 1
            if stage is not None:
                stage.inject((i, gen), slot, streams[i].delay)
                if not measure_dest:
                    trackers[i].on_update(gen)
                    if rec:
                        logs[i].gen_slots.append(gen)
                        logs[i].recv_slots.append(slot)
                        delivered_now.append(i)
            else:
                trackers[i].on_update(gen)
                if rec:
                    logs[i].gen_slots.append(gen)
                    logs[i].recv_slots.append(slot)
                    delivered_now.append(i)

        if stage is not None:
            for (src, gen), fresh in deliver_due(stage, dest, slot):
                if rec:
                    if fresh:
                        informative[src] += 1
                    else:
                        obsolete[src] += 1
                if fresh and measure_dest:
                    trackers[src].on_update(gen)
                    if rec:
                        logs[src].gen_slots.append(gen)
                        logs[src].recv_slots.append(slot)

        for i in range(n):
            lam = lambdas[i]
            if lam > 0.0 and streams[i].arrival.uniform() < lam:
                admitted = queues[i].on_arrival(slot)
                if rec:
                    generated[i] += 1
                    if not admitted:
                        dropped[i] += 1
                prev = last_gen[i]
                if rec and prev >= 0:
                    y = slot - prev
                    y_sum[i] += y
                    y2_sum[i] += y * y
                    y_count[i] += 1
                last_gen[i] = slot

        # classify what each delivery left behind, arrivals of this slot included
        for i in delivered_now:
            logs[i].left_empty.append(queues[i].occupancy() == 0)

        if rec:
            for i in range(n):
                trackers[i].sample(slot)

    per_source = []
    for i in range(n):
        log = logs[i]
        m = len(log.gen_slots)
        if m >= 2:
            est_yt, est_zt = sample_path_estimators(log, window)
        else:
            est_yt = est_zt = _NAN
        if m:
            mean_t = sum(
                r - g for g, r in zip(log.gen_slots, log.recv_slots)
            ) / m
        else:
            mean_t = _NAN
        yc = y_count[i]
        mean_y = y_sum[i] / yc if yc else _NAN
        mean_y2 = y2_sum[i] / yc if yc else _NAN
        total = sum(occ_counts[i])
        hist = {
            o: c / total for o, c in enumerate(occ_counts[i]) if c
        }
        per_source.append(
            SourceMetrics(
                source_id=i,
                avg_aoi=trackers[i].age_sum / window,
                generated=generated[i],
                delivered=delivered[i],
                dropped=dropped[i],
                in_system_at_end=queues[i].occupancy(),
                informative=informative[i],
                obsolete=obsolete[i],
                empirical_drop_prob=dropped[i] / generated[i] if generated[i] else 0.0,
                empirical_effective_rate=delivered[i] / window,
                occupancy_hist=hist,
                estimator_yt=est_yt,
                estimator_zt=est_zt,
                mean_system_time=mean_t,
                mean_interarrival=mean_y,
                mean_interarrival_sq=mean_y2,
                stability_warning=(
                    config.discipline is Discipline.FIFO
                    and lambdas[i] >= _service_share(config, i) - 1e-12
                ),
            )
        )
    report = MetricsReport(config=config, window=window, per_source=tuple(per_source))
    return report, logs
