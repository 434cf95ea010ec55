"""Engine behavior: exact calibration traces, estimators, determinism."""
from __future__ import annotations

import dataclasses
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import reference_engine
from aoisim import engine
from aoisim.access import ChannelConfig, ChannelKind, PolicyConfig, PolicyKind
from aoisim.analytic import QueueParams
from aoisim.engine import (
    MeasurePoint,
    SimConfig,
    dedicated_channel_run,
    run,
    run_with_logs,
)
from aoisim.errors import ConfigError
from aoisim.queueing import Discipline
from aoisim.streams import _BLOCK, Role, UniformStream

RR = PolicyConfig(PolicyKind.ROUND_ROBIN)
PERFECT = ChannelConfig(ChannelKind.PERFECT)


def config(**kw) -> SimConfig:
    base = dict(
        n_sources=1,
        lambdas=(0.5,),
        discipline=Discipline.REPLACEMENT,
        policy=RR,
        channel=PERFECT,
        horizon=1000,
        seed=1,
    )
    base.update(kw)
    return SimConfig(**base)


class TestCalibrationTraces:
    def test_silent_source_ramps(self) -> None:
        # never updated: sampled age is slot + 1, averaging (H + 1) / 2
        h = 999
        r = run(config(lambdas=(0.0,), horizon=h))
        assert r.per_source[0].avg_aoi == pytest.approx((h + 1) / 2, rel=1e-12)

    def test_saturated_source_holds_age_two(self) -> None:
        # an update delivered every slot from slot 1 on: ages 1, 2, 2, ...
        h = 1000
        r = run(config(lambdas=(1.0,), horizon=h))
        assert r.per_source[0].avg_aoi == pytest.approx(2.0 - 1.0 / h, rel=1e-12)
        assert r.per_source[0].delivered == h - 1

    def test_saturated_source_with_warmup_is_exactly_two(self) -> None:
        r = run(config(lambdas=(1.0,), horizon=200, warmup=10))
        m = r.per_source[0]
        assert m.avg_aoi == 2.0
        assert m.delivered == 190

    def test_two_saturated_sources_alternate(self) -> None:
        # each source is served every second slot; its age cycles 2, 3
        h = 20_000
        r = run(config(n_sources=2, lambdas=(1.0, 1.0), horizon=h))
        for m in r.per_source:
            assert m.avg_aoi == pytest.approx(2.5, abs=1e-3)

    def test_sampled_age_floor(self) -> None:
        # minimum system time is one slot, so every delivered update is at
        # least one slot old when sampled; the engine keeps no trace, and
        # tests/test_differential.py ties its reception sums to this one
        c = config(lambdas=(0.7,), horizon=5000)
        _, logs = reference_engine.run_with_logs(c)
        assert all(r > g for g, r in zip(logs[0].gen_slots, logs[0].recv_slots))
        _, sums = run_with_logs(c)
        assert sums["count"][0] == len(logs[0].gen_slots) > 0


def gaps(sums: dict[str, int], kind: str) -> list[int]:
    """The count, Z, Z² and T sums of the gaps after an ``"empty"`` or a ``"busy"`` queue."""
    return [sums[f"{kind}_{name}"] for name in ("count", "z_sum", "z2_sum", "t_sum")]


def engine_folds(trace: list[tuple[int, int, bool]]) -> list[dict[str, int]]:
    """The engine's array fold of one source's ``(gen, recv, left empty)`` trace.

    One result per split of the trace into two spans, the first holding
    0, 1, ..., all of the receptions.
    """
    rows = np.array([(0, gen, recv, empty) for gen, recv, empty in trace], np.int64)
    horizon = trace[-1][1] + 1
    folds = []
    for k in range(len(trace) + 1):
        run = engine._Run(config(horizon=horizon))  # nothing received yet
        for part in (rows[:k], rows[k:]):
            run._fold(part.reshape(-1, 4).T)
        sums = run.report()[1]
        folds.append({name: sums[name][0] for name in reference_engine.RECEPTION_SUMS})
    return folds


def engine_occupancy(
    traces: list[tuple[list[int], list[tuple[int, int]]]], horizon: int, warmup: int
) -> list[list[tuple[dict[int, float], int]]]:
    """The engine's occupancy of sources given as traces of their arrivals and deliveries.

    Each trace is the source's arrival slots and its ``(gen, delivery
    slot)`` pairs.  One result per split of the run into two spans, the
    first ending at slot 1, 2, ..., ``horizon - 1``: each source's
    ``occupancy_hist`` and ``in_system_at_end``.
    """
    arrivals = np.array([(i, a) for i, (slots, _) in enumerate(traces) for a in slots], np.int64)
    deliveries = np.array(
        [(i, gen, d) for i, (_, sent) in enumerate(traces) for gen, d in sent], np.int64
    )
    splits = []
    for cut in range(1, horizon):
        run = engine._Run(config(n_sources=len(traces), lambdas=(0.5,) * len(traces),
                                 horizon=horizon, warmup=warmup))
        for start, end in ((0, cut), (cut, horizon)):
            a = arrivals[(start <= arrivals[:, 1]) & (arrivals[:, 1] < end)]
            d = deliveries[(start <= deliveries[:, 2]) & (deliveries[:, 2] < end)]
            run.add_span(end, a[:, 0], a[:, 1], d.T)
        splits.append([(m.occupancy_hist, m.in_system_at_end) for m in run.report()[0].per_source])
    return splits


class TestEstimators:
    def test_constant_trace(self) -> None:
        # gen 0, 2, 4, ..., each received one slot later: Y=2, T=1, Z=2 every
        # gap, and every third delivery leaves the queue empty
        trace = [(2 * j, 2 * j + 1, j % 3 == 0) for j in range(50)]
        stats = reference_engine.fold_trace(trace)
        # 49 gaps; those opened by deliveries 0, 3, ..., 48 follow an empty queue
        assert stats == dict(
            count=50,
            t_sum=50,
            yt2_sum=49 * (2 * 2 * 1 + 2 * 2 + 2),
            zt2_sum=49 * (2 * 1 * 2 + 2 * 2 + 2),
            tz_sum=49 * 2,
            left_empty=17,
            empty_count=17, empty_z_sum=34, empty_z2_sum=68, empty_t_sum=17,
            busy_count=32, busy_z_sum=64, busy_z2_sum=128, busy_t_sum=32,
        )
        assert engine_folds(trace) == [stats] * 51
        # two saturated sources under round robin produce that trace after a
        # two-slot warm-up; both decompositions give the per-slot age 2.5
        c = config(n_sources=2, lambdas=(1.0, 1.0), horizon=100, warmup=2)
        report, sums = run_with_logs(c)
        names = ("count", "t_sum", "yt2_sum", "zt2_sum")
        assert [sums[name][0] for name in names] == [49, 49, 48 * 10, 48 * 10]
        m = report.per_source[0]
        assert m.estimator_yt == m.estimator_zt == m.avg_aoi == 2.5

    def test_uneven_trace_split_sums(self) -> None:
        # (gen, recv, left empty): T = 2, 1, 4, 1; Y = 3, 2, 5; Z = 2, 5, 2
        trace = [(0, 2, True), (3, 4, False), (5, 9, True), (10, 11, False)]
        stats = reference_engine.fold_trace(trace)
        assert engine_folds(trace) == [stats] * 5
        assert stats["count"] == 4 and stats["left_empty"] == 2
        assert stats["t_sum"] == 2 + 1 + 4 + 1
        assert stats["yt2_sum"] == (2 * 1 + 3 + 1) * 3 + (2 * 4 + 2 + 1) * 2 + (2 * 1 + 5 + 1) * 5
        assert stats["zt2_sum"] == (2 * 2 + 2 + 1) * 2 + (2 * 1 + 5 + 1) * 5 + (2 * 4 + 2 + 1) * 2
        assert stats["tz_sum"] == 2 * 2 + 1 * 5 + 4 * 2
        assert gaps(stats, "empty") == [2, 4, 8, 2]
        assert gaps(stats, "busy") == [1, 5, 25, 4]

    def test_needs_two_deliveries(self) -> None:
        # a lone reception closes no gap, so neither estimate exists
        trace = [(3, 4, True)]
        stats = reference_engine.fold_trace(trace)
        assert engine_folds(trace) == [stats] * 2
        assert gaps(stats, "empty") == gaps(stats, "busy") == [0, 0, 0, 0]
        assert stats["yt2_sum"] == stats["zt2_sum"] == stats["tz_sum"] == 0
        # a single update at slot 0, delivered in slot 1, and nothing after it
        c = config(lambdas=(1.0,), horizon=2)
        _, sums = run_with_logs(c)
        assert sums["count"] == [1]
        m = run(c).per_source[0]
        assert math.isnan(m.estimator_yt) and math.isnan(m.estimator_zt)
        assert m.mean_system_time == 1.0

    @pytest.mark.parametrize("lam", [0.3, 0.6])
    def test_certain_service_matches_inverse_rate(self, lam: float) -> None:
        r = dedicated_channel_run(QueueParams(lam, 1.0), Discipline.FIFO, horizon=150_000, seed=3)
        m = r.per_source[0]
        rate = m.delivered / 150_000
        for est in (m.estimator_yt, m.estimator_zt):
            assert est == pytest.approx(1.0 + 1.0 / rate, rel=0.01)
        assert m.avg_aoi == pytest.approx(1.0 + 1.0 / lam, rel=0.01)

    def test_estimators_track_the_per_slot_average(self) -> None:
        r = dedicated_channel_run(QueueParams(0.2, 0.5), Discipline.REPLACEMENT, horizon=150_000, seed=4)
        m = r.per_source[0]
        assert m.estimator_yt == pytest.approx(m.avg_aoi, rel=0.005)
        assert m.estimator_zt == pytest.approx(m.avg_aoi, rel=0.005)

    def test_silent_source_reports_nan(self) -> None:
        m = run(config(lambdas=(0.0,))).per_source[0]
        assert math.isnan(m.estimator_yt) and math.isnan(m.estimator_zt)
        assert math.isnan(m.mean_system_time)


class TestDeterminism:
    def test_same_seed_same_report(self) -> None:
        c = config(lambdas=(0.4,), discipline=Discipline.FIFO, horizon=20_000, seed=9)
        assert run(c) == run(c)

    def test_different_seed_differs(self) -> None:
        a = run(config(horizon=20_000, seed=1)).per_source[0].avg_aoi
        b = run(config(horizon=20_000, seed=2)).per_source[0].avg_aoi
        assert a != b

    def test_added_source_does_not_perturb_existing_streams(self) -> None:
        # per-source substreams are keyed by (seed, source, role), so the
        # first source's arrival pattern is identical in both runs
        one = run(config(n_sources=1, lambdas=(0.3,), horizon=5000, seed=6))
        two = run(config(n_sources=2, lambdas=(0.3, 0.3), horizon=5000, seed=6))
        assert one.per_source[0].generated == two.per_source[0].generated


class TestAccounting:
    def test_conservation_and_histogram(self) -> None:
        r = dedicated_channel_run(QueueParams(0.35, 0.6), Discipline.FIFO, horizon=50_000, seed=5)
        m = r.per_source[0]
        assert m.generated == m.delivered + m.dropped + m.in_system_at_end
        assert m.dropped == 0
        assert sum(m.occupancy_hist.values()) == pytest.approx(1.0, rel=1e-12)

    def test_replacement_drops_show_up(self) -> None:
        r = dedicated_channel_run(QueueParams(0.5, 0.3), Discipline.REPLACEMENT, horizon=50_000, seed=5)
        m = r.per_source[0]
        assert m.dropped > 0
        assert m.empirical_drop_prob == pytest.approx(m.dropped / m.generated, rel=1e-12)
        assert m.generated == m.delivered + m.dropped + m.in_system_at_end

    @pytest.mark.parametrize("discipline", list(Discipline))
    def test_conservation_with_warmup(self, discipline: Discipline) -> None:
        # window counts exclude warm-up, in_system_at_end does not: the
        # occupancy at the warm-up boundary closes the balance, and a run
        # that stops there has exactly that occupancy at its end
        c = config(lambdas=(0.45,), discipline=discipline, horizon=20_000, warmup=3_001,
                   channel=ChannelConfig(ChannelKind.ERASURE, service_probs=(0.5,)), seed=12)
        at_warmup = run(dataclasses.replace(c, horizon=c.warmup, warmup=0)).per_source[0]
        m = run(c).per_source[0]
        assert at_warmup.in_system_at_end > 0
        assert m.generated + at_warmup.in_system_at_end == m.delivered + m.dropped + m.in_system_at_end

    def test_occupancy_does_not_depend_on_where_spans_split(self) -> None:
        # a slot's arrivals come before its deliveries, and each source's
        # level carries from span to span: source 0 has an arrival and a
        # delivery together in slot 6, the first span's last for one split,
        # and in slot 11, the run's last; the warm-up boundary, slot 3, lies
        # inside the first span or the second
        horizon, warmup = 12, 3
        traces = [
            ([0, 1, 4, 6, 10, 11], [(0, 3), (1, 5), (4, 6), (6, 9), (10, 11)]),
            ([3, 5, 7], [(3, 5), (7, 10)]),
        ]
        expected = []
        for slots, sent in traces:
            # each window slot by the updates that arrived, and were not
            # delivered, before it
            level = Counter(
                sum(a < s for a in slots) - sum(d < s for _, d in sent)
                for s in range(warmup, horizon)
            )
            window = horizon - warmup
            expected.append(({o: c / window for o, c in sorted(level.items())},
                             len(slots) - len(sent)))
        assert expected[0] == ({0: 1 / 9, 1: 6 / 9, 2: 2 / 9}, 1)
        assert engine_occupancy(traces, horizon, warmup) == [expected] * (horizon - 1)

    def test_report_quotients_are_exact_past_two_to_the_53(self) -> None:
        # 2**55 + 1 is no float64, so dividing its rounding by 3 misses the
        # correctly rounded quotient by one unit in the last place; a run
        # past 2**30 slots keeps its sums as Python ints, and building one
        # draws nothing.  A window of 3 slots makes the age area's quotient
        # the same one
        num, den = 2**55 + 1, 3
        assert np.float64(num) / den != float(Fraction(num, den))
        horizon = 2**40
        c = config(horizon=horizon, warmup=horizon - den)
        run = engine._Run(c)
        total_age = (horizon * (horizon + 1) - c.warmup * (c.warmup + 1)) // 2
        for name, value in (("count", den), ("t_sum", num), ("y_count", den), ("y_sum", num),
                            ("base_area", total_age - num)):
            run.sums[engine._ROW[name], 0] = value
        m = run.report()[0].per_source[0]
        exact = float(Fraction(num, den))
        assert m.mean_system_time == m.mean_interarrival == m.avg_aoi == exact

    def test_interarrival_moments(self) -> None:
        lam = 0.3
        r = dedicated_channel_run(QueueParams(lam, 0.8), Discipline.FIFO, horizon=200_000, seed=7)
        m = r.per_source[0]
        assert m.mean_interarrival == pytest.approx(1.0 / lam, rel=0.01)
        assert m.mean_interarrival_sq == pytest.approx((2.0 - lam) / lam**2, rel=0.02)


class TestMemory:
    def test_peak_does_not_grow_with_the_horizon(self) -> None:
        # a run keeps running sums per source, not one entry per reception.
        # An untraced first run makes the one-time allocations, so that they
        # land in neither peak; both horizons are whole numbers of stream
        # blocks, so that the two runs hold alike blocks.  A loaded dedicated
        # FIFO queue that logged its receptions would grow by about 0.5 MB
        # per block.
        params = QueueParams(0.4, 0.5)

        def peak(horizon: int) -> int:
            tracemalloc.start()
            try:
                dedicated_channel_run(params, Discipline.FIFO, horizon=horizon, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        dedicated_channel_run(params, Discipline.FIFO, horizon=_BLOCK, seed=1)
        assert peak(4 * _BLOCK) - peak(2 * _BLOCK) < 100_000


    @pytest.mark.parametrize(
        "policy, discipline",
        [
            (RR, Discipline.FIFO),
            (PolicyConfig(PolicyKind.RANDOM_ACCESS, (0.3,) * 64), Discipline.REPLACEMENT),
        ],
        ids=["fifo_round_robin", "random_access"],
    )
    def test_stream_blocks_shrink_with_the_sources(
        self, monkeypatch, policy: PolicyConfig, discipline: Discipline
    ) -> None:
        # a run's streams of one role share a budget of buffered draws, so
        # with a small budget each of 64 streams buffers a block of budget /
        # 64 values; block sizes change when values are drawn, never which
        c = config(
            n_sources=64,
            lambdas=(0.004,) * 64,
            discipline=discipline,
            policy=policy,
            channel=ChannelConfig(ChannelKind.ERASURE, service_probs=(0.5,) * 64),
            network_k=0.5,
            horizon=20_000,
        )
        expected = repr(run_with_logs(c))
        buffered = []
        refill = UniformStream._refill

        def recording(self, *args) -> None:
            refill(self, *args)
            buffered.append(len(self._buf))

        monkeypatch.setattr(UniformStream, "_refill", recording)
        monkeypatch.setattr(engine, "_STREAM_BUDGET", 64 * 300)
        assert repr(run_with_logs(c)) == expected
        assert max(buffered) == 300


    def test_random_access_of_1024_sources_peaks_below_70_mb(self) -> None:
        # README's traced peak: each of 1,024 access streams buffers a
        # block of 2,048 draws, and its source a table of the positions
        # below q among them, 8 bytes each.  Tables refilled 16,384 draws
        # at a time, whatever the block, peak at about 150 MB.
        n = 1024
        c = config(
            n_sources=n,
            lambdas=(2e-4,) * n,
            policy=PolicyConfig(PolicyKind.RANDOM_ACCESS, (0.9,) * n),
            channel=ChannelConfig(ChannelKind.ERASURE, service_probs=(0.99,) * n),
            horizon=50_000,
        )
        tracemalloc.start()
        try:
            run(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 70e6

    @pytest.mark.parametrize(
        "policy", [RR, PolicyConfig(PolicyKind.RANDOM_ACCESS, (0.3,) * 64)],
        ids=["round_robin", "random_access"],
    )
    def test_attempt_tables_refill_a_block_at_a_time(self, monkeypatch, policy) -> None:
        # the attempt path takes the draws that decide its attempts a run
        # block at a time, so its tables shrink with the blocks
        asked = []
        take_below = UniformStream.take_below

        def recording(self, p, count):
            if self._key[1] in (Role.CHANNEL, Role.ACCESS):
                asked.append(count)
            return take_below(self, p, count)

        monkeypatch.setattr(UniformStream, "take_below", recording)
        monkeypatch.setattr(engine, "_STREAM_BUDGET", 64 * 300)
        report = run(config(
            n_sources=64,
            lambdas=(0.01,) * 64,
            policy=policy,
            channel=ChannelConfig(ChannelKind.ERASURE, service_probs=(0.2,) * 64),
            horizon=40_000,
        ))
        assert sum(m.delivered for m in report.per_source) > 5000
        assert len(asked) > 64 and max(asked) == 300


class TestWork:
    def test_round_robin_resolves_one_attempt_per_service(self, monkeypatch, stream_draws) -> None:
        # the attempt path reads the owner's next channel success from a
        # table of its draws below mu, so round robin never runs the
        # channel rule, never draws past the slots the source owns, and
        # takes its channel draws a block at a time rather than once per
        # service (about 10 attempts per delivery at mu = 0.1); a round
        # robin with packet management runs on that path, or with one
        # source on its own loop, which reads the same table
        resolves = takes = 0
        original_resolve = engine.resolve
        original_take = UniformStream.take_below

        def counting_resolve(*args):
            nonlocal resolves
            resolves += 1
            return original_resolve(*args)

        def counting_take(self, *args):
            nonlocal takes
            if self._key[1] == Role.CHANNEL:
                takes += 1
            return original_take(self, *args)

        monkeypatch.setattr(engine, "resolve", counting_resolve)
        monkeypatch.setattr(UniformStream, "take_below", counting_take)
        h = 20_000
        report = dedicated_channel_run(
            QueueParams(0.05, 0.1), Discipline.REPLACEMENT, horizon=h, seed=3
        )
        assert report.per_source[0].delivered > 500
        assert resolves == 0
        draws = stream_draws[0, Role.CHANNEL]
        assert 0 < draws <= h  # one owned slot each
        assert takes == -(-draws // _BLOCK)

    def test_sparse_fifo_round_robin_merges_empty_spans(self, monkeypatch) -> None:
        # a span with no arrivals and no deliveries due merges into the
        # next, so a source at lambda 1e-5 pays the accounting of about
        # one span per update, not of all 62 spans of its million slots;
        # the run is the attempt path's, which merges them too
        c = config(lambdas=(1e-5,), discipline=Discipline.FIFO, horizon=1_000_000, seed=4,
                   channel=ChannelConfig(ChannelKind.ERASURE, service_probs=(0.5,)))
        spans = 0
        add_span = engine._Run.add_span

        def counting(self, *args) -> None:
            nonlocal spans
            spans += 1
            add_span(self, *args)

        monkeypatch.setattr(engine._Run, "add_span", counting)
        kernel = run_with_logs(c)
        generated = kernel[0].per_source[0].generated
        assert 5 <= generated and spans <= 2 * generated + 1
        monkeypatch.setattr(engine, "_fifo_round_robin", engine._attempts)
        assert repr(run_with_logs(c)) == repr(kernel)

    def test_fifo_round_robin_takes_its_draws_block_wise(self, monkeypatch, stream_draws) -> None:
        # FIFO round robin takes arrival and channel draws only through
        # take_below, a block at a time, and no stream more than one per slot
        def refuse(self, *args):
            raise AssertionError("a FIFO round robin draws through take_below only")

        monkeypatch.setattr(UniformStream, "uniform", refuse)
        h = 3000
        c = config(
            n_sources=3,
            lambdas=(0.1, 0.2, 0.25),
            discipline=Discipline.FIFO,
            channel=ChannelConfig(ChannelKind.ERASURE, service_probs=(0.5, 0.7, 0.9)),
            horizon=h,
        )
        assert all(m.delivered > 50 for m in run(c).per_source)
        assert {role for _, role in stream_draws} == {Role.ARRIVAL, Role.CHANNEL}
        assert max(stream_draws.values()) <= h

    @pytest.mark.parametrize("discipline", list(Discipline), ids=lambda d: d.value)
    def test_fifo_random_access_draws_arrivals_and_delays_block_wise(
        self, monkeypatch, discipline: Discipline
    ) -> None:
        # random access, with or without packet management, takes a span's
        # arrival draws at once, never one slot at a time, and one delay
        # draw per delivery, across spans
        uniform = UniformStream.uniform
        take = UniformStream._take
        delay_draws: Counter[int] = Counter()

        def checked_uniform(self):
            assert self._key[1] != Role.ARRIVAL, "arrivals are drawn a span at a time"
            if self._key[1] == Role.DELAY:
                delay_draws[self._key[0]] += 1
            return uniform(self)

        def counting_take(self, count):
            if self._key[1] == Role.DELAY:
                delay_draws[self._key[0]] += count
            return take(self, count)

        monkeypatch.setattr(UniformStream, "uniform", checked_uniform)
        monkeypatch.setattr(UniformStream, "_take", counting_take)
        c = config(
            n_sources=3,
            lambdas=(0.05, 0.1, 0.15),
            discipline=discipline,
            policy=PolicyConfig(PolicyKind.RANDOM_ACCESS, access_probs=(0.4, 0.5, 0.6)),
            channel=ChannelConfig(ChannelKind.COLLISION),
            network_k=0.3,
            horizon=2 * _BLOCK + 500,
        )
        delivered = {m.source_id: m.delivered for m in run(c).per_source}
        assert min(delivered.values()) > 1000
        assert delay_draws == delivered

    def test_no_stream_draws_more_than_the_horizon(self, stream_draws) -> None:
        # no stream takes more than one draw per slot, so blocks are sized
        # by the horizon: without the cap the first delay draw alone fills
        # a 16,384-value block
        h = 2000
        c = config(
            n_sources=3,
            lambdas=(0.3, 0.2, 0.1),
            discipline=Discipline.FIFO,
            policy=PolicyConfig(PolicyKind.RANDOM_ACCESS, access_probs=(0.5, 0.5, 0.5)),
            channel=ChannelConfig(ChannelKind.ERASURE, service_probs=(0.8, 0.8, 0.8)),
            network_k=0.3,
            horizon=h,
        )
        assert run(c).per_source[0].delivered > 100
        assert {role for _, role in stream_draws} == {
            Role.ARRIVAL, Role.CHANNEL, Role.ACCESS, Role.DELAY
        }
        assert max(stream_draws.values()) <= h
        # twenty saturated sources draw their arrivals 819 slots at a time,
        # so after the first span a stream must not refill a whole block
        h = 10_000
        for discipline in Discipline:
            stream_draws.clear()
            run(config(n_sources=20, lambdas=(1.0,) * 20, discipline=discipline, horizon=h))
            assert stream_draws == {(i, Role.ARRIVAL): h for i in range(20)}


class TestStabilityWarning:
    def test_round_robin_fifo_threshold(self) -> None:
        # perfect channel shared by two sources: capacity share is 1/2 each
        stable = config(n_sources=2, lambdas=(0.4, 0.4), discipline=Discipline.FIFO, horizon=100)
        critical = config(n_sources=2, lambdas=(0.5, 0.4), discipline=Discipline.FIFO, horizon=100)
        assert [m.stability_warning for m in run(stable).per_source] == [False, False]
        assert [m.stability_warning for m in run(critical).per_source] == [True, False]

    def test_random_access_uses_access_prob(self) -> None:
        c = config(
            n_sources=2,
            lambdas=(0.2, 0.3),
            discipline=Discipline.FIFO,
            policy=PolicyConfig(PolicyKind.RANDOM_ACCESS, access_probs=(0.5, 0.9)),
            channel=ChannelConfig(ChannelKind.COLLISION),
            horizon=100,
        )
        # shares are q/N = 0.25 and 0.45
        assert [m.stability_warning for m in run(c).per_source] == [False, False]
        hot = config(
            n_sources=2,
            lambdas=(0.3, 0.3),
            discipline=Discipline.FIFO,
            policy=PolicyConfig(PolicyKind.RANDOM_ACCESS, access_probs=(0.5, 0.9)),
            channel=ChannelConfig(ChannelKind.COLLISION),
            horizon=100,
        )
        assert [m.stability_warning for m in run(hot).per_source] == [True, False]

    def test_replacement_never_warns(self) -> None:
        c = config(n_sources=2, lambdas=(0.9, 0.9), horizon=100)
        assert [m.stability_warning for m in run(c).per_source] == [False, False]


class TestNetworkStage:
    def test_unit_rate_shifts_age_by_one(self) -> None:
        # k=1 adds exactly one slot of delay and never reorders: the
        # destination age trace is the access-point trace one slot later
        h = 2000
        ap = run(config(lambdas=(1.0,), horizon=h))
        dest = run(config(lambdas=(1.0,), horizon=h, network_k=1.0))
        assert dest.per_source[0].avg_aoi == pytest.approx(3.0 - 3.0 / h, rel=1e-12)
        assert ap.per_source[0].avg_aoi == pytest.approx(2.0 - 1.0 / h, rel=1e-12)
        assert dest.per_source[0].obsolete == 0

    def test_ap_measurement_is_unaffected_by_the_stage(self) -> None:
        # delay draws come from a dedicated stream, so the access-point
        # trace is identical with and without the stage
        plain = run(config(lambdas=(0.6,), horizon=30_000, seed=8))
        staged = run(
            config(
                lambdas=(0.6,),
                horizon=30_000,
                seed=8,
                network_k=0.5,
                measure_at=MeasurePoint.AP,
            )
        )
        assert staged.per_source[0].avg_aoi == plain.per_source[0].avg_aoi

    def test_reordering_produces_obsolete_receptions(self) -> None:
        r = run(config(lambdas=(0.8,), horizon=50_000, network_k=0.4, seed=10))
        m = r.per_source[0]
        assert m.obsolete > 0
        assert m.informative + m.obsolete <= m.delivered  # some still in flight
        assert m.avg_aoi > 1.0 / 0.4  # at least the mean forwarding delay

    def test_destination_is_the_default_measure_point(self) -> None:
        with_stage = run(config(lambdas=(0.6,), horizon=10_000, network_k=0.5, seed=8))
        explicit = run(
            config(
                lambdas=(0.6,),
                horizon=10_000,
                network_k=0.5,
                seed=8,
                measure_at=MeasurePoint.DESTINATION,
            )
        )
        assert with_stage.per_source[0].avg_aoi == explicit.per_source[0].avg_aoi


class TestConfigValidation:
    def test_rejects_bad_shapes(self) -> None:
        with pytest.raises(ConfigError):
            config(n_sources=0, lambdas=()).validate()
        with pytest.raises(ConfigError):
            config(lambdas=(0.2, 0.3)).validate()
        with pytest.raises(ConfigError):
            config(lambdas=(1.5,)).validate()
        with pytest.raises(ConfigError):
            config(horizon=0).validate()
        with pytest.raises(ConfigError):
            config(warmup=1000).validate()  # not below horizon
        for k in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                config(network_k=k).validate()

    def test_policy_and_channel_checks_run(self) -> None:
        with pytest.raises(ConfigError):
            config(policy=PolicyConfig(PolicyKind.RANDOM_ACCESS)).validate()
        with pytest.raises(ConfigError):
            config(channel=ChannelConfig(ChannelKind.PERFECT, service_probs=(0.5,))).validate()
