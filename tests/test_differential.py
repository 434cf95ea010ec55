"""The event-driven engine against the slot-by-slot reference loop.

``tests/reference_engine.py`` visits every slot; ``aoisim.engine`` visits only
event slots.  Both must produce the same report to the last bit, and the
engine's reception sums must equal those of the reference's full reception
trace, for every configuration and seed.  The golden digests pin the
absolute outputs as well, so a change in the shared building blocks (streams,
queues, channel) cannot move both sides of the comparison unseen.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from datetime import timedelta
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_engine
from aoisim import engine
from aoisim.access import ChannelConfig, ChannelKind, PolicyConfig, PolicyKind
from aoisim.cli import build_sim_config, main
from aoisim.engine import MeasurePoint, SimConfig
from aoisim.queueing import Discipline
from aoisim.streams import _BLOCK, Role, UniformStream


def stats_of_trace(log: reference_engine.DeliveryLog) -> dict[str, int]:
    """Fold a reference reception trace, left-empty marks included, one reception at a time."""
    marks = log.left_empty or [False] * len(log.gen_slots)
    return reference_engine.fold_trace(zip(log.gen_slots, log.recv_slots, marks))


def assert_same_run(config: SimConfig) -> None:
    report, sums = engine.run_with_logs(config)
    ref_report, ref_logs = reference_engine.run_with_logs(config)
    assert repr(report) == repr(ref_report)
    folds = [stats_of_trace(log) for log in ref_logs]
    for name in reference_engine.RECEPTION_SUMS:
        assert sums[name] == [fold[name] for fold in folds], name
    # the reference marks every delivery at the access point, or none
    for log in ref_logs:
        assert len(log.left_empty) in (0, len(log.gen_slots))


probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99))
positive_probability = st.one_of(st.just(1.0), st.floats(0.05, 0.99))


@st.composite
def configs(draw) -> SimConfig:
    n = draw(st.integers(1, 5))

    def per_source(values):
        return tuple(draw(st.lists(values, min_size=n, max_size=n)))

    kind = draw(st.sampled_from(list(PolicyKind)))
    policy = PolicyConfig(
        kind, per_source(positive_probability) if kind is PolicyKind.RANDOM_ACCESS else None
    )
    channel_kind = draw(st.sampled_from(list(ChannelKind)))
    if channel_kind is ChannelKind.PERFECT:
        channel = ChannelConfig(channel_kind)
    else:
        erasure = channel_kind is ChannelKind.ERASURE
        channel = ChannelConfig(
            channel_kind,
            service_probs=per_source(positive_probability) if erasure or draw(st.booleans()) else None,
            success_probs=per_source(positive_probability) if draw(st.booleans()) else None,
            collision_thinning=not erasure and draw(st.booleans()),
        )
    horizon = draw(st.integers(1, 600))
    return SimConfig(
        n_sources=n,
        lambdas=per_source(probability),
        discipline=draw(st.sampled_from(list(Discipline))),
        policy=policy,
        channel=channel,
        network_k=draw(st.one_of(st.none(), st.just(1.0), st.floats(0.05, 0.99))),
        horizon=horizon,
        seed=draw(st.integers(0, 2**32)),
        measure_at=draw(st.sampled_from([None, *MeasurePoint])),
        warmup=draw(st.one_of(st.just(0), st.integers(0, horizon - 1))),
    )


@settings(
    derandomize=True,
    max_examples=300,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(configs())
def test_event_engine_equals_slot_loop(config: SimConfig) -> None:
    assert_same_run(config)


@settings(
    derandomize=True,
    max_examples=150,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(configs())
def test_fifo_round_robin_kernel_equals_attempt_path(config: SimConfig) -> None:
    # FIFO round robin runs on the Lindley kernel; the attempt path, which
    # runs round robin under packet management, gives the same run
    config = dataclasses.replace(
        config, discipline=Discipline.FIFO, policy=PolicyConfig(PolicyKind.ROUND_ROBIN)
    )
    kernel = engine.run_with_logs(config)
    with mock.patch.object(engine, "_fifo_round_robin", engine._attempts):
        attempts = engine.run_with_logs(config)
    assert repr(attempts) == repr(kernel)


def _fifo_round_robin_config(lambdas, channel, horizon, warmup=0, seed=61) -> SimConfig:
    return SimConfig(
        n_sources=len(lambdas),
        lambdas=lambdas,
        discipline=Discipline.FIFO,
        policy=PolicyConfig(PolicyKind.ROUND_ROBIN),
        channel=channel,
        horizon=horizon,
        seed=seed,
        warmup=warmup,
    )


_KERNEL_EDGES = {
    # a service takes about 100 attempts, so the saturated source spends
    # every draw it owns and most of its updates get no success
    "successes_run_out": _fifo_round_robin_config(
        (1.0, 0.3), ChannelConfig(ChannelKind.ERASURE, service_probs=(0.01, 0.6)), 3000
    ),
    # about one arrival per span, so a take of about twice the draws one
    # success needs finds none now and then, and the source draws again
    "successes_drawn_again": _fifo_round_robin_config(
        (1e-4, 2e-4),
        ChannelConfig(ChannelKind.ERASURE, service_probs=(0.01, 0.005)),
        200_000,
        seed=2,
    ),
    "deliveries_past_the_horizon": _fifo_round_robin_config(
        (1.0, 0.7), ChannelConfig(ChannelKind.PERFECT), 5000
    ),
    "silent_next_to_saturated": _fifo_round_robin_config(
        (0.0, 1.0), ChannelConfig(ChannelKind.ERASURE, service_probs=(0.5, 0.4)), 4000
    ),
    "warmup_past_the_first_span": _fifo_round_robin_config(
        (0.1, 0.45, 0.3),
        ChannelConfig(ChannelKind.ERASURE, service_probs=(0.3, 0.9, 0.05)),
        2 * _BLOCK + 500,
        warmup=_BLOCK + 250,
    ),
    "one_slot": _fifo_round_robin_config(
        (1.0, 1.0, 0.5), ChannelConfig(ChannelKind.ERASURE, service_probs=(0.5, 1.0, 0.2)), 1
    ),
}


@pytest.mark.parametrize("name", list(_KERNEL_EDGES))
def test_fifo_round_robin_kernel_edges_equal_attempt_path(name: str) -> None:
    # the kernel draws channel successes only when a span's arrivals need
    # them, and drops a delivery at or after the horizon at once
    config = _KERNEL_EDGES[name]
    kernel = engine.run_with_logs(config)
    with mock.patch.object(engine, "_fifo_round_robin", engine._attempts):
        attempts = engine.run_with_logs(config)
    assert repr(attempts) == repr(kernel)


def test_fifo_round_robin_draws_no_more_than_its_owned_slots(monkeypatch) -> None:
    # a source's channel draws stop at the slots it owns before the
    # horizon, which the saturated sources at low mu reach
    draws: dict[int, int] = {}
    take_below = UniformStream.take_below

    def counting(self, p, count):
        if self._key[1] == Role.CHANNEL:
            draws[self._key[0]] = draws.get(self._key[0], 0) + count
        return take_below(self, p, count)

    monkeypatch.setattr(UniformStream, "take_below", counting)
    n, horizon = 3, 10_000
    channel = ChannelConfig(ChannelKind.ERASURE, service_probs=(0.01, 0.5, 0.05))
    config = _fifo_round_robin_config((1.0, 0.2, 1.0), channel, horizon)
    engine.run(config)
    owned = {i: (horizon - i + n - 1) // n for i in range(n)}
    assert all(draws[i] <= owned[i] for i in draws)
    assert draws[0] == owned[0] and draws[2] == owned[2]


@pytest.mark.parametrize(
    "policy",
    [PolicyConfig(PolicyKind.ROUND_ROBIN), PolicyConfig(PolicyKind.RANDOM_ACCESS, (0.5,))],
    ids=["round_robin", "random_access"],
)
def test_horizon_crossing_the_block_boundary(policy: PolicyConfig) -> None:
    # the arrival stream takes one draw per slot, and a critically loaded
    # random-access source one access draw in nearly every slot, so both
    # cross into their third block
    config = SimConfig(
        n_sources=1,
        lambdas=(0.45,),
        discipline=Discipline.FIFO,
        policy=policy,
        channel=ChannelConfig(ChannelKind.ERASURE, service_probs=(0.9,)),
        network_k=0.5,
        horizon=2 * _BLOCK + 500,
        seed=3,
        warmup=100,
    )
    assert_same_run(config)


@st.composite
def small_block_configs(draw) -> SimConfig:
    """Attempt-path runs whose successes are rare enough to cross 256-draw blocks.

    Round robin with packet management on an erasure or a thinned
    collision channel, or random access under either discipline; μ or q
    down to 0.05, and 0.003, where a block often holds no success.
    """
    n = draw(st.integers(1, 4))

    def per_source(values):
        return tuple(draw(st.lists(values, min_size=n, max_size=n)))

    rare = st.one_of(st.just(0.003), st.floats(0.05, 0.6))
    kind = draw(st.sampled_from(["erasure", "collision", "random_access"]))
    if kind == "random_access":
        policy = PolicyConfig(PolicyKind.RANDOM_ACCESS, per_source(rare))
        channel = ChannelConfig(ChannelKind.COLLISION)
        discipline = draw(st.sampled_from(list(Discipline)))
    else:
        policy = PolicyConfig(PolicyKind.ROUND_ROBIN)
        channel = ChannelConfig(
            ChannelKind(kind), success_probs=per_source(rare), collision_thinning=kind == "collision"
        )
        discipline = Discipline.REPLACEMENT
    horizon = draw(st.integers(1000, 3000))
    return SimConfig(
        n_sources=n,
        lambdas=per_source(st.floats(0.01, 0.5)),
        discipline=discipline,
        policy=policy,
        channel=channel,
        network_k=draw(st.one_of(st.none(), st.floats(0.2, 0.9))),
        horizon=horizon,
        seed=draw(st.integers(0, 2**32)),
        warmup=draw(st.one_of(st.just(0), st.integers(0, horizon // 2))),
    )


@settings(
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(small_block_configs())
def test_attempt_tables_refill_mid_run_and_mid_service(config: SimConfig) -> None:
    # every stream block 256 draws, so the tables of positions below p
    # that decide the attempts refill many times in a run, often within
    # a service's failed attempts
    with mock.patch.object(engine, "_STREAM_BUDGET", 1):
        assert engine._Run(config).block == 256
        assert_same_run(config)


def test_unstable_fifo_backlog_crosses_blocks() -> None:
    # source 0 arrives faster than it is served, so its backlog, and under
    # round robin the deliveries already computed for it, carry from one
    # block of slots into the next
    round_robin = SimConfig(
        n_sources=2,
        lambdas=(0.52, 0.3),  # above half of a perfect channel
        discipline=Discipline.FIFO,
        policy=PolicyConfig(PolicyKind.ROUND_ROBIN),
        channel=ChannelConfig(ChannelKind.PERFECT),
        horizon=2 * _BLOCK + 500,
        seed=29,
    )
    random_access = dataclasses.replace(
        round_robin,
        lambdas=(0.6, 0.05),  # above source 0's access probability
        policy=PolicyConfig(PolicyKind.RANDOM_ACCESS, (0.5, 0.3)),
        channel=ChannelConfig(ChannelKind.COLLISION),
        network_k=0.5,
    )
    for config in (round_robin, random_access):
        assert engine.run(config).per_source[0].in_system_at_end > 100
        assert_same_run(config)


_ACROSS_BLOCKS = {
    "round_robin": (
        (0.1, 0.2, 0.25),
        PolicyConfig(PolicyKind.ROUND_ROBIN),
        ChannelConfig(ChannelKind.ERASURE, service_probs=(0.6, 0.8, 0.9)),
    ),
    "random_access": (
        (0.02, 0.05, 0.08),
        PolicyConfig(PolicyKind.RANDOM_ACCESS, (0.3, 0.4, 0.5)),
        ChannelConfig(ChannelKind.COLLISION),
    ),
    "random_access_thinned": (
        (0.02, 0.05, 0.08),
        PolicyConfig(PolicyKind.RANDOM_ACCESS, (0.3, 0.4, 0.5)),
        ChannelConfig(
            ChannelKind.COLLISION, service_probs=(0.6, 0.8, 0.9), collision_thinning=True
        ),
    ),
}


@pytest.mark.parametrize(
    "name, measure_at",
    [
        pytest.param(name, m, id=m.value if name == "round_robin" else f"{name}-{m.value}")
        for name in _ACROSS_BLOCKS
        for m in MeasurePoint
    ],
)
def test_fifo_delay_stage_and_warmup_across_blocks(name: str, measure_at: MeasurePoint) -> None:
    # updates in flight through the delay stage, and the reception sums,
    # carry across blocks, and the window opens in the second block
    lambdas, policy, channel = _ACROSS_BLOCKS[name]
    config = SimConfig(
        n_sources=3,
        lambdas=lambdas,
        discipline=Discipline.FIFO,
        policy=policy,
        channel=channel,
        network_k=0.3,
        horizon=2 * _BLOCK + 500,
        seed=31,
        measure_at=measure_at,
        warmup=_BLOCK + 250,
    )
    assert_same_run(config)


_SPAN_END_CASES = {
    **{
        f"round_robin_{discipline.value}": (
            discipline,
            (0.1, 0.2, 0.25),
            PolicyConfig(PolicyKind.ROUND_ROBIN),
            ChannelConfig(ChannelKind.ERASURE, service_probs=(0.6, 0.8, 0.9)),
        )
        for discipline in Discipline
    },
    **{
        f"random_access_{discipline.value}": (
            discipline,
            (0.02, 0.05, 0.08),
            PolicyConfig(PolicyKind.RANDOM_ACCESS, (0.3, 0.4, 0.5)),
            ChannelConfig(ChannelKind.COLLISION),
        )
        for discipline in Discipline
    },
    **{
        f"work_conserving_{discipline.value}": (
            discipline,
            (0.1, 0.2, 0.25),
            PolicyConfig(PolicyKind.WORK_CONSERVING),
            ChannelConfig(ChannelKind.ERASURE, service_probs=(0.6, 0.8, 0.9)),
        )
        for discipline in Discipline
    },
}


@pytest.mark.parametrize("measure_at", list(MeasurePoint), ids=lambda m: m.value)
@pytest.mark.parametrize("name", list(_SPAN_END_CASES))
def test_every_path_across_span_ends_with_updates_in_flight(
    name: str, measure_at: MeasurePoint
) -> None:
    # both paths, the Lindley kernel (FIFO round robin) and the attempt
    # path (every other policy and discipline), hand a span's arrivals and
    # deliveries on at the span's end, slot 16,384, while the window is open
    # and updates are in flight through the delay stage, so those updates,
    # the occupancy and the arrivals a replacement queue admits all carry
    # across it
    discipline, lambdas, policy, channel = _SPAN_END_CASES[name]
    config = SimConfig(
        n_sources=3,
        lambdas=lambdas,
        discipline=discipline,
        policy=policy,
        channel=channel,
        network_k=0.3,
        horizon=2 * _BLOCK + 500,
        seed=59,
        measure_at=measure_at,
        warmup=_BLOCK // 2,
    )
    assert_same_run(config)


def test_spans_grow_with_a_long_backlog(monkeypatch) -> None:
    # four saturated sources share a round robin, so more than two blocks
    # of deliveries are scheduled after some 16,000 slots, and a span then
    # covers more slots than the arrival calendar's 4,096
    spans = []
    take_below = UniformStream.take_below

    def recording(self, p, count):
        if self._key == (0, Role.ARRIVAL):
            spans.append(count)
        return take_below(self, p, count)

    monkeypatch.setattr(UniformStream, "take_below", recording)
    config = SimConfig(
        n_sources=4,
        lambdas=(1.0, 1.0, 1.0, 1.0),
        discipline=Discipline.FIFO,
        policy=PolicyConfig(PolicyKind.ROUND_ROBIN),
        channel=ChannelConfig(ChannelKind.ERASURE, service_probs=(0.5, 0.9, 1.0, 0.3)),
        horizon=80_000,
        seed=41,
        warmup=3000,
    )
    assert_same_run(config)
    assert max(spans) > _BLOCK // 4


_PYTHON_INTEGER_RUNS = {
    measure_at.value: SimConfig(
        n_sources=2,
        lambdas=(0.3, 0.45),
        discipline=Discipline.FIFO,
        policy=PolicyConfig(PolicyKind.ROUND_ROBIN),
        channel=ChannelConfig(ChannelKind.ERASURE, service_probs=(0.7, 0.9)),
        network_k=0.4,
        horizon=5000,
        seed=37,
        measure_at=measure_at,
        warmup=600,
    )
    for measure_at in MeasurePoint
} | {
    "round_robin_replacement": SimConfig(
        n_sources=3,
        lambdas=(0.2, 0.35, 0.6),
        discipline=Discipline.REPLACEMENT,
        policy=PolicyConfig(PolicyKind.ROUND_ROBIN),
        channel=ChannelConfig(ChannelKind.ERASURE, service_probs=(0.5, 0.8, 0.9)),
        horizon=5000,
        seed=43,
        warmup=400,
    ),
    "random_access_destination": SimConfig(
        n_sources=3,
        lambdas=(0.05, 0.1, 0.15),
        discipline=Discipline.FIFO,
        policy=PolicyConfig(PolicyKind.RANDOM_ACCESS, (0.4, 0.5, 0.6)),
        channel=ChannelConfig(ChannelKind.COLLISION, success_probs=(0.9, 0.9, 0.8)),
        network_k=0.3,
        horizon=5000,
        seed=47,
        measure_at=MeasurePoint.DESTINATION,
        warmup=300,
    ),
    "random_access_fifo": SimConfig(
        n_sources=3,
        lambdas=(0.05, 0.1, 0.15),
        discipline=Discipline.FIFO,
        policy=PolicyConfig(PolicyKind.RANDOM_ACCESS, (0.4, 0.5, 0.6)),
        channel=ChannelConfig(
            ChannelKind.COLLISION, service_probs=(0.9, 0.8, 0.9), collision_thinning=True
        ),
        network_k=0.3,
        horizon=5000,
        seed=53,
        measure_at=MeasurePoint.AP,
        warmup=300,
    ),
}


@pytest.mark.parametrize("name", list(_PYTHON_INTEGER_RUNS))
def test_fifo_sums_in_python_integers(name: str, monkeypatch) -> None:
    # from _INT64_HORIZON on, a run adds its terms as Python integers, which
    # int64 could not hold; a short run takes that path here, on the FIFO
    # round-robin kernel and on the attempt path, which share the sums
    monkeypatch.setattr(engine, "_INT64_HORIZON", 1)
    assert_same_run(_PYTHON_INTEGER_RUNS[name])


@pytest.mark.parametrize("discipline", list(Discipline))
def test_arrival_calendar_with_mixed_sources(discipline: Discipline, stream_draws) -> None:
    # a silent source, a saturated one and two in between share each
    # calendar, which covers fewer slots than a block and so changes
    # several times before the horizon; under packet management the
    # saturated source replaces its waiting update in nearly every slot
    # before that update's first owned slot
    config = SimConfig(
        n_sources=4,
        lambdas=(0.0, 1.0, 0.3, 0.45),
        discipline=discipline,
        policy=PolicyConfig(PolicyKind.ROUND_ROBIN),
        channel=ChannelConfig(ChannelKind.ERASURE, service_probs=(0.9, 0.7, 0.5, 0.8)),
        horizon=2 * _BLOCK + 500,
        seed=23,
        warmup=250,
    )
    engine.run(config)
    assert stream_draws
    assert not [key for key in stream_draws if key[0] == 0]
    assert_same_run(config)


@pytest.mark.parametrize("discipline", list(Discipline))
def test_failure_runs_cross_channel_blocks(discipline: Discipline) -> None:
    # at mu = 0.001 a service takes about 1000 attempts, so the engine's
    # draws ahead to the success slot cross two 16,384-draw channel blocks
    config = SimConfig(
        n_sources=1,
        lambdas=(0.01,),
        discipline=discipline,
        policy=PolicyConfig(PolicyKind.ROUND_ROBIN),
        channel=ChannelConfig(ChannelKind.ERASURE, service_probs=(0.001,)),
        horizon=40_000,
        seed=17,
    )
    assert_same_run(config)


def test_no_success_left_before_the_horizon() -> None:
    # every source is still backlogged at the horizon, its last service
    # cut short; a source whose draws hold no success before the horizon
    # must not be scheduled again, or it would use draws of later slots
    config = SimConfig(
        n_sources=3,
        lambdas=(0.05, 0.05, 0.05),
        discipline=Discipline.FIFO,
        policy=PolicyConfig(PolicyKind.ROUND_ROBIN),
        channel=ChannelConfig(ChannelKind.ERASURE, service_probs=(0.02, 0.02, 0.02)),
        horizon=3000,
        seed=8,
    )
    assert all(m.in_system_at_end > 0 for m in engine.run(config).per_source)
    assert_same_run(config)


def test_round_robin_on_a_thinned_collision_channel() -> None:
    config = SimConfig(
        n_sources=2,
        lambdas=(0.2, 0.35),
        discipline=Discipline.REPLACEMENT,
        policy=PolicyConfig(PolicyKind.ROUND_ROBIN),
        channel=ChannelConfig(
            ChannelKind.COLLISION, success_probs=(0.3, 0.3), collision_thinning=True
        ),
        horizon=6000,
        seed=12,
        warmup=700,
    )
    assert_same_run(config)


# sha256 of repr(run(config)) and of the `simulate` CSV.  The CSV digests were
# recorded with the slot-by-slot engine; the report digests with the event
# engine's last version that kept full reception traces, and the slot-by-slot
# reference gives the same.  Both digests of the last two docs were recorded
# with the event engine's last version that still visited every failed
# round-robin attempt.
GOLDEN_DOCS = {
    "dedicated_replacement": dict(
        n_sources=1, arrival_rates=0.2, discipline="replacement", policy="round_robin",
        channel="erasure", service_probs=0.5, horizon=20000, seed=3,
    ),
    "dedicated_fifo_warmup": dict(
        n_sources=1, arrival_rates=0.35, discipline="fifo", policy="work_conserving",
        channel="erasure", service_probs=0.6, horizon=20000, warmup=500, seed=4,
    ),
    "rr_mixed_rates": dict(
        n_sources=3, arrival_rates=[0.1, 0.4, 1.0], discipline="replacement",
        policy="round_robin", channel="perfect", horizon=5000, seed=7,
    ),
    "wc_erasure_warmup": dict(
        n_sources=4, arrival_rates=[0.05, 0.1, 0.15, 0.2], discipline="fifo",
        policy="work_conserving", channel="erasure", service_probs=0.7, success_probs=0.9,
        horizon=8000, warmup=100, seed=11,
    ),
    "ra_collision_delay": dict(
        n_sources=3, arrival_rates=0.05, discipline="fifo", policy="random_access",
        access_probs=0.3, channel="collision", network_k=0.3, horizon=8000, seed=5,
    ),
    "ra_thinning_ap_warmup": dict(
        n_sources=2, arrival_rates=[0.2, 0.0], discipline="replacement",
        policy="random_access", access_probs=[0.5, 0.9], channel="collision",
        success_probs=0.8, collision_thinning=True, network_k=0.5, measure_at="ap",
        horizon=6000, warmup=300, seed=2,
    ),
    "rr_unit_delay_long": dict(
        n_sources=2, arrival_rates=0.3, discipline="replacement", policy="round_robin",
        channel="erasure", service_probs=0.8, network_k=1.0, horizon=40000, seed=9,
    ),
    "ra_erasure_long": dict(
        n_sources=5, arrival_rates=0.08, discipline="fifo", policy="random_access",
        access_probs=0.4, channel="erasure", service_probs=0.6, horizon=20000, seed=13,
    ),
    "rr_n100": dict(
        n_sources=100, arrival_rates=0.004, discipline="replacement", policy="round_robin",
        channel="perfect", horizon=3000, seed=21,
    ),
    "rr_low_mu_fifo": dict(
        n_sources=2, arrival_rates=0.05, discipline="fifo", policy="round_robin",
        channel="erasure", service_probs=0.1, horizon=30000, seed=17,
    ),
    "rr_thinned_collision_warmup": dict(
        n_sources=2, arrival_rates=[0.3, 0.15], discipline="replacement", policy="round_robin",
        channel="collision", success_probs=[0.4, 0.7], collision_thinning=True,
        horizon=12000, warmup=400, seed=19,
    ),
}

GOLDEN_DIGESTS = {
    "dedicated_replacement": (
        "0b4ec3a64583d9f0c304b7bfd7dd09e070e862b9ef45e2715112b7fd025b8580",
        "f824ece4d6120da9b1ee31bd089896508d80788000b8ce3f42dbd318db408113",
    ),
    "dedicated_fifo_warmup": (
        "32b341fa47fd3475cf92a40d4ed97daf1db749fa9005364be2ff2e657f31984a",
        "e1f5ebf5a290543ee411d5d896ce3a435d80ca5a50229e391761872d39684e55",
    ),
    "rr_mixed_rates": (
        "39d503417c87541f29467aecde88d9f8f7fb2b662b32a6a2f09430f487f82b8e",
        "3595c1f19b5036876854feb15d2d85c92de128c81cb69ab56914f28314ffd4fe",
    ),
    "wc_erasure_warmup": (
        "0203965c6933f1de7d504273c72baf861cf7c9bf9fe5111085ef6e5178c1f546",
        "dd0e75f8a702ae171713aff5fb3c17b0bc32b5a2d2c9afeb027e3ba5f6dfdcbe",
    ),
    "ra_collision_delay": (
        "7d3bcf5405cf69c33fc0a4ad499c79969b63e0760dd9bd13bd714a2af4249265",
        "fbfeca903577d2b761d27b6f57351a054bdce2b21b8b559e887392db08c2aaca",
    ),
    "ra_thinning_ap_warmup": (
        "ab8be331bcf2b6723d42637f91c03eb5df8627a44eee598dbcb4e35910bf82ff",
        "33916f5bffc4a068a2012609dde9a3b13f2f64ba9fe988fc6ee3b2f68d969873",
    ),
    "rr_unit_delay_long": (
        "3c07e18268547c301c1ec5a791143908deb580b46bfed0931d3b0a7e4a919d93",
        "ff586d7ba304b77cdaf57cbdcb861043e271055fd98283db9d1920ab40207f93",
    ),
    "ra_erasure_long": (
        "1039fff4e002569fe1cb8e53fda94cc70e58cad0340498b49f7d996d27aa8345",
        "9d20861d0fb4c689c697e7406cd07284b9216a1b459a779143c6b1287acc02e1",
    ),
    "rr_n100": (
        "7356345dfbe493e0daab42a3f4f9770606099199fe0d1c119af12c3df8ece538",
        "035ad9d5cba6ef102488c277b396fe4c85a488dc830b2231477fbb80bd3a8b14",
    ),
    "rr_low_mu_fifo": (
        "54e8df62010f1ef901894395334610049bab6cdc2ae1a4ab59563000babc2369",
        "7c7077ec9865d7ea36fd3e931c71a6852de150268df89ec71dfe2a1700bef08d",
    ),
    "rr_thinned_collision_warmup": (
        "3e92774b4d67e179d25111630ea343e9dafb68a12944dc3ea42ec81e7403f045",
        "6fe4a2886d6fd3fba028a3550a7c5964d49eec8d82a0282b85a0e78d69d23e89",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DOCS))
def test_golden_digests(name: str, tmp_path) -> None:
    doc = dict(schema_version=1, **GOLDEN_DOCS[name])
    report_digest, csv_digest = GOLDEN_DIGESTS[name]
    config = build_sim_config(doc)
    assert hashlib.sha256(repr(engine.run(config)).encode()).hexdigest() == report_digest
    cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg_path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == csv_digest


# sha256 of `validate --json` output and its exit code, recorded with the
# event engine's last version that still kept full reception traces
GOLDEN_VALIDATE = {
    "dedicated_fifo": (
        dict(
            n_sources=1, arrival_rates=0.35, discipline="fifo", policy="round_robin",
            channel="erasure", service_probs=0.6, horizon=20000, warmup=200, seed=4,
        ),
        3,
        "ec17ce2bcd2b1db658fe7832faffee4ed851fdab9912789ef1c4746c101b0e4d",
    ),
    "dedicated_replacement": (
        dict(
            n_sources=1, arrival_rates=0.2, discipline="replacement", policy="round_robin",
            channel="erasure", service_probs=0.5, horizon=20000, seed=3,
        ),
        3,
        "892af342393c69cfa0aa931901329303cb262f40cfced70066292ca1028c9ac1",
    ),
    "replacement_lam_above_mu": (
        dict(
            n_sources=1, arrival_rates=0.7, discipline="replacement", policy="round_robin",
            channel="erasure", service_probs=0.3, horizon=20000, seed=11,
        ),
        3,
        "6d5012560479f0a3a58adf76796851d5a99346c55bce7a1f33349cc969ea201f",
    ),
    "replacement_equal_rates": (
        dict(
            n_sources=1, arrival_rates=0.5, discipline="replacement", policy="round_robin",
            channel="erasure", service_probs=0.5, horizon=20000, seed=6,
        ),
        3,
        "884cc68520f35bbf10a163ba8d1754558741d5291da7bb21110852c1087df404",
    ),
    "replacement_perfect": (
        dict(
            n_sources=1, arrival_rates=0.3, discipline="replacement", policy="round_robin",
            channel="perfect", horizon=20000, seed=8,
        ),
        0,
        "ed8afb98794582d094228dab7618ca3cfce909249d2ce5816567883a9af23e98",
    ),
    "fifo_wc_thinned_collision": (
        dict(
            n_sources=1, arrival_rates=0.35, discipline="fifo", policy="work_conserving",
            channel="collision", service_probs=0.8, success_probs=0.9, collision_thinning=True,
            horizon=20000, warmup=300, seed=14,
        ),
        3,
        "d92ccd35266b40a8764a592646ec3b9c04183c985b8a91c2dc6325d15568439b",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_VALIDATE))
def test_golden_validate_digests(name: str, tmp_path, capsys) -> None:
    doc, code, digest = GOLDEN_VALIDATE[name]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(schema_version=1, **doc)))
    capsys.readouterr()
    assert main(["validate", "--config", str(cfg_path), "--json"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of `validate`'s text table, for two of the configs above
GOLDEN_VALIDATE_TEXT = {
    "dedicated_fifo": "d2c8ffeb916a729cab3437a16c99a28ea5f5a9779279f670185dc983c9b4dfea",
    "dedicated_replacement": "2ab99fbe3fd3436a6a9daee944bf647d6f3646a242f50f7a61a8ee3eb714baa6",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_VALIDATE_TEXT))
def test_golden_validate_text_digests(name: str, tmp_path, capsys) -> None:
    doc, code, _ = GOLDEN_VALIDATE[name]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(schema_version=1, **doc)))
    capsys.readouterr()
    assert main(["validate", "--config", str(cfg_path)]) == code
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_VALIDATE_TEXT[name]


# sha256 of `analytic --model <model>` output, as a table and as JSON, at
# (lambda, mu): (model, table digest, JSON digest).  The FIFO forms need
# lam < mu, so pairs with lam >= mu pin the replacement block alone.
GOLDEN_ANALYTIC = {
    ("0.2", "0.5"): (
        "all",
        "abed7a2f5fe91e7f02089eaf9005bd82da1d86736422f1142344542c581557ba",
        "da87215d8abfbf87eb0e9a59e02989ae2bed2b755c4a9fa66ef764d420b305ec",
    ),
    ("0.5", "1.0"): (
        "all",
        "45d9c7fa7440a4c5791d89005faf5195efb6d7f62e73fb1b66c225b031d3fd95",
        "552c355a8fb43a671c709abff12630d100239310bb431e870010539c85a318a2",
    ),
    ("0.7", "0.3"): (
        "replacement",
        "fcbeadef7643f09ce09abcddff11e1151ee414a141dbab035d57369c1d73b873",
        "79224b1bc0e18bcffff6d921659b44d511977d1b6206bcc445403247a10be2bf",
    ),
    ("0.5", "0.5"): (
        "replacement",
        "1b050a3b3b4f3bd4c129f12d8718ec632601e58fbcdcf7241130360cbe563009",
        "905ba5e5ae4c1bc7414e82cb4f95b1f6707a23a3d942581c38faac2f23ae1433",
    ),
    ("0.95", "0.05"): (
        "replacement",
        "351d968bca1cd6f1e963e6d63613e108beb1203d6c2bb5b9215011ff25c14b28",
        "26a5073ed8a91f4ebd334a34cb0fdae048d4ebb280b7b6e51107500144f5a0b1",
    ),
}


@pytest.mark.parametrize("lam, mu", sorted(GOLDEN_ANALYTIC))
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_golden_analytic_digests(lam: str, mu: str, as_json: bool, capsys) -> None:
    model, *digests = GOLDEN_ANALYTIC[lam, mu]
    argv = ["analytic", "--lambda", lam, "--mu", mu, "--model", model]
    capsys.readouterr()
    assert main(argv + ["--json"] * as_json) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == digests[as_json]
