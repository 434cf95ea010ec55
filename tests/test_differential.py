"""The event-driven engine against the slot-by-slot reference loop.

``tests/reference_engine.py`` visits every slot; ``aoisim.engine`` visits only
event slots.  Both must produce the same report and the same reception traces,
to the last bit, for every configuration and seed.  The golden digests pin the
absolute outputs as well, so a change in the shared building blocks (streams,
queues, channel) cannot move both sides of the comparison unseen.
"""
from __future__ import annotations

import hashlib
import json
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_engine
from aoisim import engine
from aoisim.access import ChannelConfig, ChannelKind, PolicyConfig, PolicyKind
from aoisim.cli import build_sim_config, main
from aoisim.engine import MeasurePoint, SimConfig
from aoisim.queueing import Discipline
from aoisim.streams import _BLOCK


def assert_same_run(config: SimConfig) -> None:
    report, logs = engine.run_with_logs(config)
    ref_report, ref_logs = reference_engine.run_with_logs(config)
    assert repr(report) == repr(ref_report)
    assert len(logs) == len(ref_logs)
    for log, ref in zip(logs, ref_logs):
        assert log.gen_slots == ref.gen_slots
        assert log.recv_slots == ref.recv_slots
        assert log.left_empty == ref.left_empty


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


# sha256 of repr(run_with_logs(config)) and of the `simulate` CSV, recorded
# with the slot-by-slot engine
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
}

GOLDEN_DIGESTS = {
    "dedicated_replacement": (
        "33dbe8c73fc61b1d5c184da3a7badf5c44789945a2ca14811f8c70217ec3eb16",
        "f824ece4d6120da9b1ee31bd089896508d80788000b8ce3f42dbd318db408113",
    ),
    "dedicated_fifo_warmup": (
        "1bbb90ddfd278e070e48bdec2d21f74ac364d5060ed8cd59f100cb9c9d4b83c9",
        "e1f5ebf5a290543ee411d5d896ce3a435d80ca5a50229e391761872d39684e55",
    ),
    "rr_mixed_rates": (
        "6f36975e64d592537f641c257c6fa9509295b97eeadcd68b101f117d1e668e18",
        "3595c1f19b5036876854feb15d2d85c92de128c81cb69ab56914f28314ffd4fe",
    ),
    "wc_erasure_warmup": (
        "b01570b277927ed75186ed45022c8df45545eedb2581295d1b97d5953345be53",
        "dd0e75f8a702ae171713aff5fb3c17b0bc32b5a2d2c9afeb027e3ba5f6dfdcbe",
    ),
    "ra_collision_delay": (
        "b0e927a57696365a3d6f19fdf3d0e99f1bcbe0d5b0a2c75f8dfd041fa63a9675",
        "fbfeca903577d2b761d27b6f57351a054bdce2b21b8b559e887392db08c2aaca",
    ),
    "ra_thinning_ap_warmup": (
        "6b5af95787665dc464130a1a4c3f5d681747ac478ed9b0196a19fcf2f3c98be0",
        "33916f5bffc4a068a2012609dde9a3b13f2f64ba9fe988fc6ee3b2f68d969873",
    ),
    "rr_unit_delay_long": (
        "61cfed0c074526f6e6327a833923888b21480c9357393063d74e6dd5d1aa1cea",
        "ff586d7ba304b77cdaf57cbdcb861043e271055fd98283db9d1920ab40207f93",
    ),
    "ra_erasure_long": (
        "8a0f249fe19cc3bc0f16179ff4f3cbade14e036a4c61780e0b7c5b6b8d9fa988",
        "9d20861d0fb4c689c697e7406cd07284b9216a1b459a779143c6b1287acc02e1",
    ),
    "rr_n100": (
        "d48273dfb2afd33bca11421b577845147a63b6540cf59c6ed228424d9f2dac73",
        "035ad9d5cba6ef102488c277b396fe4c85a488dc830b2231477fbb80bd3a8b14",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DOCS))
def test_golden_digests(name: str, tmp_path) -> None:
    doc = dict(schema_version=1, **GOLDEN_DOCS[name])
    report_digest, csv_digest = GOLDEN_DIGESTS[name]
    config = build_sim_config(doc)
    assert hashlib.sha256(repr(engine.run_with_logs(config)).encode()).hexdigest() == report_digest
    cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg_path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == csv_digest
