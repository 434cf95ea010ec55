import numpy as np
import pytest

import importlib
import sys

import aoisim
from aoisim import access, cli, engine
from aoisim.queueing import SourceQueue
from aoisim.streams import SourceStreams
from perfbench import tracer as tracing

MODULES = [importlib.import_module(f"aoisim.{layer}") for layer in tracing.LAYERS]


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_a_nested_call(tmp_path):
    # outer [0, 10] calls inner twice: [1, 3] and [4, 7]
    tr = tracing.Tracer(tmp_path, clock=fake_clock([0.0, 1.0, 3.0, 4.0, 7.0, 10.0]))
    inner = tr.wrap("x.inner", lambda: None)

    def body():
        inner()
        inner()

    tr.wrap("x.outer", body)()
    spans = tr.spans()
    assert spans[:, tracing.PARENT].tolist() == [-1, 0, 0]
    assert tracing.self_times(spans).tolist() == [5.0, 2.0, 3.0]


def test_overlapping_children_subtract_their_union():
    rows = np.zeros((4, tracing.WIDTH))
    rows[:, tracing.START] = [0.0, 1.0, 2.0, 6.0]
    rows[:, tracing.END] = [10.0, 4.0, 5.0, 7.0]
    rows[:, tracing.PARENT] = [-1, 0, 0, 0]
    # children cover [1, 5] and [6, 7]: five of the parent's ten seconds
    assert tracing.self_times(rows).tolist() == [5.0, 3.0, 3.0, 1.0]


def test_uninstall_restores_every_binding(tmp_path):
    modules = [m for k, m in sys.modules.items() if k.startswith("aoisim")]
    before = tracing.snapshot(modules)
    original_grant = access.grant
    tr = tracing.Tracer(tmp_path)
    tr.install(MODULES)
    try:
        assert engine.grant is not original_grant
        assert aoisim.grant is engine.grant
        assert cli.run is engine.run
        assert SourceQueue.occupancy is not before[("aoisim.queueing", "SourceQueue", "occupancy")]
    finally:
        tr.uninstall()
    assert tracing.snapshot(modules) == before
    assert engine.grant is original_grant
    assert SourceStreams.__init__ is before[("aoisim.streams", "SourceStreams", "__init__")]


def _config(policy):
    doc = {
        "schema_version": 1, "n_sources": 3, "arrival_rates": 0.1, "discipline": "fifo",
        "policy": policy, "channel": "perfect", "network_k": 0.5, "horizon": 300, "seed": 4,
    }
    if policy == "random_access":
        doc.update(access_probs=0.3, channel="collision")
    return cli.build_sim_config(doc)


@pytest.mark.parametrize("policy", ["round_robin", "random_access"])
def test_traced_run_equals_untraced_and_counts_calls(tmp_path, policy):
    config = _config(policy)
    plain = engine.run(config)
    tr = tracing.Tracer(tmp_path)
    tr.install(MODULES)
    try:
        traced = engine.run(config)
    finally:
        tr.uninstall()
    assert repr(traced) == repr(plain)
    names = [tr.names[int(i)] for i in tr.spans()[:, tracing.NAME]]
    assert names.count("streams.SourceStreams.__init__") == 3
    assert names.count("engine.AoiTracker.sample") == 3 * 300
    assert names.count("netdelay.deliver_due") == 300
    # the engine's round-robin fast path never calls grant
    assert names.count("access.grant") == (300 if policy == "random_access" else 0)


def test_spans_of_pool_workers_are_collected(tmp_path):
    doc = tmp_path / "cfg.json"
    doc.write_text(
        '{"schema_version": 1, "n_sources": 2, "arrival_rates": 0.2, "discipline": "fifo",'
        ' "policy": "random_access", "access_probs": 0.4, "channel": "collision", "horizon": 200, "seed": 1}'
    )
    argv = ["sweep", "--config", str(doc), "--axis", "lambda", "--from", "0.1", "--to", "0.2",
            "--steps", "2", "--seeds", "2", "--workers", "2"]
    tr = tracing.Tracer(tmp_path / "spans")
    tr.install(MODULES)
    try:
        assert cli.main(argv + ["--out", str(tmp_path / "t.csv")]) == 0
        tr.collect_children()
    finally:
        tr.uninstall()
    assert cli.main(argv + ["--out", str(tmp_path / "u.csv")]) == 0
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "u.csv").read_bytes()
    spans = tr.spans()
    names = [tr.names[int(i)] for i in spans[:, tracing.NAME]]
    jobs = [i for i, n in enumerate(names) if n == "cli._sweep_job"]
    assert len(jobs) == 4 and names.count("access.grant") == 4 * 200
    sweep = names.index("cli.cmd_sweep")
    assert all(spans[j, tracing.PARENT] == sweep for j in jobs)
    assert 0.0 <= tracing.self_times(spans)[sweep] < spans[sweep, tracing.END] - spans[sweep, tracing.START]
