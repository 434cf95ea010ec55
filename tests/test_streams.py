"""Random streams: the spawn-key derivation, lazy start, reproducibility, block-wise takes."""
from __future__ import annotations

import ast
import dataclasses
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aoisim
from aoisim import engine, streams
from aoisim.access import ChannelConfig, ChannelKind, PolicyConfig, PolicyKind
from aoisim.queueing import Discipline
from aoisim.streams import _BLOCK, Role, SourceStreams, UniformStream


def spawn_key_state(seed: int, key: tuple[int, ...]) -> list[int]:
    ss = np.random.SeedSequence(seed & (2**64 - 1), spawn_key=key)
    return ss.generate_state(4, np.uint64).tolist()


@pytest.mark.parametrize("key", [(0, 0), (7, 3), (2**32 - 1, 1), (2**32, 2)])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5, -1])
def test_draws_equal_the_spawn_key_generator(seed: int, key: tuple[int, ...]) -> None:
    """A stream draws what numpy's SeedSequence with its spawn key seeds, across blocks."""
    # a full first block, then a second one of the 500 values left in the budget
    stream = UniformStream(seed, key, _BLOCK + 500)
    ss = np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=key)
    expected = np.random.Generator(np.random.PCG64(ss)).random(_BLOCK + 500)
    assert [stream.uniform() for _ in range(_BLOCK + 500)] == expected.tolist()
    with pytest.raises(RuntimeError):
        stream.uniform()


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5, -1])
def test_one_batched_derivation_equals_the_spawn_key_states(seed: int) -> None:
    """One call derives what SeedSequence does for every key, at the seeds above."""
    keys = [(i, role) for i in range(300) for role in range(4)]
    table = streams._states(seed, keys)
    assert table.dtype == np.uint64 and table.shape == (len(keys), 4)
    assert table.tolist() == [spawn_key_state(seed, key) for key in keys]
    # elements of 2**32 and more take one more 32-bit word each, 0 takes one
    wide = [(2**32, 2), (2**40 + 3, 0), (7, 2**63 + 1)]
    assert streams._states(seed, wide).tolist() == [spawn_key_state(seed, key) for key in wide]


def test_a_negative_key_element_is_refused() -> None:
    with pytest.raises(ValueError):
        streams._states(1, [(0, 0), (-1, 0)])
    with pytest.raises(ValueError):
        UniformStream(1, (3, -2)).uniform()


def _config(n: int, policy: PolicyConfig, channel: ChannelConfig, **kw) -> engine.SimConfig:
    return engine.SimConfig(
        n_sources=n, lambdas=(0.05,) * n, discipline=Discipline.FIFO, policy=policy,
        channel=channel, horizon=3000, seed=11, **kw,
    )


def test_streams_seeded_from_a_run_table_draw_what_streams_made_alone_draw() -> None:
    # PCG64 reads a state's words through a raw pointer: a row that is not
    # contiguous in the run's table would seed some other state
    config = dataclasses.replace(
        _config(
            6,
            PolicyConfig(PolicyKind.RANDOM_ACCESS, access_probs=(0.3,) * 6),
            ChannelConfig(ChannelKind.ERASURE, service_probs=(0.5,) * 6),
            network_k=0.2,
        ),
        lambdas=(0.05, 0.0, 0.1, 0.2, 0.3, 0.4),
    )
    run = engine._Run(config)
    for i, source in enumerate(run.streams):
        alone = SourceStreams(config.seed, i)
        for role in ("arrival", "channel", "access", "delay"):
            draws = [getattr(source, role).uniform() for _ in range(5)]
            assert draws == [getattr(alone, role).uniform() for _ in range(5)], (i, role)


@pytest.mark.parametrize(
    "config",
    [
        _config(100, PolicyConfig(PolicyKind.ROUND_ROBIN), ChannelConfig(ChannelKind.PERFECT)),
        _config(
            10,
            PolicyConfig(PolicyKind.RANDOM_ACCESS, access_probs=(0.15,) * 10),
            ChannelConfig(ChannelKind.COLLISION),
            network_k=0.1,
        ),
    ],
    ids=["round_robin_100", "random_access_10_delay"],
)
def test_a_run_derives_its_stream_states_in_one_call(monkeypatch, config) -> None:
    calls = []
    derive = streams._states

    def counting(seed, keys):
        calls.append(len(keys))
        return derive(seed, keys)

    monkeypatch.setattr(streams, "_states", counting)
    report = engine.run(config)
    assert sum(m.delivered for m in report.per_source) > 0
    n = config.n_sources
    # arrivals on a perfect channel; arrivals, access and delay under random access
    assert calls == [n if config.policy.kind is PolicyKind.ROUND_ROBIN else 3 * n]


def test_round_robin_on_a_perfect_channel_builds_only_arrival_streams(monkeypatch) -> None:
    built: Counter[int] = Counter()
    init = UniformStream.__init__

    def counting(self, seed, key, *args) -> None:
        built[key[1]] += 1
        init(self, seed, key, *args)

    monkeypatch.setattr(UniformStream, "__init__", counting)
    config = engine.SimConfig(
        n_sources=5,
        lambdas=(0.1,) * 5,
        discipline=Discipline.FIFO,
        policy=PolicyConfig(PolicyKind.ROUND_ROBIN),
        channel=ChannelConfig(ChannelKind.PERFECT),
        horizon=2000,
        seed=3,
    )
    engine.run(config)
    assert built == {Role.ARRIVAL: 5}
    # an erasure channel needs the channel streams too, and gets them
    built.clear()
    erasure = ChannelConfig(ChannelKind.ERASURE, service_probs=(0.5,) * 5)
    engine.run(dataclasses.replace(config, channel=erasure))
    assert built == {Role.ARRIVAL: 5, Role.CHANNEL: 5}


def _loaded_by_importing_the_cli(modules: tuple[str, ...]) -> list[str]:
    """Which of ``modules`` a fresh interpreter has loaded after ``import aoisim.cli``."""
    env = dict(os.environ, PYTHONPATH=str(Path(aoisim.__file__).resolve().parents[1]))
    code = f"import sys, aoisim.cli; print([m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip())


def test_importing_the_cli_leaves_numpy_random_unloaded() -> None:
    """``numpy.random`` loads at a stream's first draw, which keeps start-up cheap."""
    assert _loaded_by_importing_the_cli(("numpy.random",)) == []


def test_importing_the_cli_leaves_process_machinery_unloaded() -> None:
    """A sweep imports ``multiprocessing`` only when it starts a child."""
    assert _loaded_by_importing_the_cli(("multiprocessing", "concurrent.futures")) == []


def test_draws_do_not_depend_on_block_sizes() -> None:
    plain = UniformStream(9, (0, 0))
    draws = [plain.uniform() for _ in range(_BLOCK + 20)]
    assert all(0.0 <= u < 1.0 for u in draws)
    # a first take of 10 draws sizes the first block to 10
    short = UniformStream(9, (0, 0))
    assert short.take_below(0.0, 10).tolist() == []
    assert [short.uniform() for _ in range(_BLOCK + 10)] == draws[10:]


@pytest.mark.parametrize("p", [0.9, 0.1, 0.001])
def test_geometric_takes_one_draw_each_across_blocks(p: float) -> None:
    # each number is int(log(1 - u) / log(1 - p)) + 1 of the next draw u,
    # the first block sized by the first count
    budget = _BLOCK + 500
    scalar = UniformStream(12, (0, 3), budget)
    expected = [
        int(math.log(1.0 - scalar.uniform()) / math.log(1.0 - p)) + 1 for _ in range(budget)
    ]
    stream = UniformStream(12, (0, 3), budget)
    counts = (3, _BLOCK, 0, 497)
    got = [stream.geometric(p, count).tolist() for count in counts]
    assert [len(g) for g in got] == list(counts)
    assert sum(got, []) == expected
    with pytest.raises(RuntimeError):
        stream.geometric(p, 1)  # the budget is spent


def test_geometric_at_certain_success_or_below_precision() -> None:
    stream = UniformStream(12, (0, 3), 10)
    assert stream.geometric(1.0, 20).tolist() == [1] * 20  # no draw taken
    assert stream._buf is None
    # 1 - p rounds to 1: refused, not turned into garbage delays
    with pytest.raises(ZeroDivisionError):
        stream.geometric(1e-17, 3)


def test_unused_streams_draw_nothing() -> None:
    streams = SourceStreams(1, 0)
    streams.arrival.uniform()
    assert streams.channel._buf is None
    assert streams.access._buf is None
    assert streams.delay._buf is None
    with pytest.raises(AttributeError):
        streams.other  # noqa: B018  (only the four roles are built on demand)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.001, 0.999)),
    slack=st.sampled_from([None, 0, 7, 1000]),
    steps=st.lists(
        st.one_of(st.none(), st.integers(0, 3 * _BLOCK)), min_size=1, max_size=30
    ),
)
def test_take_below_equals_counting_draws(
    p: float, slack: int | None, steps: list[int | None]
) -> None:
    """Block-wise takes interleaved with single draws, with or without a budget.

    A budget of ``slack`` values beyond the most the steps can take sizes
    the last block by what is left; with no slack every value is drawn.
    """
    most = sum(1 if step is None else step for step in steps) + 1
    fast = UniformStream(5, (3, 0), None if slack is None else most + slack)
    slow = UniformStream(5, (3, 0))
    for count in steps:
        if count is None:
            assert fast.uniform() == slow.uniform()
            continue
        expected = [k for k in range(count) if slow.uniform() < p]
        assert fast.take_below(p, count).tolist() == expected
    assert fast.uniform() == slow.uniform()
