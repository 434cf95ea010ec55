"""Random streams: the spawn-key derivation, lazy start, reproducibility, block-wise skipping."""
from __future__ import annotations

import ast
import dataclasses
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
from aoisim import engine
from aoisim.access import ChannelConfig, ChannelKind, PolicyConfig, PolicyKind
from aoisim.queueing import Discipline
from aoisim.streams import _BLOCK, Role, SourceStreams, UniformStream


@pytest.mark.parametrize("key", [(0, 0), (7, 3), (2**32 - 1, 1), (2**32, 2)])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5, -1])
def test_draws_equal_the_spawn_key_generator(seed: int, key: tuple[int, ...]) -> None:
    """A stream draws what numpy's SeedSequence with its spawn key seeds, across blocks."""
    stream = UniformStream(seed, key, 1000)
    ss = np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=key)
    expected = np.random.Generator(np.random.PCG64(ss)).random(2500)
    assert [stream.uniform() for _ in range(2500)] == expected.tolist()


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
    # a first skip limited to 10 draws sizes the first block to 10
    short = UniformStream(9, (0, 0))
    assert short.skip_to_below(0.0, 10) == 10
    assert [short.uniform() for _ in range(_BLOCK + 10)] == draws[10:]


def test_unused_streams_draw_nothing() -> None:
    streams = SourceStreams(1, 0)
    streams.arrival.uniform()
    assert streams.channel._buf is None
    assert streams.access._buf is None
    assert streams.delay._buf is None
    with pytest.raises(AttributeError):
        streams.other  # noqa: B018  (only the four roles are built on demand)


def test_skip_to_below_limit() -> None:
    s = UniformStream(4, (1, 2))
    assert s.skip_to_below(0.0, 50) == 50  # no draw is below 0
    assert s.skip_to_below(0.5, 0) == 0


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    p=st.one_of(st.just(1.0), st.floats(0.001, 0.9)),
    steps=st.lists(
        st.one_of(st.none(), st.integers(1, 3 * _BLOCK)), min_size=1, max_size=40
    ),
)
def test_skip_to_below_equals_counting_draws(p: float, steps: list[int | None]) -> None:
    """Interleaved skips (integer limit) and single draws (None) on two copies."""
    fast = UniformStream(5, (3, 1))
    slow = UniformStream(5, (3, 1))
    for limit in steps:
        if limit is None:
            assert fast.uniform() == slow.uniform()
            continue
        taken = 0
        while taken < limit and not slow.uniform() < p:
            taken += 1
        assert fast.skip_to_below(p, limit) == taken
    assert fast.uniform() == slow.uniform()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.001, 0.999)),
    block=st.sampled_from([_BLOCK, 1000, 7]),
    steps=st.lists(
        st.one_of(
            st.none(),
            st.tuples(st.booleans(), st.integers(0, 3 * _BLOCK)),
        ),
        min_size=1,
        max_size=30,
    ),
)
def test_take_below_equals_counting_draws(
    p: float, block: int, steps: list[tuple[bool, int] | None]
) -> None:
    """Block-wise takes interleaved with skips and single draws, on any block size."""
    fast = UniformStream(5, (3, 0), block)
    slow = UniformStream(5, (3, 0))
    for step in steps:
        if step is None:
            assert fast.uniform() == slow.uniform()
            continue
        take, count = step
        if take:
            expected = [k for k in range(count) if slow.uniform() < p]
            assert fast.take_below(p, count).tolist() == expected
        else:
            taken = 0
            while taken < count and not slow.uniform() < p:
                taken += 1
            assert fast.skip_to_below(p, count) == taken
    assert fast.uniform() == slow.uniform()


@pytest.mark.parametrize("p", [0.01, 0.5])
def test_skip_across_blocks_matches_positions(p: float) -> None:
    s = UniformStream(6, (0, 0))
    ref = UniformStream(6, (0, 0))
    draws = [ref.uniform() for _ in range(3 * _BLOCK)]
    expected = [k for k, u in enumerate(draws) if u < p]
    got, pos = [], 0
    while True:
        pos += s.skip_to_below(p, 3 * _BLOCK - pos)
        if pos >= 3 * _BLOCK:
            break
        got.append(pos)
        pos += 1
    assert got == expected
