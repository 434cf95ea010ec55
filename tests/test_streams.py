"""Random streams: lazy start, reproducibility, and block-wise skipping."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoisim.streams import _BLOCK, SourceStreams, UniformStream


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
