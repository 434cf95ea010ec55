"""Seedable, splittable random streams for the simulator.

Each stream is an independent PCG64 substream keyed by
(run seed, source id, role).  A stream's generator is the one numpy's
SeedSequence spawn keys give, ``PCG64(SeedSequence(entropy=seed & (2**64 - 1),
spawn_key=key))``, so adding sources or roles never perturbs the draws of
existing streams, and the same key always reproduces the same sequence.

No SeedSequence is built per stream.  A SeedSequence with a spawn key pads
the seed's (at most two) 32-bit words with zeros to its 4-word pool, hashes
them into the pool, mixes every pool word into every other, then mixes each
32-bit word of the key into every pool word; the PCG64 state is 8 words
hashed out of the pool.  Everything before the key depends on the seed alone
and equals ``SeedSequence(seed & (2**64 - 1)).pool``, since an unkeyed
SeedSequence hashes zeros in place of the padding.  So the seed's pool is
taken once and cached, and ``_states`` derives the states of many keys in one
pass on uint32 arrays (which wrap as SeedSequence's arithmetic does), pool
words as rows and keys as columns, continuing SeedSequence's hash constants.
It returns them as the rows of one C-contiguous table, since ``PCG64`` reads
a state's 4 words through a raw pointer.  A run derives the states of all the
streams it can use in one call (``run_streams``); any other stream derives
its own at its first draw.  ``numpy.random`` is imported at the first
derivation, not at import.

A source builds a role's stream on first use.  A stream builds its generator
and draws its first block of uniforms on first use, so a source's unused
roles draw nothing; a first use that says how many draws it may take
(``skip_to_below``, ``take_below``, ``geometric``) draws no more than that.
Later blocks hold ``block`` values, ``_BLOCK`` unless the stream is made
with fewer; a take of more than a block past the block's end is drawn whole
and not kept.  A stream made for a run of known horizon draws no more than
``horizon`` values in all, its last block holding what is left: no stream
takes more than one draw per slot, so a run never needs more.  Block sizes
never change which values are drawn, only when.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from functools import cache, lru_cache

import numpy as np

__all__ = ["Role", "UniformStream", "SourceStreams", "run_streams"]

_BLOCK = 1 << 14
_U32 = (1 << 32) - 1
_U64 = (1 << 64) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx); 0-d uint32 arrays
# where they meet arrays: numpy takes them faster than scalars, and as uint32 in any version
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_MIX_L = np.array(0xCA01F9DD, np.uint32)
_MIX_R = np.array(0x4973F715, np.uint32)
_XSHIFT = np.array(16, np.uint32)
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED


@cache
def _hashes(h: int, mult: int, skip: int, count: int, shape: tuple) -> tuple[np.ndarray, ...]:
    """Xor and multiply constants of ``count`` hashes from ``h`` after ``skip``, in ``shape``."""
    consts = [h * pow(mult, skip + i, 1 << 32) & _U32 for i in range(count + 1)]
    consts = np.array(consts, np.uint32)
    return consts[:-1].reshape(shape), consts[1:].reshape(shape)


@lru_cache(maxsize=64)
def _seed_pool(entropy: int) -> np.ndarray:
    """A seed's SeedSequence pool, as a column: its 4 words before any spawn key is mixed in."""
    return np.random.SeedSequence(entropy).pool.reshape(4, 1)


def _states(seed: int, keys: Sequence[tuple[int, ...]]) -> np.ndarray:
    """The PCG64 seed states of ``keys`` under ``seed``, one row of 4 uint64 words per key.

    Row k is ``SeedSequence(seed & _U64, spawn_key=keys[k]).generate_state(4,
    np.uint64)``, its 4 words side by side, as ``PCG64`` reads them.  The
    keys must have equally many 32-bit words.
    """
    elements = [v for key in keys for v in key]
    if min(elements, default=0) < 0:
        raise ValueError(f"spawn key elements must be non-negative, got {min(elements)}")
    if max(elements, default=0) > _U32:  # each element's 32-bit words, lowest first
        keys = [[v >> s & _U32 for v in k for s in range(0, v.bit_length() or 1, 32)] for k in keys]
    table = np.array(keys, np.uint32, ndmin=2).T  # word j of key k at [j, k]
    # every word hashed for every pool word at once, [j, d, k] for pool word d,
    # with the hashes that follow the pool's 4 + 4 * 3
    xor, mult = _hashes(_INIT_A, _MULT_A, 16, 4 * len(table), (len(table), 4, 1))
    hashed = (table[:, None, :] ^ xor) * mult
    hashed ^= hashed >> _XSHIFT
    hashed *= _MIX_R
    pool = _seed_pool(seed & _U64)
    for j in range(len(hashed)):
        pool = _MIX_L * pool - hashed[j]
        pool ^= pool >> _XSHIFT
    # generate_state(4, uint64): 8 words hashed from pool words 0..3, 0..3, paired
    # little-endian; word 4a + d of key k at [k, a, d]
    xor, mult = _hashes(_INIT_B, _MULT_B, 0, 8, (2, 4))
    states = np.empty((len(keys), 2, 4), "<u4")
    np.bitwise_xor(pool.T[:, None, :], xor, out=states)
    states *= mult
    states ^= states >> _XSHIFT
    return states.reshape(-1, 8).view("<u8").astype(np.uint64, copy=False)


@cache
def _numpy_random():
    """PCG64, Generator and a seed-state class, imported at the first draw."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class _State(ISeedSequence):
        """A PCG64 seed state derived in advance: 4 contiguous uint64 words."""

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("holds a PCG64 state: 4 uint64 words")
            return self.words

    return PCG64, Generator, _State


class Role:
    """Stream roles, one per independent randomness consumer of a source."""

    ARRIVAL = 0
    CHANNEL = 1
    ACCESS = 2
    DELAY = 3


_ROLES = {"arrival": Role.ARRIVAL, "channel": Role.CHANNEL, "access": Role.ACCESS, "delay": Role.DELAY}


class UniformStream:
    """Buffered stream of U(0,1) draws on a dedicated substream."""

    __slots__ = (
        "_seed", "_key", "_state", "_left", "_block", "_gen", "_buf", "_idx", "_end", "_below",
        "_below_p", "_next",
    )

    def __init__(
        self, seed: int, key: tuple[int, ...], horizon: int | None = None, block: int = _BLOCK,
        state: np.ndarray | None = None,
    ):
        self._seed = seed
        self._key = key
        self._state = state  # the key's row of _states, or None to derive it at the first draw
        self._left = horizon  # values the stream may still draw; None: no bound
        self._block = block  # values drawn at a time
        self._gen: np.random.Generator | None = None
        self._buf: np.ndarray | None = None
        self._idx = self._end = 0
        # positions in the block of draws below _below_p: an array("q") per block, 8 bytes each
        self._below: Sequence[int] = ()
        self._below_p: float | None = None
        # index into _below of the first position >= _idx whenever that
        # position is >= _idx (_idx only grows within a block)
        self._next = 0

    def _refill(self, first_size: int = _BLOCK) -> None:
        size = self._block if self._gen is not None else min(first_size, self._block)
        self._buf = self._draw(size)
        self._idx = 0
        self._end = len(self._buf)
        self._below_p = None

    def _draw(self, size: int) -> np.ndarray:
        """The generator's next ``size`` values, or as many as the stream has left."""
        gen = self._gen
        if gen is None:
            state = self._state if self._state is not None else _states(self._seed, [self._key])[0]
            pcg64, generator, seed_state = _numpy_random()
            gen = self._gen = generator(pcg64(seed_state(state)))
        left = self._left
        if left is not None:
            if not left:
                raise RuntimeError(
                    f"stream {self._key} has drawn all its values: one per slot of the run"
                )
            size = min(size, left)
            self._left = left - size
        return gen.random(size)

    def uniform(self) -> float:
        if self._idx == self._end:
            self._refill()
        i = self._idx
        self._idx = i + 1
        return self._buf.item(i)

    def skip_to_below(self, p: float, limit: int) -> int:
        """Take draws up to and including the first one below ``p``.

        Takes at most ``limit`` draws and returns how many draws came before
        the one below ``p``, or ``limit`` when none of them is.  Equivalent
        to counting ``uniform() >= p`` calls, but one block at a time.
        """
        if self._below_p == p:  # fast path: the next hit is in this block
            j = self._next
            below = self._below
            if j < len(below):
                k = below[j] - self._idx
                if 0 <= k < limit:
                    self._idx += k + 1
                    self._next = j + 1
                    return k
        skipped = 0
        while skipped < limit:
            if self._idx == self._end:
                self._refill(limit - skipped)
            if self._below_p != p:
                below = (self._buf < p).nonzero()[0].astype(np.int64, copy=False)
                self._below = array("q", below.tobytes())
                self._below_p = p
                self._next = 0
            i = self._idx
            below = self._below
            j = bisect_left(below, i)
            stop = min(self._end, i + limit - skipped)
            if j < len(below) and below[j] < stop:
                self._idx = below[j] + 1
                self._next = j + 1
                return skipped + below[j] - i
            skipped += stop - i
            self._idx = stop
        return limit

    def take_below(self, p: float, count: int) -> np.ndarray:
        """Take the next ``count`` draws; return the positions of those below ``p``.

        Positions count from 0 at the first draw taken, in ascending order.
        Equivalent to ``count`` calls of ``uniform() < p``, but one block at
        a time.
        """
        return (self._take(count) < p).nonzero()[0]

    def geometric(self, p: float, count: int) -> np.ndarray:
        """The next ``count`` numbers of Bernoulli(p) trials up to the first success.

        Support {1, 2, ...}; one draw each, or none when ``p >= 1``.  Each
        is ``int(log(1 - u) / log(1 - p)) + 1`` for its draw u, with the logs
        taken by ``math.log``, whose last bit ``np.log`` need not match.
        """
        if p >= 1.0:
            return np.ones(count, np.int64)
        scale = math.log(1.0 - p)
        if not scale:  # 1 - p rounds to 1, where numpy would divide by zero quietly
            raise ZeroDivisionError(f"no geometric draw at p = {p}: 1 - p rounds to 1")
        logs = np.fromiter(map(math.log, (1.0 - self._take(count)).tolist()), float, count)
        return (logs / scale).astype(np.int64) + 1

    def _take(self, count: int) -> np.ndarray:
        """The next ``count`` draws, taken a block at a time, or whole past a block."""
        parts = []
        taken = 0
        while taken < count:
            if self._idx == self._end:
                if count - taken > self._block:  # drawn whole and not kept
                    parts.append(self._draw(count - taken))
                    taken += len(parts[-1])
                    continue
                self._refill(count - taken)
            i = self._idx
            stop = min(self._end, i + count - taken)
            parts.append(self._buf[i:stop])
            taken += stop - i
            self._idx = stop
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.empty(0)


class SourceStreams:
    """The independent streams one source consumes during a run.

    Each role's stream (``arrival``, ``channel``, ``access``, ``delay``) is
    built on first use, with its state from ``states`` (by key) when that
    holds it.  Given the run's ``horizon``, each stream draws at most
    ``horizon`` values; each draws ``block`` values at a time.
    """

    __slots__ = (
        "_seed", "_source_id", "_horizon", "_block", "_states", "arrival", "channel", "access",
        "delay",
    )

    def __init__(
        self, seed: int, source_id: int, horizon: int | None = None, block: int = _BLOCK,
        states: dict[tuple[int, int], np.ndarray] | None = None,
    ):
        self._seed = seed
        self._source_id = source_id
        self._horizon = horizon
        self._block = block
        self._states = states or {}

    def __getattr__(self, name: str) -> UniformStream:
        # reached only while a role's slot is unset: build its stream there
        role = _ROLES.get(name)
        if role is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        key = (self._source_id, role)
        stream = UniformStream(self._seed, key, self._horizon, self._block, self._states.get(key))
        setattr(self, name, stream)
        return stream


def run_streams(
    seed: int, horizon: int, block: int, roles: Sequence[Sequence[int]]
) -> list[SourceStreams]:
    """A run's streams: one ``SourceStreams`` per source, source i able to use ``roles[i]``.

    The states of all those streams are derived in one ``_states`` call; a
    stream of another role derives its own at its first draw.
    """
    keys = [(i, role) for i, used in enumerate(roles) for role in used]
    states = dict(zip(keys, _states(seed, keys)))
    return [SourceStreams(seed, i, horizon, block, states) for i in range(len(roles))]
