"""Seedable, splittable random streams for the simulator.

Each stream is an independent PCG64 substream keyed by
(run seed, source id, role).  A stream's generator is the one numpy's
SeedSequence spawn keys give, ``PCG64(SeedSequence(entropy=seed & (2**64 - 1),
spawn_key=key))``, so adding sources or roles never perturbs the draws of
existing streams, and the same key always reproduces the same sequence.

The state is derived without a SeedSequence per stream.  A SeedSequence with
a spawn key pads the seed's (at most two) 32-bit words with zeros to its
4-word pool, hashes them into the pool, mixes every pool word into every
other, then mixes each 32-bit word of the key into every pool word; the
PCG64 state is 8 words hashed out of the pool.  Everything before the key
depends on the seed alone and equals ``SeedSequence(seed & (2**64 - 1)).pool``,
since an unkeyed SeedSequence hashes zeros in place of the padding.  So the
run seed's pool is taken once and cached, and each stream only mixes in its
key's words, continuing SeedSequence's sequence of hash constants, hashes out
the state and hands it to ``PCG64`` through numpy's ``ISeedSequence``
interface.  ``numpy.random`` is imported at the first draw, not at import.

A source builds a role's stream on first use.  A stream builds its generator
and draws its first block of uniforms on first use, so a source's unused
roles cost nothing; a first use that says how many draws it may take
(``skip_to_below``, ``take_below``, ``geometric``) draws no more than that.  Later blocks
hold ``block`` values, ``_BLOCK`` unless the stream is made with fewer; a
take of more than a block past the block's end is drawn whole and not kept.
A stream made for a run of known horizon draws no more than ``horizon``
values in all, its last block holding what is left: no stream takes more
than one draw per slot, so a run never needs more.  Block sizes never
change which values are drawn, only when.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from functools import cache, lru_cache

import numpy as np

__all__ = ["Role", "UniformStream", "SourceStreams"]

_BLOCK = 1 << 14
_U32 = (1 << 32) - 1
_U64 = (1 << 64) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED


def _hash_constants(h: int, mult: int, count: int) -> tuple[int, ...]:
    """(xor, multiply) constant pairs, flat, of ``count`` successive hashes from ``h``."""
    out = []
    for _ in range(count):
        nxt = h * mult & _U32
        out += (h, nxt)
        h = nxt
    return tuple(out)


# Word j of a key: the constants that mix it into pool words 0..3, filled in
# on first use.  The key's hashes continue after the pool's 4 + 4 * 3.
_KEY_HASH: dict[int, tuple[int, ...]] = {}
# generate_state's constants for the 8 state words, hashed from pool words 0..3, 0..3
_OUT_HASH = _hash_constants(_INIT_B, _MULT_B, 8)


@lru_cache(maxsize=64)
def _seed_pool(entropy: int) -> tuple[int, ...]:
    """A seed's SeedSequence pool: its 4 words before any spawn key is mixed in."""
    return tuple(np.random.SeedSequence(entropy).pool.tolist())


def _generator(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """``Generator(PCG64(SeedSequence(entropy=seed & _U64, spawn_key=key)))``."""
    pcg64, generator, state = _numpy_random()
    p0, p1, p2, p3 = _seed_pool(seed & _U64)
    M, L, R = _U32, _MIX_L, _MIX_R
    j = 0
    for v in key:
        if v < 0:
            raise ValueError(f"spawn key elements must be non-negative: {key}")
        while True:  # v's 32-bit words, lowest first; 0 is one word
            row = _KEY_HASH.get(j)
            if row is None:
                h = _INIT_A * pow(_MULT_A, 16 + 4 * j, 1 << 32) & M
                row = _KEY_HASH[j] = _hash_constants(h, _MULT_A, 4)
            x0, m0, x1, m1, x2, m2, x3, m3 = row
            # for each pool word d: hash w with the next constants, mix it into p_d
            w = v & M
            x = (w ^ x0) * m0 & M
            r = (L * p0 - R * (x ^ x >> 16)) & M
            p0 = r ^ r >> 16
            x = (w ^ x1) * m1 & M
            r = (L * p1 - R * (x ^ x >> 16)) & M
            p1 = r ^ r >> 16
            x = (w ^ x2) * m2 & M
            r = (L * p2 - R * (x ^ x >> 16)) & M
            p2 = r ^ r >> 16
            x = (w ^ x3) * m3 & M
            r = (L * p3 - R * (x ^ x >> 16)) & M
            p3 = r ^ r >> 16
            j += 1
            v >>= 32
            if not v:
                break
    # generate_state(4, uint64): 8 hashed words, paired little-endian
    x0, m0, x1, m1, x2, m2, x3, m3, x4, m4, x5, m5, x6, m6, x7, m7 = _OUT_HASH
    s0 = (p0 ^ x0) * m0 & M
    s1 = (p1 ^ x1) * m1 & M
    s2 = (p2 ^ x2) * m2 & M
    s3 = (p3 ^ x3) * m3 & M
    s4 = (p0 ^ x4) * m4 & M
    s5 = (p1 ^ x5) * m5 & M
    s6 = (p2 ^ x6) * m6 & M
    s7 = (p3 ^ x7) * m7 & M
    words = np.array(
        [
            s0 ^ s0 >> 16 | (s1 ^ s1 >> 16) << 32,
            s2 ^ s2 >> 16 | (s3 ^ s3 >> 16) << 32,
            s4 ^ s4 >> 16 | (s5 ^ s5 >> 16) << 32,
            s6 ^ s6 >> 16 | (s7 ^ s7 >> 16) << 32,
        ],
        np.uint64,
    )
    return generator(pcg64(state(words)))


@cache
def _numpy_random():
    """PCG64, Generator and a seed-state class, imported at the first draw."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class _State(ISeedSequence):
        """A PCG64 seed state derived in advance: 4 uint64 words."""

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
        "_seed", "_key", "_left", "_block", "_gen", "_buf", "_idx", "_end", "_below", "_below_p",
        "_next",
    )

    def __init__(
        self, seed: int, key: tuple[int, ...], horizon: int | None = None, block: int = _BLOCK
    ):
        self._seed = seed
        self._key = key
        self._left = horizon  # values the stream may still draw; None: no bound
        self._block = block  # values drawn at a time
        self._gen: np.random.Generator | None = None
        self._buf: np.ndarray | None = None
        self._idx = self._end = 0
        self._below: list[int] = []  # positions in the block of draws below _below_p
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
            gen = self._gen = _generator(self._seed, self._key)
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
                self._below = (self._buf < p).nonzero()[0].tolist()
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
    built on first use.  Given the run's ``horizon``, each stream draws at
    most ``horizon`` values; each draws ``block`` values at a time.
    """

    __slots__ = (
        "_seed", "_source_id", "_horizon", "_block", "arrival", "channel", "access", "delay"
    )

    def __init__(
        self, seed: int, source_id: int, horizon: int | None = None, block: int = _BLOCK
    ):
        self._seed = seed
        self._source_id = source_id
        self._horizon = horizon
        self._block = block

    def __getattr__(self, name: str) -> UniformStream:
        # reached only while a role's slot is unset: build its stream there
        role = _ROLES.get(name)
        if role is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        stream = UniformStream(self._seed, (self._source_id, role), self._horizon, self._block)
        setattr(self, name, stream)
        return stream
