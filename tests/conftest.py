"""Shared fixtures."""
from __future__ import annotations

from collections import defaultdict

import pytest

from aoisim.streams import UniformStream


@pytest.fixture
def stream_draws(monkeypatch) -> defaultdict[tuple[int, ...], int]:
    """Values each stream draws from its generator, by key ``(source, role)``."""
    drawn: defaultdict[tuple[int, ...], int] = defaultdict(int)
    refill = UniformStream._refill

    def counting(self, *args) -> None:
        refill(self, *args)
        drawn[self._key] += len(self._buf)

    monkeypatch.setattr(UniformStream, "_refill", counting)
    return drawn
