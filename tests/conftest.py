"""Shared fixtures."""
from __future__ import annotations

from collections import defaultdict

import pytest

from aoisim.streams import UniformStream


@pytest.fixture
def stream_draws(monkeypatch) -> defaultdict[tuple[int, ...], int]:
    """Values each stream draws from its generator, by key ``(source, role)``."""
    drawn: defaultdict[tuple[int, ...], int] = defaultdict(int)
    draw = UniformStream._draw

    def counting(self, size):
        values = draw(self, size)
        drawn[self._key] += len(values)
        return values

    monkeypatch.setattr(UniformStream, "_draw", counting)
    return drawn
