"""Age-of-information simulation and closed forms for sources sharing a medium.

The simulator (`aoisim.engine`) runs N bursty sources through an access
policy, a channel, an optional network delay stage, and per-source queues in
slotted time, reporting the average age of information and its supporting
statistics.  The analytic module (`aoisim.analytic`) carries the matching
closed forms for a single source on a dedicated channel, under both an
unbounded FIFO buffer and a single-slot replacement buffer, so each side can
check the other.

This namespace holds what a caller of ``run``, ``dedicated_channel_run`` and
the closed forms needs; the building blocks stay in their modules.
"""
from __future__ import annotations

from .access import ChannelConfig, ChannelKind, PolicyConfig, PolicyKind, grant
from .analytic import (
    QueueParams,
    aoi_geo_geo_1,
    aoi_replacement,
    optimal_arrival_rate,
)
from .engine import MeasurePoint, SimConfig, dedicated_channel_run, run
from .errors import (
    ConfigError,
    DomainError,
    InvalidParamsError,
    UnstableError,
)
from .queueing import Discipline

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # closed forms
    "QueueParams",
    "aoi_geo_geo_1",
    "aoi_replacement",
    "optimal_arrival_rate",
    # simulation
    "SimConfig",
    "MeasurePoint",
    "Discipline",
    "PolicyKind",
    "PolicyConfig",
    "ChannelKind",
    "ChannelConfig",
    "grant",
    "run",
    "dedicated_channel_run",
    # errors
    "InvalidParamsError",
    "UnstableError",
    "DomainError",
    "ConfigError",
]
