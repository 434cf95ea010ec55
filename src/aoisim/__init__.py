"""Age-of-information simulation and closed forms for sources sharing a medium.

The simulator (`aoisim.engine`) runs N bursty sources through an access
policy, a channel, an optional network delay stage, and per-source queues in
slotted time, reporting the average age of information and its supporting
statistics.  The analytic module (`aoisim.analytic`) carries the matching
closed forms for a single source on a dedicated channel, under both an
unbounded FIFO buffer and a single-slot replacement buffer, so each side can
check the other.
"""
from __future__ import annotations

from .access import ChannelConfig, ChannelKind, PolicyConfig, PolicyKind, grant, resolve
from .analytic import (
    ConditionalKind,
    GeoStationary,
    QueueParams,
    ReplacementMoments,
    ReplacementStationary,
    aoi_geo_geo_1,
    aoi_replacement,
    conditional_pmf,
    geo_wait_cross_moment,
    optimal_arrival_rate,
    optimal_rate_residual,
    replacement_moments,
    stationary_geo,
    stationary_replacement,
    system_time_pmf_geo,
)
from .engine import (
    MeasurePoint,
    MetricsReport,
    ReceptionStats,
    SimConfig,
    SourceMetrics,
    dedicated_channel_run,
    run,
    run_with_logs,
)
from .errors import (
    ConfigError,
    DegenerateParamsError,
    DomainError,
    InvalidParamsError,
    ProtocolError,
    UnstableError,
)
from .netdelay import DelayStage, DestState, deliver_due
from .queueing import Discipline, SourceQueue

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # analytic
    "QueueParams",
    "GeoStationary",
    "ReplacementStationary",
    "ReplacementMoments",
    "ConditionalKind",
    "stationary_geo",
    "stationary_replacement",
    "aoi_geo_geo_1",
    "aoi_replacement",
    "geo_wait_cross_moment",
    "system_time_pmf_geo",
    "conditional_pmf",
    "replacement_moments",
    "optimal_arrival_rate",
    "optimal_rate_residual",
    # engine
    "SimConfig",
    "MeasurePoint",
    "MetricsReport",
    "SourceMetrics",
    "ReceptionStats",
    "run",
    "run_with_logs",
    "dedicated_channel_run",
    # building blocks
    "Discipline",
    "SourceQueue",
    "PolicyKind",
    "PolicyConfig",
    "ChannelKind",
    "ChannelConfig",
    "grant",
    "resolve",
    "DelayStage",
    "DestState",
    "deliver_due",
    # errors
    "InvalidParamsError",
    "UnstableError",
    "DegenerateParamsError",
    "DomainError",
    "ProtocolError",
    "ConfigError",
]
