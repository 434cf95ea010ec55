"""Closed-form age and queue statistics for a slotted Bernoulli/geometric source.

Model conventions, used consistently everywhere:

* time is slotted; one packet may arrive per slot (Bernoulli, rate ``lam``)
  and one transmission attempt per slot succeeds with probability ``mu``;
* geometric variables (interarrival, service, delay) live on support
  {1, 2, ...} with mean ``1/p``;
* "empty"/"busy" tag a departure by what it leaves behind: an empty system,
  or a packet already waiting for service.

Two queue disciplines are covered: an infinite FIFO buffer (Geo/Geo/1) and a
single-buffer variant where a waiting packet is replaced by a newer arrival.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    DegenerateParamsError,
    DomainError,
    InvalidParamsError,
    UnstableError,
)

__all__ = [
    "QueueParams",
    "GeoStationary",
    "ReplacementStationary",
    "ReplacementMoments",
    "ConditionalKind",
    "stationary_geo",
    "aoi_geo_geo_1",
    "geo_wait_cross_moment",
    "system_time_pmf_geo",
    "optimal_arrival_rate",
    "stationary_replacement",
    "replacement_moments",
    "conditional_pmf",
    "aoi_replacement",
]


@dataclass(frozen=True)
class QueueParams:
    """Arrival rate and per-attempt success probability of one source."""

    lam: float
    mu: float

    def __post_init__(self) -> None:
        if not (0.0 < self.lam < 1.0):
            raise InvalidParamsError(f"lam must be in (0, 1), got {self.lam}")
        if not (0.0 < self.mu <= 1.0):
            raise InvalidParamsError(f"mu must be in (0, 1], got {self.mu}")

    @property
    def rho(self) -> float:
        """Utilization of the FIFO queue, lam*(1-mu)/(mu*(1-lam))."""
        return self.lam * (1.0 - self.mu) / (self.mu * (1.0 - self.lam))


def _require_stable(params: QueueParams) -> None:
    if params.lam >= params.mu:
        raise UnstableError(
            f"FIFO queue requires lam < mu, got lam={params.lam}, mu={params.mu}"
        )


@dataclass(frozen=True)
class GeoStationary:
    """Stationary occupancy of the infinite-buffer queue.

    pi(n) = rho**(n-1) * pi1 for n >= 1; the chain is positive recurrent
    only for lam < mu.
    """

    rho: float
    pi0: float
    pi1: float

    def pi(self, n: int) -> float:
        if n < 0:
            raise DomainError(f"occupancy must be >= 0, got {n}")
        if n == 0:
            return self.pi0
        return self.rho ** (n - 1) * self.pi1


def stationary_geo(params: QueueParams) -> GeoStationary:
    """Stationary occupancy distribution of the FIFO queue."""
    _require_stable(params)
    lam, mu = params.lam, params.mu
    rho = params.rho
    pi1 = lam * (1.0 - rho) / mu
    pi0 = mu * (1.0 - lam) / lam * pi1
    return GeoStationary(rho=rho, pi0=pi0, pi1=pi1)


def aoi_geo_geo_1(params: QueueParams) -> float:
    """Average age of information of the FIFO queue (slots)."""
    _require_stable(params)
    lam, mu = params.lam, params.mu
    return 1.0 / lam + (1.0 - lam) / (mu - lam) - lam / mu**2 + lam / mu


def geo_wait_cross_moment(params: QueueParams) -> float:
    """E[W*Y]: waiting time of a packet times the interarrival gap before it."""
    _require_stable(params)
    lam, mu = params.lam, params.mu
    return lam * (1.0 - mu) / ((mu - lam) * mu**2)


def system_time_pmf_geo(params: QueueParams, t: int) -> float:
    """P{T = t} for the FIFO system time; geometric with rate mu*(1-rho)."""
    _require_stable(params)
    if t < 1:
        raise DomainError(f"system time support starts at 1, got {t}")
    mu = params.mu
    rho = params.rho
    return mu * (1.0 - rho) * (1.0 - mu + mu * rho) ** (t - 1)


def _aoi_geo_derivative(lam: float, mu: float) -> float:
    # d/dlam of aoi_geo_geo_1 at fixed mu
    return -1.0 / lam**2 + (1.0 - mu) / (mu - lam) ** 2 - 1.0 / mu**2 + 1.0 / mu


_BISECTION_STEPS = 200
_RATE_MARGIN = 1e-6


def optimal_arrival_rate(mu: float) -> float:
    """Arrival rate minimizing the FIFO average age for a given mu.

    For mu < 1 the minimizer is the interior stationary point of the age
    formula, found by bisection on its derivative over
    [1e-6, mu - 1e-6].  At mu = 1 the age is decreasing in lam, so the
    optimum sits at the boundary lam -> 1.
    """
    if not (0.0 < mu <= 1.0):
        raise DomainError(f"mu must be in (0, 1], got {mu}")
    if mu == 1.0:
        return 1.0
    lo, hi = _RATE_MARGIN, mu - _RATE_MARGIN
    if lo >= hi:
        raise DomainError(f"mu={mu} leaves no room for the bisection bracket")
    f_lo = _aoi_geo_derivative(lo, mu)
    f_hi = _aoi_geo_derivative(hi, mu)
    if f_lo >= 0.0 or f_hi <= 0.0:
        raise DomainError(f"derivative does not bracket a root for mu={mu}")
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if _aoi_geo_derivative(mid, mu) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ReplacementStationary:
    """Stationary occupancy of the replacement queue (three states)."""

    pi0: float
    pi1: float
    pi2: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.pi0, self.pi1, self.pi2)


def stationary_replacement(params: QueueParams) -> ReplacementStationary:
    """Stationary occupancy distribution of the replacement queue.

    The chain is finite, so no stability condition is needed.  Computed by
    normalizing the balance ratios pi1/pi0 and pi2/pi0, which stays finite
    at lam == mu where the textbook ratio form (lam-mu)/(lam*rho^2-mu) is
    0/0.
    """
    lam, mu = params.lam, params.mu
    r1 = lam / (mu * (1.0 - lam))
    r2 = lam**2 * (1.0 - mu) / (mu**2 * (1.0 - lam) ** 2)
    pi0 = 1.0 / (1.0 + r1 + r2)
    return ReplacementStationary(pi0=pi0, pi1=r1 * pi0, pi2=r2 * pi0)


@dataclass(frozen=True)
class ReplacementMoments:
    """Per-delivery statistics of the replacement queue.

    ``*_empty`` quantities condition on the previous departure leaving the
    system empty; ``*_busy`` on it leaving a packet waiting.  ``ez``/``ez2``
    are the first two moments of the inter-departure gap Z, ``es_*`` the
    conditional mean service times, ``et_*`` the conditional mean system
    times, and ``etz`` the cross moment E[T_prev * Z].
    """

    p_leave_empty: float
    p_leave_busy: float
    ez_empty: float
    ez2_empty: float
    ez_busy: float
    ez2_busy: float
    ez: float
    ez2: float
    es_empty: float
    es_busy: float
    p_tx_given_busy: float
    ew_tx: float
    et_empty: float
    et_busy: float
    etz: float
    p_drop: float
    lambda_e: float


def _require_nondegenerate(params: QueueParams) -> None:
    if params.lam == params.mu:
        raise DegenerateParamsError(
            f"lam == mu == {params.lam}: conditional gap distribution is singular"
        )


def replacement_moments(params: QueueParams) -> ReplacementMoments:
    """All per-delivery moments of the replacement queue in one pass."""
    _require_nondegenerate(params)
    lam, mu = params.lam, params.mu
    p = lam + mu - lam * mu  # P{arrival or service completion in a slot}
    d_wait = lam**2 * (mu - 1.0) ** 2 + lam * mu * (1.0 - 2.0 * mu) + mu**2

    p_leave_empty = mu * (1.0 - lam) / p
    p_leave_busy = lam / p

    ez_empty = (lam + mu) / (lam * mu)
    ez2_empty = (
        2.0 * lam**2
        + 2.0 * lam * mu
        - lam**2 * mu
        + 2.0 * mu**2
        - lam * mu**2
    ) / (lam**2 * mu**2)
    ez_busy = 1.0 / mu
    ez2_busy = (2.0 - mu) / mu**2

    ez = p_leave_empty * ez_empty + p_leave_busy * ez_busy
    ez2 = p_leave_empty * ez2_empty + p_leave_busy * ez2_busy

    es_empty = 1.0 / p
    es_busy = 1.0 / p + 1.0 / mu - 1.0

    p_tx_given_busy = mu * (1.0 - lam) / p
    ew_tx = (
        (1.0 - lam) * lam * (1.0 - mu) * (mu + lam - 2.0 * lam * mu)
        / (d_wait * p)
    )

    et_empty = ew_tx + es_empty
    et_busy = ew_tx + es_busy

    etz = (
        p_leave_empty * ez_empty * et_empty
        + p_leave_busy * ez_busy * et_busy
    )

    # drop probability of the two-deep chain whose waiting packet stays
    # replaceable through the arrival phase of its promotion slot
    drop_num = lam**2 * (1.0 - mu) / (mu**2 * (1.0 - lam))
    drop_den = 1.0 + lam / (mu * (1.0 - lam)) + drop_num
    p_drop = drop_num / drop_den
    lambda_e = lam * (1.0 - p_drop)

    return ReplacementMoments(
        p_leave_empty=p_leave_empty,
        p_leave_busy=p_leave_busy,
        ez_empty=ez_empty,
        ez2_empty=ez2_empty,
        ez_busy=ez_busy,
        ez2_busy=ez2_busy,
        ez=ez,
        ez2=ez2,
        es_empty=es_empty,
        es_busy=es_busy,
        p_tx_given_busy=p_tx_given_busy,
        ew_tx=ew_tx,
        et_empty=et_empty,
        et_busy=et_busy,
        etz=etz,
        p_drop=p_drop,
        lambda_e=lambda_e,
    )


class ConditionalKind(Enum):
    """Which conditional law of the replacement queue to evaluate."""

    Z_GIVEN_EMPTY = "z_given_empty"
    Z_GIVEN_BUSY = "z_given_busy"
    S_GIVEN_EMPTY = "s_given_empty"
    S_GIVEN_BUSY = "s_given_busy"
    W_GIVEN_TX = "w_given_tx"


def conditional_pmf(params: QueueParams, kind: ConditionalKind, n: int) -> float:
    """Point mass of one conditional law of the replacement queue at n >= 1.

    Z laws condition on the previous departure leaving the system empty/busy;
    S laws are the service time under the same conditioning; W_GIVEN_TX is the
    waiting time of a packet that is eventually transmitted, counted from the
    first slot after its arrival.
    """
    if n < 1:
        raise DomainError(f"support starts at 1, got {n}")
    lam, mu = params.lam, params.mu
    p = lam + mu - lam * mu
    if kind is ConditionalKind.Z_GIVEN_EMPTY:
        _require_nondegenerate(params)
        return (
            lam * mu / (mu - lam)
            * ((1.0 - lam) ** (n - 1) - (1.0 - mu) ** (n - 1))
        )
    if kind is ConditionalKind.Z_GIVEN_BUSY:
        return mu * (1.0 - mu) ** (n - 1)
    if kind is ConditionalKind.S_GIVEN_EMPTY:
        return ((1.0 - lam) * (1.0 - mu)) ** (n - 1) * p
    if kind is ConditionalKind.S_GIVEN_BUSY:
        return (
            (1.0 - (1.0 - lam) ** n)
            * mu * (1.0 - mu) ** (n - 1) * p / lam
        )
    if kind is ConditionalKind.W_GIVEN_TX:
        return (1.0 - p) ** (n - 1) * p
    raise DomainError(f"unknown conditional kind: {kind!r}")


_EQUIV_RTOL = 1e-9


def aoi_replacement(params: QueueParams) -> float:
    """Average age of information of the replacement queue (slots).

    Evaluated twice: once from the single closed-form expression and once by
    assembling lambda_e * (E[T_prev*Z] + E[Z^2]/2 + E[Z]/2) from the
    per-delivery moments.  The two routes must agree to 1e-9 relative; a
    mismatch means a transcription bug, not a caller error.
    """
    _require_nondegenerate(params)
    lam, mu = params.lam, params.mu
    p = lam + mu - lam * mu
    d_eff = lam**2 * (1.0 - mu) + lam * (1.0 - mu) * mu + mu**2
    d_wait = lam**2 * (mu - 1.0) ** 2 + lam * mu * (1.0 - 2.0 * mu) + mu**2

    direct = (
        lam * mu * p / d_eff
        * (
            d_eff / (2.0 * lam * mu * p)
            + lam * (lam * (3.0 * mu - 2.0) - 2.0 * mu + 1.0) / d_wait
            + (
                lam**3 * (mu - 2.0) * (mu - 1.0)
                + lam**2 * (mu - 2.0) * (mu - 1.0) * mu
                + lam * mu**2 * (2.0 - 3.0 * mu)
                + 2.0 * mu**3
            )
            / (2.0 * lam**2 * mu**2 * p)
            + (1.0 - lam) / (lam * mu)
            + (2.0 * lam + 1.0) / p
            - (lam + 1.0) / p**2
            + 1.0 / mu**2
        )
    )

    m = replacement_moments(params)
    assembled = m.lambda_e * (m.etz + 0.5 * m.ez2 + 0.5 * m.ez)

    if not math.isclose(direct, assembled, rel_tol=_EQUIV_RTOL, abs_tol=0.0):
        raise RuntimeError(
            "internal inconsistency: closed form and moment assembly disagree "
            f"({direct!r} vs {assembled!r}) at lam={lam}, mu={mu}"
        )
    return direct
