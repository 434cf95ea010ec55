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
The FIFO forms need a stable queue (``lam < mu``).  The replacement chain is
finite, so its forms hold on the whole (``lam``, ``mu``) range, ``lam == mu``
included; its average age is assembled from the per-delivery moments.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InvalidParamsError, UnstableError

__all__ = [
    "QueueParams",
    "GeoStationary",
    "ReplacementStationary",
    "ReplacementMoments",
    "stationary_geo",
    "aoi_geo_geo_1",
    "geo_wait_cross_moment",
    "optimal_arrival_rate",
    "stationary_replacement",
    "replacement_moments",
    "aoi_replacement",
    "geo_values",
    "replacement_values",
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
    ew_tx: float
    et_empty: float
    et_busy: float
    etz: float
    p_drop: float
    lambda_e: float


def replacement_moments(params: QueueParams) -> ReplacementMoments:
    """All per-delivery moments of the replacement queue in one pass."""
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
        ew_tx=ew_tx,
        et_empty=et_empty,
        et_busy=et_busy,
        etz=etz,
        p_drop=p_drop,
        lambda_e=lambda_e,
    )


def aoi_replacement(params: QueueParams) -> float:
    """Average age of information of the replacement queue (slots).

    Assembled from the per-delivery moments as
    lambda_e * (E[T_prev*Z] + E[Z^2]/2 + E[Z]/2).
    """
    m = replacement_moments(params)
    return m.lambda_e * (m.etz + 0.5 * m.ez2 + 0.5 * m.ez)


def geo_values(params: QueueParams) -> dict[str, float]:
    """The FIFO queue's closed forms by name, in ``aoisim analytic``'s order
    (less the age-optimal rate, a bisection that depends on ``mu`` alone)."""
    st = stationary_geo(params)
    return {
        "avg_aoi": aoi_geo_geo_1(params),
        "utilization": params.rho,
        "pi0": st.pi0,
        "pi1": st.pi1,
        "pi2": st.pi(2),
        "mean_system_time": 1.0 / (params.mu * (1.0 - params.rho)),
        "wait_cross_moment": geo_wait_cross_moment(params),
    }


def replacement_values(params: QueueParams) -> dict[str, float]:
    """The replacement queue's closed forms by name, in ``aoisim analytic``'s order."""
    st = stationary_replacement(params)
    m = replacement_moments(params)
    return {
        "avg_aoi": aoi_replacement(params),
        "pi0": st.pi0,
        "pi1": st.pi1,
        "pi2": st.pi2,
        "leave_empty_prob": m.p_leave_empty,
        "gap_mean_after_empty": m.ez_empty,
        "gap_mean_after_busy": m.ez_busy,
        "gap_sq_after_empty": m.ez2_empty,
        "gap_sq_after_busy": m.ez2_busy,
        "gap_mean": m.ez,
        "gap_sq": m.ez2,
        "system_time_after_empty": m.et_empty,
        "system_time_after_busy": m.et_busy,
        "system_time_gap_cross": m.etz,
        "drop_prob": m.p_drop,
        "effective_rate": m.lambda_e,
    }
