"""Closed-form age and queue statistics for a slotted Bernoulli/geometric source.

Each queue discipline has one mapping from a quantity's name to its closed
form, in the order ``aoisim analytic`` prints them; ``validate`` reads the
same names:

* ``geo_values``: an infinite FIFO buffer (Geo/Geo/1).  It needs a stable
  queue, ``lam < mu``.  Occupancy is geometric above one,
  pi(n) = rho**(n-1) * pi1 for n >= 1, with rho the ``utilization``.
* ``replacement_values``: a single buffer whose waiting packet is replaced
  by a newer arrival.  The chain is finite, so the forms hold on the whole
  (``lam``, ``mu``) range, ``lam == mu`` included.  The average age is
  assembled from the per-delivery moments.

``aoi_geo_geo_1`` and ``aoi_replacement`` give the two ages alone.

Slot conventions:

* time is slotted; one packet may arrive per slot (Bernoulli, rate ``lam``)
  and one transmission attempt per slot succeeds with probability ``mu``;
* geometric variables (interarrival, service, delay) live on support
  {1, 2, ...} with mean ``1/p``;
* "empty"/"busy" tag a departure by what it leaves behind: an empty system,
  or a packet already waiting for service;
* the replacement occupancy follows the simulator, which moves the waiting
  packet into service in the slot of a delivery; the drop fraction, the
  leave-empty probability and the system times assume instead that it stays
  replaceable through the arrival phase of that slot.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InvalidParamsError, UnstableError

__all__ = [
    "QueueParams",
    "aoi_geo_geo_1",
    "optimal_arrival_rate",
    "aoi_replacement",
    "geo_values",
    "replacement_values",
    "service_means",
]


# The smallest rate the closed forms take: below it a power such as
# lam**2 * mu**2 underflows to 0 and a form divides by it, while from it on
# every form is finite
_MIN_RATE = 1e-75


@dataclass(frozen=True)
class QueueParams:
    """Arrival rate and per-attempt success probability of one source."""

    lam: float
    mu: float

    def __post_init__(self) -> None:
        if not (_MIN_RATE <= self.lam < 1.0):
            raise InvalidParamsError(f"lam must be in [1e-75, 1), got {self.lam}")
        if not (_MIN_RATE <= self.mu <= 1.0):
            raise InvalidParamsError(f"mu must be in [1e-75, 1], got {self.mu}")

    @property
    def rho(self) -> float:
        """Utilization of the FIFO queue, lam*(1-mu)/(mu*(1-lam))."""
        return self.lam * (1.0 - self.mu) / (self.mu * (1.0 - self.lam))


def _require_stable(params: QueueParams) -> None:
    if params.lam >= params.mu:
        raise UnstableError(
            f"FIFO queue requires lam < mu, got lam={params.lam}, mu={params.mu}"
        )


def aoi_geo_geo_1(params: QueueParams) -> float:
    """Average age of information of the FIFO queue (slots)."""
    _require_stable(params)
    lam, mu = params.lam, params.mu
    return 1.0 / lam + (1.0 - lam) / (mu - lam) - lam / mu**2 + lam / mu


def _aoi_geo_derivative(lam: float, mu: float) -> float:
    # d/dlam of aoi_geo_geo_1 at fixed mu
    return -1.0 / lam**2 + (1.0 - mu) / (mu - lam) ** 2 - 1.0 / mu**2 + 1.0 / mu


_BISECTION_STEPS = 200


def optimal_arrival_rate(mu: float) -> float:
    """Arrival rate minimizing the FIFO average age for a given mu.

    For mu < 1 the minimizer is the interior stationary point of the age
    formula, found by bisection on its derivative over
    [mu/4, mu - mu(1 - mu)/4], the upper end kept below mu: the root lies
    near 0.531 mu for a small mu and near 1 - sqrt(1 - mu) as mu -> 1.  At
    mu = 1 the age is decreasing in lam, so the optimum sits at the
    boundary lam -> 1.  A rate below the closed forms' smallest, 1e-75, is
    a ``DomainError``.
    """
    if not (0.0 < mu <= 1.0):
        raise DomainError(f"mu must be in (0, 1], got {mu}")
    if mu == 1.0:
        return 1.0
    if mu < _MIN_RATE:
        raise DomainError(f"mu={mu} is below 1e-75, and so is its age-optimal rate")
    lo, hi = mu / 4, min(mu - mu * (1.0 - mu) / 4, math.nextafter(mu, 0.0))
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
    lam = 0.5 * (lo + hi)
    if lam < _MIN_RATE:
        raise DomainError(f"the age-optimal rate {lam:.6g} for mu={mu} is below 1e-75")
    return lam


def geo_values(params: QueueParams) -> dict[str, float]:
    """The FIFO queue's closed forms by name, in ``aoisim analytic``'s order
    (less the age-optimal rate, a bisection that depends on ``mu`` alone)."""
    _require_stable(params)
    lam, mu = params.lam, params.mu
    rho = params.rho
    pi1 = lam * (1.0 - rho) / mu
    return {
        "avg_aoi": aoi_geo_geo_1(params),
        "utilization": rho,
        "pi0": mu * (1.0 - lam) / lam * pi1,
        "pi1": pi1,
        "pi2": rho * pi1,
        "mean_system_time": 1.0 / (mu * (1.0 - rho)),
        # E[W*Y]: waiting time of a packet times the interarrival gap before it
        "wait_cross_moment": lam * (1.0 - mu) / ((mu - lam) * mu**2),
    }


def service_means(params: QueueParams) -> tuple[float, float]:
    """E[S | empty], E[S | busy]: the replacement queue's mean service time of
    a delivered update, after a delivery that left the system empty or busy."""
    lam, mu = params.lam, params.mu
    p = lam + mu - lam * mu
    return 1.0 / p, 1.0 / p + 1.0 / mu - 1.0


def replacement_values(params: QueueParams) -> dict[str, float]:
    """The replacement queue's closed forms by name, in ``aoisim analytic``'s order.

    ``*_after_empty`` and ``*_after_busy`` condition on the previous delivery
    leaving the system empty or leaving an update waiting.  The gap Z runs
    from one delivery to the next, and ``system_time_gap_cross`` is
    E[T_prev * Z].  The age is assembled from the per-delivery moments as
    effective_rate * (E[T_prev*Z] + E[Z^2]/2 + E[Z]/2).
    """
    lam, mu = params.lam, params.mu
    # occupancy from the balance ratios pi1/pi0 and pi2/pi0, normalized; this
    # stays finite at lam == mu, where the ratio form (lam-mu)/(lam*rho^2-mu) is 0/0
    r1 = lam / (mu * (1.0 - lam))
    r2 = lam**2 * (1.0 - mu) / (mu**2 * (1.0 - lam) ** 2)
    pi0 = 1.0 / (1.0 + r1 + r2)

    p = lam + mu - lam * mu  # P{arrival or service completion in a slot}
    leave_empty = mu * (1.0 - lam) / p
    leave_busy = lam / p
    gap_mean_empty = (lam + mu) / (lam * mu)
    gap_sq_empty = (
        2.0 * lam**2
        + 2.0 * lam * mu
        - lam**2 * mu
        + 2.0 * mu**2
        - lam * mu**2
    ) / (lam**2 * mu**2)
    gap_mean_busy = 1.0 / mu
    gap_sq_busy = (2.0 - mu) / mu**2

    # system time = wait of a transmitted update + its conditional service time
    d_wait = lam**2 * (mu - 1.0) ** 2 + lam * mu * (1.0 - 2.0 * mu) + mu**2
    wait = (1.0 - lam) * lam * (1.0 - mu) * (mu + lam - 2.0 * lam * mu) / (d_wait * p)
    service_empty, service_busy = service_means(params)
    time_empty = wait + service_empty
    time_busy = wait + service_busy

    gap_mean = leave_empty * gap_mean_empty + leave_busy * gap_mean_busy
    gap_sq = leave_empty * gap_sq_empty + leave_busy * gap_sq_busy
    cross = leave_empty * gap_mean_empty * time_empty + leave_busy * gap_mean_busy * time_busy

    # drop probability of the two-deep chain whose waiting packet stays
    # replaceable through the arrival phase of its promotion slot
    drop_ratio = lam**2 * (1.0 - mu) / (mu**2 * (1.0 - lam))
    drop_prob = drop_ratio / (1.0 + r1 + drop_ratio)
    rate = lam * (1.0 - drop_prob)

    return {
        "avg_aoi": rate * (cross + 0.5 * gap_sq + 0.5 * gap_mean),
        "pi0": pi0,
        "pi1": r1 * pi0,
        "pi2": r2 * pi0,
        "leave_empty_prob": leave_empty,
        "gap_mean_after_empty": gap_mean_empty,
        "gap_mean_after_busy": gap_mean_busy,
        "gap_sq_after_empty": gap_sq_empty,
        "gap_sq_after_busy": gap_sq_busy,
        "gap_mean": gap_mean,
        "gap_sq": gap_sq,
        "system_time_after_empty": time_empty,
        "system_time_after_busy": time_busy,
        "system_time_gap_cross": cross,
        "drop_prob": drop_prob,
        "effective_rate": rate,
    }


def aoi_replacement(params: QueueParams) -> float:
    """Average age of information of the replacement queue (slots)."""
    return replacement_values(params)["avg_aoi"]
