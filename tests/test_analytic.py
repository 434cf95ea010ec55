"""Closed-form checks against independently computed oracles.

The frozen constants below were derived by hand with exact Fraction
arithmetic; grid tests re-derive each quantity a second way (balance
equations, convolutions, truncated pmf sums) so a transcription slip in
either route shows up as a disagreement.
"""
from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from paper_age import paper_replacement_age

from aoisim.analytic import (
    QueueParams,
    aoi_geo_geo_1,
    aoi_replacement,
    geo_values,
    optimal_arrival_rate,
    replacement_values,
    service_means,
)
from aoisim.errors import DomainError, InvalidParamsError, UnstableError

FROZEN_REL = 1e-12   # module float vs exact fraction
GRID_REL = 1e-9      # agreement between two float evaluation routes
PMF_TERMS = 4000     # truncation horizon for pmf sums (tails < 1e-12 here)
EQUAL_RATES = [0.1, 0.3, 0.5, 0.9]
RATE_STEP = 1e-6     # lam = mu +- this step brackets the equal-rate point


def optimal_rate_residual(lam: float, mu: float) -> float:
    """Stationarity polynomial whose root in (0, mu) is the age-optimal rate."""
    return (
        lam**4 * (mu - 1.0)
        - 2.0 * lam**3 * (mu - 1.0) * mu
        - lam**2 * mu**2
        + 2.0 * lam * mu**3
        - mu**4
    )


# stable FIFO pairs (lam < mu) and unrestricted replacement pairs, which
# include the equal-rate diagonal
STABLE_PAIRS = [(0.05, 0.3), (0.1, 0.2), (0.2, 0.5), (0.35, 0.8), (0.6, 0.9), (0.5, 1.0)]
REPLACEMENT_PAIRS = STABLE_PAIRS + [(0.5, 0.2), (0.9, 0.3), (0.8, 1.0), (0.95, 0.05)] + [
    (rate, rate) for rate in EQUAL_RATES
]


def frac_params(lam: Fraction, mu: Fraction) -> QueueParams:
    return QueueParams(float(lam), float(mu))


class TestQueueParams:
    def test_rho(self) -> None:
        p = QueueParams(0.2, 0.5)
        assert p.rho == pytest.approx(0.25, rel=FROZEN_REL)

    @pytest.mark.parametrize("lam,mu", [(0.0, 0.5), (1.0, 0.5), (-0.1, 0.5), (0.2, 0.0), (0.2, 1.1)])
    def test_rejects_out_of_range(self, lam: float, mu: float) -> None:
        with pytest.raises(InvalidParamsError):
            QueueParams(lam, mu)


class TestStationaryGeo:
    def test_frozen_point(self) -> None:
        st = geo_values(QueueParams(0.2, 0.5))
        assert st["utilization"] == pytest.approx(0.25, rel=FROZEN_REL)
        assert st["pi0"] == pytest.approx(0.6, rel=FROZEN_REL)
        assert st["pi1"] == pytest.approx(0.3, rel=FROZEN_REL)

    def test_frozen_point_low_service(self) -> None:
        st = geo_values(QueueParams(0.1, 0.2))
        assert st["utilization"] == pytest.approx(float(Fraction(4, 9)), rel=FROZEN_REL)
        assert st["pi0"] == pytest.approx(0.5, rel=FROZEN_REL)
        assert st["pi1"] == pytest.approx(float(Fraction(5, 18)), rel=FROZEN_REL)

    @pytest.mark.parametrize("lam,mu", STABLE_PAIRS[:-1])
    def test_normalization_and_identities(self, lam: float, mu: float) -> None:
        st = geo_values(QueueParams(lam, mu))
        # geometric tail sums to 1 and pi0 matches the idle fraction 1 - lam/mu
        total = st["pi0"] + st["pi1"] / (1.0 - st["utilization"])
        assert total == pytest.approx(1.0, rel=GRID_REL)
        assert st["pi0"] == pytest.approx(1.0 - lam / mu, rel=GRID_REL)
        assert st["pi2"] == pytest.approx(st["utilization"] * st["pi1"], rel=GRID_REL)

    def test_balance_equations(self) -> None:
        # birth-death cuts of the occupancy chain: up-flow equals down-flow.
        # From 0 the queue grows on any arrival; from n >= 1 it grows on
        # arrival-without-service and shrinks on service-without-arrival.
        lam, mu = 0.35, 0.8
        st = geo_values(QueueParams(lam, mu))
        # pi(n) = rho**(n-1) * pi1 beyond the mapping's pi2
        pi = [st["pi0"], st["pi1"], st["pi2"]]
        pi += [st["utilization"] ** (n - 1) * st["pi1"] for n in range(3, 7)]
        up = lam * (1.0 - mu)
        down = mu * (1.0 - lam)
        assert pi[0] * lam == pytest.approx(pi[1] * down, rel=GRID_REL)
        for n in range(1, 6):
            assert pi[n] * up == pytest.approx(pi[n + 1] * down, rel=GRID_REL)

    def test_unstable_raises(self) -> None:
        with pytest.raises(UnstableError):
            geo_values(QueueParams(0.5, 0.5))
        with pytest.raises(UnstableError):
            geo_values(QueueParams(0.6, 0.5))


class TestAoiGeo:
    def test_frozen_point(self) -> None:
        # 1/0.2 + 0.8/0.3 - 0.2/0.25 + 0.2/0.5 = 109/15
        assert aoi_geo_geo_1(QueueParams(0.2, 0.5)) == pytest.approx(
            float(Fraction(109, 15)), rel=FROZEN_REL
        )

    @pytest.mark.parametrize("lam", [0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
    def test_mu_one_reduces_to_inverse_rate(self, lam: float) -> None:
        assert aoi_geo_geo_1(QueueParams(lam, 1.0)) == pytest.approx(1.0 + 1.0 / lam, rel=1e-12)

    @pytest.mark.parametrize("lam,mu", STABLE_PAIRS)
    def test_fraction_oracle(self, lam: float, mu: float) -> None:
        fl, fm = Fraction(lam).limit_denominator(10**6), Fraction(mu).limit_denominator(10**6)
        exact = 1 / fl + (1 - fl) / (fm - fl) - fl / fm**2 + fl / fm
        assert aoi_geo_geo_1(QueueParams(lam, mu)) == pytest.approx(float(exact), rel=1e-10)

    def test_unstable_raises(self) -> None:
        with pytest.raises(UnstableError):
            aoi_geo_geo_1(QueueParams(0.5, 0.5))


class TestWaitCrossMoment:
    def test_frozen_points(self) -> None:
        assert geo_values(QueueParams(0.2, 0.5))["wait_cross_moment"] == pytest.approx(
            float(Fraction(4, 3)), rel=FROZEN_REL
        )
        assert geo_values(QueueParams(0.1, 0.2))["wait_cross_moment"] == pytest.approx(
            20.0, rel=FROZEN_REL
        )

    def test_vanishes_at_mu_one(self) -> None:
        assert geo_values(QueueParams(0.3, 1.0))["wait_cross_moment"] == 0.0


class TestOptimalRate:
    def test_mu_one_boundary(self) -> None:
        assert optimal_arrival_rate(1.0) == 1.0

    def test_frozen_half(self) -> None:
        # bisection root of the age derivative; grid minimization agrees
        assert optimal_arrival_rate(0.5) == pytest.approx(0.3030422692637, abs=1e-9)

    @pytest.mark.parametrize("mu", [0.2, 0.35, 0.5, 0.75, 0.9, 0.99])
    def test_residual_and_local_minimum(self, mu: float) -> None:
        lam_star = optimal_arrival_rate(mu)
        assert 0.0 < lam_star < mu
        assert abs(optimal_rate_residual(lam_star, mu)) < 1e-9
        best = aoi_geo_geo_1(QueueParams(lam_star, mu))
        eps = 1e-3 * mu
        assert best <= aoi_geo_geo_1(QueueParams(lam_star - eps, mu))
        assert best <= aoi_geo_geo_1(QueueParams(lam_star + eps, mu))

    def test_grid_oracle(self) -> None:
        mu = 0.5
        grid = [i / 400_000 for i in range(1, int(mu * 400_000))]
        best = min(grid, key=lambda lam: aoi_geo_geo_1(QueueParams(lam, mu)))
        assert optimal_arrival_rate(mu) == pytest.approx(best, abs=5e-6)

    @pytest.mark.parametrize("mu", [2e-75, 1e-6, 2.1e-6, 1 - 1e-12, 1 - 2**-53])
    def test_bracket_scales_with_mu(self, mu: float) -> None:
        # lam* / mu runs from about 0.531 at a tiny mu up to 1 as mu -> 1,
        # where lam* is about 1 - sqrt(1 - mu)
        lam_star = optimal_arrival_rate(mu)
        assert 0.0 < lam_star < mu
        if mu < 1e-5:
            assert lam_star / mu == pytest.approx(0.5310, abs=1e-4)
        else:
            assert lam_star == pytest.approx(1 - math.sqrt(1 - mu), rel=1e-3)

    def test_rejects_bad_mu(self) -> None:
        # below mu = 1.88e-75 the age-optimal rate falls below the closed
        # forms' floor of 1e-75
        for mu in (0.0, 1.5, 5e-324, 1.5e-75):
            with pytest.raises(DomainError):
                optimal_arrival_rate(mu)


class TestStationaryReplacement:
    def test_frozen_point(self) -> None:
        v = replacement_values(QueueParams(0.2, 0.5))
        assert (v["pi0"], v["pi1"], v["pi2"]) == pytest.approx(
            (float(Fraction(8, 13)), float(Fraction(4, 13)), float(Fraction(1, 13))),
            rel=FROZEN_REL,
        )

    @pytest.mark.parametrize("lam,mu", REPLACEMENT_PAIRS)
    def test_normalized_and_balanced(self, lam: float, mu: float) -> None:
        v = replacement_values(QueueParams(lam, mu))
        pi0, pi1, pi2 = v["pi0"], v["pi1"], v["pi2"]
        assert pi0 + pi1 + pi2 == pytest.approx(1.0, rel=GRID_REL)
        # one-step balance of the three-state occupancy chain:
        # 0->1 on arrival; 1->0 on service-no-arrival; 2->1 on service-no-arrival
        assert pi0 * lam == pytest.approx(pi1 * mu * (1.0 - lam), rel=GRID_REL)
        assert pi1 * lam * (1.0 - mu) == pytest.approx(pi2 * mu * (1.0 - lam), rel=GRID_REL)

    def test_equal_rates_stay_finite(self) -> None:
        # the textbook ratio form is 0/0 at lam == mu; the normalized form is not
        v = replacement_values(QueueParams(0.4, 0.4))
        assert v["pi0"] + v["pi1"] + v["pi2"] == pytest.approx(1.0, rel=GRID_REL)
        assert min(v["pi0"], v["pi1"], v["pi2"]) > 0.0


# the per-delivery moments as exact fractions for (lam, mu) = (1/5, 1/2),
# derived by hand, in ``analytic --json``'s order
REPL_FROZEN = {
    "leave_empty_prob": Fraction(2, 3),
    "gap_mean_after_empty": Fraction(7),
    "gap_mean_after_busy": Fraction(2),
    "gap_sq_after_empty": Fraction(71),
    "gap_sq_after_busy": Fraction(6),
    "gap_mean": Fraction(16, 3),
    "gap_sq": Fraction(148, 3),
    "system_time_after_empty": Fraction(25, 13),
    "system_time_after_busy": Fraction(38, 13),
    "system_time_gap_cross": Fraction(142, 13),
    "drop_prob": Fraction(1, 16),
    "effective_rate": Fraction(3, 16),
}


class TestReplacementMoments:
    def test_frozen_point(self) -> None:
        v = replacement_values(QueueParams(0.2, 0.5))
        for name, exact in REPL_FROZEN.items():
            assert v[name] == pytest.approx(float(exact), rel=FROZEN_REL), name

    @pytest.mark.parametrize("lam,mu", REPLACEMENT_PAIRS)
    def test_identities(self, lam: float, mu: float) -> None:
        v = replacement_values(QueueParams(lam, mu))
        # delivered rate is the reciprocal of the mean delivery gap
        assert v["effective_rate"] * v["gap_mean"] == pytest.approx(1.0, rel=1e-12)
        empty = v["leave_empty_prob"]
        mix = empty * v["gap_mean_after_empty"] + (1.0 - empty) * v["gap_mean_after_busy"]
        assert v["gap_mean"] == pytest.approx(mix, rel=GRID_REL)
        assert v["drop_prob"] == pytest.approx(1.0 - v["effective_rate"] / lam, rel=GRID_REL)

    def test_drop_matches_stationary_top_state(self) -> None:
        # the drop rate equals the top-state mass of the arrival-facing chain
        lam, mu = 0.2, 0.5
        v = replacement_values(QueueParams(lam, mu))
        d_eff = lam**2 * (1 - mu) + lam * mu * (1 - mu) + mu**2
        assert v["drop_prob"] == pytest.approx(lam**2 * (1 - mu) / d_eff, rel=GRID_REL)

    @pytest.mark.parametrize("rate", EQUAL_RATES)
    def test_continuous_through_equal_rates(self, rate: float) -> None:
        # no moment is singular at lam == mu: each equals the mean of its
        # neighbours on either side
        at = replacement_values(QueueParams(rate, rate))
        below = replacement_values(QueueParams(rate - RATE_STEP, rate))
        above = replacement_values(QueueParams(rate + RATE_STEP, rate))
        for name in ("drop_prob", "gap_mean_after_empty", "system_time_gap_cross"):
            mean = 0.5 * (below[name] + above[name])
            assert at[name] == pytest.approx(mean, rel=GRID_REL), name


def geometric(rate: float, n: np.ndarray) -> np.ndarray:
    return rate * (1.0 - rate) ** (n - 1)


def conditional_laws(lam: float, mu: float) -> dict[str, np.ndarray]:
    """Point masses at n = 1 .. PMF_TERMS-1 of the laws the moments summarize.

    The gaps Z condition on the previous departure leaving the system
    empty/busy; S is the service time under the same conditioning.
    """
    n = np.arange(1, PMF_TERMS)
    p = lam + mu - lam * mu
    # Z | empty = interarrival + service, independent Geo(lam) and Geo(mu)
    conv = np.convolve(geometric(lam, n), geometric(mu, n))
    return {
        "z_empty": np.concatenate(([0.0], conv[: n.size - 1])),
        "z_busy": geometric(mu, n),
        "s_empty": geometric(p, n),
        "s_busy": (1.0 - (1.0 - lam) ** n) * mu * (1.0 - mu) ** (n - 1) * p / lam,
    }


LAW_PAIRS = [(0.2, 0.5), (0.5, 0.2), (0.35, 0.8), (0.9, 0.3), (0.3, 0.3)]


def law_mean(pmf: np.ndarray, power: int = 1) -> float:
    """The ``power``-th moment of a law on n = 1 .. PMF_TERMS-1, checked to be one."""
    assert pmf.min() >= 0.0
    assert pmf.sum() == pytest.approx(1.0, abs=1e-10)
    return float(np.arange(1, PMF_TERMS) ** power @ pmf)


def closed_moments(lam: float, mu: float) -> dict[str, tuple[float, float | None]]:
    """The closed-form mean and second moment (None: not given) of each law."""
    v = replacement_values(QueueParams(lam, mu))
    service_empty, service_busy = service_means(QueueParams(lam, mu))
    return {
        "z_empty": (v["gap_mean_after_empty"], v["gap_sq_after_empty"]),
        "z_busy": (v["gap_mean_after_busy"], v["gap_sq_after_busy"]),
        "s_empty": (service_empty, None),
        "s_busy": (service_busy, None),
    }


class TestConditionalMoments:
    @pytest.mark.parametrize("lam,mu", LAW_PAIRS)
    # ids in the paper's symbols: the law, its mean, its second moment (None: unchecked)
    @pytest.mark.parametrize(
        "law",
        ["z_empty", "z_busy", "s_empty", "s_busy"],
        ids=[
            "z_empty-ez_empty-ez2_empty",
            "z_busy-ez_busy-ez2_busy",
            "s_empty-es_empty-None",
            "s_busy-es_busy-None",
        ],
    )
    def test_moments_match_the_law(self, lam: float, mu: float, law: str) -> None:
        pmf = conditional_laws(lam, mu)[law]
        mean, square = closed_moments(lam, mu)[law]
        assert law_mean(pmf) == pytest.approx(mean, rel=1e-9)
        if square is not None:
            assert law_mean(pmf, 2) == pytest.approx(square, rel=1e-9)

    @pytest.mark.parametrize("lam,mu", LAW_PAIRS)
    def test_service_laws_differ_by_the_system_times(self, lam: float, mu: float) -> None:
        # both system times add the same mean wait, which cancels here
        laws = conditional_laws(lam, mu)
        v = replacement_values(QueueParams(lam, mu))
        assert law_mean(laws["s_busy"]) - law_mean(laws["s_empty"]) == pytest.approx(
            v["system_time_after_busy"] - v["system_time_after_empty"], rel=1e-9
        )


class TestAoiReplacement:
    def test_frozen_point(self) -> None:
        assert aoi_replacement(QueueParams(0.2, 0.5)) == pytest.approx(
            float(Fraction(373, 52)), rel=FROZEN_REL
        )

    @pytest.mark.parametrize("lam", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_mu_one_reduces_to_inverse_rate(self, lam: float) -> None:
        assert aoi_replacement(QueueParams(lam, 1.0)) == pytest.approx(1.0 + 1.0 / lam, rel=1e-12)

    @pytest.mark.parametrize("lam,mu", REPLACEMENT_PAIRS)
    def test_moment_assembly_agrees(self, lam: float, mu: float) -> None:
        # the age is the moment assembly, bit for bit: there is one route
        v = replacement_values(QueueParams(lam, mu))
        assembled = v["effective_rate"] * (
            v["system_time_gap_cross"] + 0.5 * v["gap_sq"] + 0.5 * v["gap_mean"]
        )
        assert aoi_replacement(QueueParams(lam, mu)) == v["avg_aoi"] == assembled

    def test_grid_equivalence_is_fast(self) -> None:
        # 20x20 grid plus the equal-rate diagonal, assembly vs the paper's
        # expression, in well under a second
        start = time.perf_counter()
        grid = [(i / 21.0, j / 20.0) for i in range(1, 21) for j in range(1, 21)]
        grid += [(j / 20.0, j / 20.0) for j in range(1, 20)]
        for lam, mu in grid:
            assert aoi_replacement(QueueParams(lam, mu)) == pytest.approx(
                paper_replacement_age(lam, mu), rel=GRID_REL
            )
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("rate", EQUAL_RATES)
    def test_continuous_through_equal_rates(self, rate: float) -> None:
        below = aoi_replacement(QueueParams(rate - RATE_STEP, rate))
        above = aoi_replacement(QueueParams(rate + RATE_STEP, rate))
        assert aoi_replacement(QueueParams(rate, rate)) == pytest.approx(
            0.5 * (below + above), rel=GRID_REL
        )

    def test_equal_rates_anchor(self) -> None:
        # at lam == mu == 1/2: age 23/5, drop fraction 1/4, E[Z | empty] = 4
        p = QueueParams(0.5, 0.5)
        v = replacement_values(p)
        assert aoi_replacement(p) == pytest.approx(float(Fraction(23, 5)), rel=FROZEN_REL)
        assert v["drop_prob"] == pytest.approx(0.25, rel=FROZEN_REL)
        assert v["gap_mean_after_empty"] == pytest.approx(4.0, rel=FROZEN_REL)


# every named closed form at (lam, mu) = (0.2, 0.5), in ``analytic --json``'s order
GEO_VALUES_FROZEN = {
    "avg_aoi": Fraction(109, 15),
    "utilization": Fraction(1, 4),
    "pi0": Fraction(3, 5),
    "pi1": Fraction(3, 10),
    "pi2": Fraction(3, 40),
    "mean_system_time": Fraction(8, 3),
    "wait_cross_moment": Fraction(4, 3),
}
REPLACEMENT_VALUES_FROZEN = {
    "avg_aoi": Fraction(373, 52),
    "pi0": Fraction(8, 13),
    "pi1": Fraction(4, 13),
    "pi2": Fraction(1, 13),
    **REPL_FROZEN,
}


class TestNamedValues:
    @pytest.mark.parametrize(
        "values, frozen",
        [(geo_values, GEO_VALUES_FROZEN), (replacement_values, REPLACEMENT_VALUES_FROZEN)],
        ids=["geo", "replacement"],
    )
    def test_every_name_at_the_reference_point(self, values, frozen) -> None:
        got = values(QueueParams(0.2, 0.5))
        assert list(got) == list(frozen)
        for name, exact in frozen.items():
            assert got[name] == pytest.approx(float(exact), rel=FROZEN_REL), name

    def test_geo_values_reject_an_unstable_pair(self) -> None:
        with pytest.raises(UnstableError, match="lam < mu"):
            geo_values(QueueParams(0.5, 0.5))
