"""Reference: the paper's single closed-form expression for the replacement age.

``aoisim.analytic.aoi_replacement`` assembles the age from the per-delivery
moments, lambda_e * (E[T_prev*Z] + E[Z^2]/2 + E[Z]/2).  The paper also gives
the age as one expression in lam and mu, transcribed below.  The two are
written independently, so a slip in either shows up as a disagreement.  Only
the tests import it.
"""
from __future__ import annotations


def paper_replacement_age(lam: float, mu: float) -> float:
    """Average age of the replacement queue, from the paper's expression."""
    p = lam + mu - lam * mu
    d_eff = lam**2 * (1.0 - mu) + lam * (1.0 - mu) * mu + mu**2
    d_wait = lam**2 * (mu - 1.0) ** 2 + lam * mu * (1.0 - 2.0 * mu) + mu**2
    return (
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
