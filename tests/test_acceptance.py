"""Acceptance gate: one test per shipped guarantee.

Each test prints a bracketed PASS/FAIL line directly to the terminal (outside
pytest's capture) so the gate summary is visible in plain ``pytest -v`` output.
The heavyweight Monte Carlo runs live in module-scoped fixtures and are shared
between the criteria that consume them; every stable run is also registered so
the estimator-consistency criterion can sweep all of them.
"""
from __future__ import annotations

import csv
import json
import math
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np
import pytest
from paper_age import paper_replacement_age

from aoisim.access import ChannelConfig, ChannelKind, PolicyConfig, PolicyKind
from aoisim.analytic import (
    QueueParams,
    aoi_geo_geo_1,
    aoi_replacement,
    geo_values,
    optimal_arrival_rate,
    replacement_values,
)
from aoisim.cli import main
from aoisim.engine import MetricsReport, SimConfig, dedicated_channel_run, run, run_with_logs
from aoisim.queueing import Discipline

REFERENCE = QueueParams(0.2, 0.5)
DEDICATED_HORIZON = 1_000_000
FIFO_SEED = 101
REPLACEMENT_SEED = 102

RR = PolicyConfig(PolicyKind.ROUND_ROBIN)
WC = PolicyConfig(PolicyKind.WORK_CONSERVING)
PERFECT = ChannelConfig(ChannelKind.PERFECT)
COLLISION = ChannelConfig(ChannelKind.COLLISION)

# every stable Monte Carlo run executed by this gate, for the estimator sweep
_STABLE_RUNS: list[tuple[str, MetricsReport]] = []


def _register(label: str, report: MetricsReport) -> None:
    _STABLE_RUNS.append((label, report))


def _announce(capsys, num: int, label: str, failures: list[str], notes: list[str] = []) -> None:
    verdict = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"\n[acceptance] criterion {num} ({label}): {verdict}")
        for note in notes:
            print(f"[acceptance]   {note}")
        for f in failures:
            print(f"[acceptance]   failed: {f}")
    assert not failures, f"criterion {num} ({label}): " + "; ".join(failures)


def _rel(got: float, ref: float) -> float:
    return abs(got - ref) / abs(ref)


def symmetric_config(n: int, lam: float, discipline: Discipline, policy, channel,
                     horizon: int, seed: int, network_k: float | None = None) -> SimConfig:
    return SimConfig(
        n_sources=n,
        lambdas=(lam,) * n,
        discipline=discipline,
        policy=policy,
        channel=channel,
        horizon=horizon,
        seed=seed,
        network_k=network_k,
    )


def aoi_mean(report: MetricsReport) -> float:
    return sum(m.avg_aoi for m in report.per_source) / len(report.per_source)


@pytest.fixture(scope="module")
def fifo_run() -> MetricsReport:
    report = dedicated_channel_run(
        REFERENCE, Discipline.FIFO, horizon=DEDICATED_HORIZON, seed=FIFO_SEED
    )
    _register("dedicated fifo", report)
    return report


@pytest.fixture(scope="module")
def replacement_run():
    config = symmetric_config(
        1, REFERENCE.lam, Discipline.REPLACEMENT, RR,
        ChannelConfig(ChannelKind.ERASURE, service_probs=(REFERENCE.mu,)),
        DEDICATED_HORIZON, REPLACEMENT_SEED,
    )
    report, sums = run_with_logs(config)
    _register("dedicated replacement", report)
    return config, report, {name: column[0] for name, column in sums.items()}


@pytest.fixture(scope="module")
def saturation_runs():
    """Scheduled policies at full load, plus the lower-bound sweep below it."""
    failures: list[str] = []
    worst_eq = 0.0
    min_margin = math.inf
    for policy, pname in ((RR, "round robin"), (WC, "work conserving")):
        for n in (1, 2, 5, 10):
            horizon = 100_000 if n == 10 else 200_000
            r = run(symmetric_config(n, 1.0, Discipline.REPLACEMENT, policy, PERFECT, horizon, 301))
            _register(f"saturated {pname} N={n}", r)
            target = (n + 3) / 2
            err = max(_rel(m.avg_aoi, target) for m in r.per_source)
            worst_eq = max(worst_eq, err)
            if err > 1e-3:
                failures.append(f"{pname} N={n} at full load: rel err {err:.2e} > 1e-3")
        for lam in (0.3, 0.6, 0.9):
            for n in (1, 2, 5, 10):
                horizon = 60_000 if n <= 2 else 40_000
                r = run(symmetric_config(n, lam, Discipline.REPLACEMENT, policy, PERFECT, horizon, 302))
                _register(f"{pname} lam={lam} N={n}", r)
                margin = min(m.avg_aoi - (n + 3) / 2 for m in r.per_source)
                min_margin = min(min_margin, margin)
                if margin < 0.0:
                    failures.append(f"{pname} lam={lam} N={n}: age below (N+3)/2 by {-margin:.4f}")
    notes = [
        f"full-load worst rel err {worst_eq:.2e} (bound 1e-3)",
        f"partial-load min margin above (N+3)/2: {min_margin:+.4f}",
    ]
    return failures, notes


@pytest.fixture(scope="module")
def figure_runs():
    """All six qualitative shape studies, three seeds each."""
    t0 = perf_counter()
    failures: list[str] = []
    notes: list[str] = []

    # sharp divergence when the arrival rate crosses the per-source service
    # share 1/N (scheduled) or q/N-like throughput (random access)
    for label, policy, channel, below, above in (
        ("scheduled fifo", RR, PERFECT, 0.48, 0.52),
        ("random access fifo", PolicyConfig(PolicyKind.RANDOM_ACCESS, access_probs=(0.5, 0.5)),
         COLLISION, 0.23, 0.27),
    ):
        ratios = []
        for seed in (201, 202, 203):
            lo = run(symmetric_config(2, below, Discipline.FIFO, policy, channel, 300_000, seed))
            _register(f"{label} lam={below}", lo)
            hi = run(symmetric_config(2, above, Discipline.FIFO, policy, channel, 300_000, seed))
            ratios.append(aoi_mean(hi) / aoi_mean(lo))
        if min(ratios) <= 5.0:
            failures.append(f"{label}: divergence ratio {min(ratios):.1f} <= 5")
        notes.append(f"{label} divergence ratios: " + ", ".join(f"{r:.0f}" for r in ratios))

    # work-conserving never behind round robin, coinciding at full load
    for lam in (0.4, 0.7, 1.0):
        rr_means, wc_means, identical = [], [], True
        for seed in (211, 212, 213):
            a = run(symmetric_config(2, lam, Discipline.REPLACEMENT, RR, PERFECT, 100_000, seed))
            b = run(symmetric_config(2, lam, Discipline.REPLACEMENT, WC, PERFECT, 100_000, seed))
            _register(f"scheduler study rr lam={lam}", a)
            _register(f"scheduler study wc lam={lam}", b)
            rr_means.append(aoi_mean(a))
            wc_means.append(aoi_mean(b))
            if [m.avg_aoi for m in a.per_source] != [m.avg_aoi for m in b.per_source]:
                identical = False
        if statistics.mean(wc_means) > statistics.mean(rr_means) + 1e-9:
            failures.append(f"work conserving above round robin at lam={lam}")
        if lam == 1.0 and not identical:
            failures.append("schedulers do not coincide at full load")

    # interior optimum of the access probability
    qs = (0.1, 0.25, 0.4, 0.55, 0.7, 0.9)
    q_means = []
    for q in qs:
        policy = PolicyConfig(PolicyKind.RANDOM_ACCESS, access_probs=(q, q))
        vals = []
        for seed in (231, 232, 233):
            r = run(symmetric_config(2, 0.5, Discipline.REPLACEMENT, policy, COLLISION, 100_000, seed))
            _register(f"access optimum q={q}", r)
            vals.append(aoi_mean(r))
        q_means.append(statistics.mean(vals))
    best = min(range(len(qs)), key=lambda j: q_means[j])
    if not 0 < best < len(qs) - 1:
        failures.append(f"access-probability optimum sits on the edge (q={qs[best]})")
    elif not (q_means[0] > q_means[best] and q_means[-1] > q_means[best]):
        failures.append("access-probability curve is not U shaped")
    notes.append(
        "access optimum at q=" + f"{qs[best]}" + ", ages "
        + ", ".join(f"{v:.2f}" for v in q_means)
    )

    # erasures hurt larger populations more
    gaps = {}
    for p in (1.0, 0.8, 0.6):
        per_n = {}
        for n in (2, 3):
            channel = ChannelConfig(ChannelKind.ERASURE, service_probs=(p,) * n)
            vals = []
            for seed in (241, 242, 243):
                r = run(symmetric_config(n, 0.5, Discipline.REPLACEMENT, RR, channel, 100_000, seed))
                _register(f"erasure study p={p} N={n}", r)
                vals.append(aoi_mean(r))
            per_n[n] = statistics.mean(vals)
        gaps[p] = per_n[3] - per_n[2]
    if not gaps[0.6] > gaps[0.8] > gaps[1.0]:
        failures.append(f"population gap does not grow as losses increase: {gaps}")
    notes.append(
        "population gaps (N=3 minus N=2): "
        + ", ".join(f"p={p}: {gaps[p]:.3f}" for p in (1.0, 0.8, 0.6))
    )

    # more frequent updates mean more overtaken packets on a reordering path
    counts, fracs = [], []
    for lam in (0.2, 0.5, 0.8):
        cs, fs = [], []
        for seed in (251, 252, 253):
            r = run(symmetric_config(1, lam, Discipline.REPLACEMENT, RR, PERFECT,
                                     100_000, seed, network_k=0.5))
            _register(f"reordering study lam={lam}", r)
            m = r.per_source[0]
            cs.append(m.obsolete)
            fs.append(m.obsolete / (m.informative + m.obsolete))
        counts.append(statistics.mean(cs))
        fracs.append(statistics.mean(fs))
    if not (counts[0] <= counts[1] <= counts[2]):
        failures.append(f"obsolete count not non-decreasing in arrival rate: {counts}")
    if not (fracs[0] <= fracs[1] <= fracs[2]):
        failures.append(f"obsolete fraction not non-decreasing in arrival rate: {fracs}")
    notes.append(
        "obsolete counts "
        + "/".join(f"{c:.0f}" for c in counts)
        + ", fractions "
        + "/".join(f"{f:.3f}" for f in fracs)
    )

    elapsed = perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(f"shape studies took {elapsed:.0f}s (budget 300s)")
    notes.append(f"elapsed {elapsed:.0f}s of 300s budget")
    return failures, notes


def test_criterion_1_closed_form_anchors(capsys) -> None:
    p2 = QueueParams(0.1, 0.2)
    geo = geo_values(REFERENCE)
    geo2 = geo_values(p2)
    rep = replacement_values(REFERENCE)

    anchors: list[tuple[str, float, Fraction]] = [
        ("utilization", geo["utilization"], Fraction(1, 4)),
        ("idle probability", geo["pi0"], Fraction(3, 5)),
        ("single-occupancy probability", geo["pi1"], Fraction(3, 10)),
        ("utilization (slow pair)", geo2["utilization"], Fraction(4, 9)),
        ("idle probability (slow pair)", geo2["pi0"], Fraction(1, 2)),
        ("single-occupancy probability (slow pair)", geo2["pi1"], Fraction(5, 18)),
        ("fifo average age", aoi_geo_geo_1(REFERENCE), Fraction(109, 15)),
        ("fifo average age, certain service", aoi_geo_geo_1(QueueParams(0.5, 1.0)), Fraction(3)),
        ("wait-interarrival cross moment", geo["wait_cross_moment"], Fraction(4, 3)),
        ("wait-interarrival cross moment (slow pair)", geo2["wait_cross_moment"], Fraction(20)),
        ("replacement idle probability", rep["pi0"], Fraction(8, 13)),
        ("replacement single-occupancy", rep["pi1"], Fraction(4, 13)),
        ("replacement double-occupancy", rep["pi2"], Fraction(1, 13)),
        ("leave-empty probability", rep["leave_empty_prob"], Fraction(2, 3)),
        ("gap mean after empty", rep["gap_mean_after_empty"], Fraction(7)),
        ("gap mean after busy", rep["gap_mean_after_busy"], Fraction(2)),
        ("gap mean", rep["gap_mean"], Fraction(16, 3)),
        ("gap second moment after empty", rep["gap_sq_after_empty"], Fraction(71)),
        ("gap second moment after busy", rep["gap_sq_after_busy"], Fraction(6)),
        ("gap second moment", rep["gap_sq"], Fraction(148, 3)),
        ("system time after empty", rep["system_time_after_empty"], Fraction(25, 13)),
        ("system time after busy", rep["system_time_after_busy"], Fraction(38, 13)),
        ("system-time gap cross moment", rep["system_time_gap_cross"], Fraction(142, 13)),
        ("drop probability", rep["drop_prob"], Fraction(1, 16)),
        ("effective rate", rep["effective_rate"], Fraction(3, 16)),
        ("replacement average age", aoi_replacement(REFERENCE), Fraction(373, 52)),
        ("replacement average age, certain service",
         aoi_replacement(QueueParams(0.5, 1.0)), Fraction(3)),
        ("replacement age assembled from moments",
         rep["effective_rate"] * (rep["system_time_gap_cross"] + rep["gap_sq"] / 2 + rep["gap_mean"] / 2),
         Fraction(373, 52)),
    ]

    failures = [
        f"{name}: {got!r} vs {float(ref)!r} (rel {_rel(got, float(ref)):.2e})"
        for name, got, ref in anchors
        if _rel(got, float(ref)) > 1e-9
    ]

    gap_identity = abs(rep["effective_rate"] * rep["gap_mean"] - 1.0)
    if gap_identity > 1e-12:
        failures.append(f"rate-gap reciprocal identity off by {gap_identity:.2e}")

    # the optimal arrival rate must agree with an independent grid minimization
    lams = np.linspace(1e-6, 0.5 - 1e-6, 400_001)
    direct = 1.0 / lams + (1.0 - lams) / (0.5 - lams) - lams / 0.25 + lams / 0.5
    oracle = float(lams[np.argmin(direct)])
    star = optimal_arrival_rate(0.5)
    best_age = aoi_geo_geo_1(QueueParams(star, 0.5))
    if abs(star - oracle) > 2e-6:
        failures.append(f"optimal rate {star:.7f} vs grid oracle {oracle:.7f}")
    if best_age > float(direct.min()) + 1e-12:
        failures.append("age at the computed optimum exceeds the grid minimum")
    if round(best_age, 2) != 6.23:
        failures.append(f"age at the optimal rate {best_age:.4f} does not round to 6.23")
    if optimal_arrival_rate(1.0) != 1.0:
        failures.append("optimal rate under certain service is not the full rate")

    notes = [f"{len(anchors)} anchors at 1e-9, optimal rate {star:.7f}, age there {best_age:.4f}"]
    _announce(capsys, 1, "closed-form anchors", failures, notes)


def test_criterion_2_two_path_age_equivalence(capsys) -> None:
    t0 = perf_counter()
    failures: list[str] = []
    mus = [float(mu) for mu in np.linspace(0.05, 1.0, 20)]
    grid = [(float(lam), mu) for lam in np.linspace(0.03, 0.97, 20) for mu in mus]
    grid += [(mu, mu) for mu in mus[:-1]]  # the equal-rate diagonal, lam < 1
    worst_grid = max(
        _rel(aoi_replacement(QueueParams(lam, mu)), paper_replacement_age(lam, mu))
        for lam, mu in grid
    )
    if worst_grid > 1e-9:
        failures.append(f"assembled vs paper's age differ by {worst_grid:.2e} on the grid")

    worst_reduction = 0.0
    for lam in np.linspace(0.03, 0.97, 20):
        reduced = 1.0 + 1.0 / float(lam)
        worst_reduction = max(
            worst_reduction,
            _rel(aoi_geo_geo_1(QueueParams(float(lam), 1.0)), reduced),
            _rel(aoi_replacement(QueueParams(float(lam), 1.0)), reduced),
        )
    if worst_reduction > 1e-12:
        failures.append(f"certain-service reduction off by {worst_reduction:.2e}")

    elapsed = perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"grid sweep took {elapsed:.2f}s (budget 1s)")
    notes = [f"20x20 grid + diagonal worst {worst_grid:.1e}, reduction worst {worst_reduction:.1e}, {elapsed:.2f}s"]
    _announce(capsys, 2, "two-path age equivalence", failures, notes)


def test_criterion_3_fifo_dedicated_run(fifo_run, capsys) -> None:
    m = fifo_run.per_source[0]
    failures: list[str] = []

    age_ref = float(Fraction(109, 15))
    if _rel(m.avg_aoi, age_ref) > 0.01:
        failures.append(f"average age {m.avg_aoi:.4f} vs {age_ref:.4f} beyond 1%")
    t_ref = 1.0 / (REFERENCE.mu * (1.0 - REFERENCE.rho))
    if _rel(m.mean_system_time, t_ref) > 0.01:
        failures.append(f"system time {m.mean_system_time:.4f} vs {t_ref:.4f} beyond 1%")
    for n, ref in ((0, 0.6), (1, 0.3), (2, 0.075)):
        sim = m.occupancy_hist.get(n, 0.0)
        if abs(sim - ref) > 0.005:
            failures.append(f"occupancy pi{n} {sim:.4f} vs {ref} beyond 0.005")

    notes = [
        f"age {m.avg_aoi:.4f} (ref {age_ref:.4f}), system time {m.mean_system_time:.4f} (ref {t_ref:.4f})",
    ]
    _announce(capsys, 3, "fifo dedicated run vs closed forms", failures, notes)


def test_criterion_4_replacement_dedicated_run(replacement_run, capsys) -> None:
    _, report, rx = replacement_run
    m = report.per_source[0]
    failures: list[str] = []

    age_ref = float(Fraction(373, 52))
    if _rel(m.avg_aoi, age_ref) > 0.02:
        failures.append(f"average age {m.avg_aoi:.4f} vs {age_ref:.4f} beyond 2%")
    for n, ref in ((0, 8 / 13), (1, 4 / 13), (2, 1 / 13)):
        sim = m.occupancy_hist.get(n, 0.0)
        if abs(sim - ref) > 0.005:
            failures.append(f"occupancy pi{n} {sim:.4f} vs {ref:.4f} beyond 0.005")

    conditional = (
        ("gap mean after empty", rx["empty_z_sum"] / rx["empty_count"], 7.0),
        ("gap mean after busy", rx["busy_z_sum"] / rx["busy_count"], 2.0),
        ("gap second moment after empty", rx["empty_z2_sum"] / rx["empty_count"], 71.0),
        ("gap second moment after busy", rx["busy_z2_sum"] / rx["busy_count"], 6.0),
    )
    for name, sim, ref in conditional:
        if _rel(sim, ref) > 0.02:
            failures.append(f"{name} {sim:.4f} vs {ref} beyond 2%")

    notes = [
        f"age {m.avg_aoi:.4f} (ref {age_ref:.4f})",
        "conditional gap moments " + ", ".join(f"{sim:.3f}/{ref:g}" for _, sim, ref in conditional),
        f"drop fraction: empirical {m.empirical_drop_prob:.4f} vs closed form 0.0625 (informational;"
        " the closed form counts a same-slot overwrite the microstructure never produces)",
    ]
    _announce(capsys, 4, "replacement dedicated run vs closed forms", failures, notes)


def test_criterion_5_full_load_anchor_and_lower_bound(saturation_runs, capsys) -> None:
    failures, notes = saturation_runs
    _announce(capsys, 5, "full-load age anchor and lower bound", failures, notes)


def test_criterion_6_estimator_consistency(
    fifo_run, replacement_run, saturation_runs, figure_runs, capsys
) -> None:
    failures: list[str] = []
    worst = 0.0
    worst_label = ""
    for label, report in _STABLE_RUNS:
        for m in report.per_source:
            for est_name, est in (("interarrival-based", m.estimator_yt),
                                  ("gap-based", m.estimator_zt)):
                if math.isnan(est):
                    failures.append(f"{label}: {est_name} estimator undefined")
                    continue
                err = _rel(est, m.avg_aoi)
                if err > worst:
                    worst, worst_label = err, f"{label} source {m.source_id} ({est_name})"
                if err > 0.005:
                    failures.append(
                        f"{label} source {m.source_id}: {est_name} estimator off by {err:.3%}"
                    )
    if len(_STABLE_RUNS) < 10:
        failures.append(f"only {len(_STABLE_RUNS)} stable runs registered")
    notes = [f"{len(_STABLE_RUNS)} stable runs, worst disagreement {worst:.4%} at {worst_label}"]
    _announce(capsys, 6, "estimator consistency on stable runs", failures, notes)


def test_criterion_7_qualitative_shapes(figure_runs, capsys) -> None:
    failures, notes = figure_runs
    _announce(capsys, 7, "qualitative shape reproduction", failures, notes)


def test_criterion_8_byte_identical_reruns(replacement_run, tmp_path, capsys) -> None:
    config, report, _ = replacement_run
    doc = {
        "schema_version": 1,
        "n_sources": 1,
        "arrival_rates": REFERENCE.lam,
        "discipline": "replacement",
        "policy": "round_robin",
        "channel": "erasure",
        "service_probs": REFERENCE.mu,
        "horizon": DEDICATED_HORIZON,
        "seed": REPLACEMENT_SEED,
    }
    cfg_path = tmp_path / "rerun.json"
    cfg_path.write_text(json.dumps(doc))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"

    failures: list[str] = []
    if main(["simulate", "--config", str(cfg_path), "--out", str(out_a)]) != 0:
        failures.append("first rerun exited nonzero")
    if main(["simulate", "--config", str(cfg_path), "--out", str(out_b)]) != 0:
        failures.append("second rerun exited nonzero")
    if out_a.read_bytes() != out_b.read_bytes():
        failures.append("identical seeds produced different CSV bytes")

    with open(out_a, newline="") as fh:
        row = next(csv.DictReader(fh))
    if row["avg_aoi"] != f"{report.per_source[0].avg_aoi:.10g}":
        failures.append("CSV age differs from the in-process run at the same seed")

    notes = [f"two runs, {out_a.stat().st_size} bytes each, identical"]
    _announce(capsys, 8, "byte-identical reruns", failures, notes)
