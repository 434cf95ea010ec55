"""Command-line front end.

Four subcommands:

``simulate``
    Run one configuration (JSON file) and emit one CSV row per source.
``analytic``
    Print every closed-form quantity for a single source on a dedicated
    channel, for the unbounded-buffer model (``geo``), the replacement
    model, or both.  Where the FIFO queue is unstable (``lam >= mu``), both
    means the replacement block alone, with a note on stderr.
``sweep``
    Repeat a base configuration along one axis, across seeds, to CSV.
``validate``
    Run a dedicated-channel configuration and check the simulated
    statistics against the closed forms, one row per ``_ROWS`` entry.  Hard
    rows are judged against tolerances (overridable in the config);
    informational rows are printed for inspection but never fail.

Exit codes: 0 on success, 1 when stdout is closed early (``| head``), 2 for
configuration or domain errors, 3 when a ``validate`` hard check fails, 4
when a ``sweep`` worker process exits without sending its rows (killed, for
instance).  When a config file omits ``seed``, the ``AOISIM_SEED``
environment variable (default 0) supplies it.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .access import ChannelConfig, ChannelKind, PolicyConfig, PolicyKind
from .analytic import (
    QueueParams,
    aoi_geo_geo_1,
    geo_values,
    optimal_arrival_rate,
    replacement_values,
)
from .engine import MeasurePoint, SimConfig, SourceMetrics, mean_or_nan, run, run_with_logs
from .engine import _MAX_SOURCES, _check_size
from .errors import ConfigError, DomainError, UnstableError
from .queueing import Discipline

__all__ = ["main", "entry"]

SCHEMA_VERSION = 1

_ALLOWED_FIELDS = {
    "schema_version",
    "n_sources",
    "arrival_rates",
    "discipline",
    "policy",
    "access_probs",
    "channel",
    "service_probs",
    "success_probs",
    "collision_thinning",
    "network_k",
    "horizon",
    "warmup",
    "seed",
    "measure_at",
    "tolerances",
}
_REQUIRED_FIELDS = ("schema_version", "n_sources", "arrival_rates", "discipline", "policy", "channel")
_DEFAULT_TOLERANCES = {
    Discipline.FIFO: {"aoi": 0.01, "occupancy": 0.005, "moments": 0.01},
    Discipline.REPLACEMENT: {"aoi": 0.02, "occupancy": 0.005, "moments": 0.02},
}
_TOLERANCE_FIELDS = set(_DEFAULT_TOLERANCES[Discipline.FIFO])

SIMULATE_COLUMNS = (
    "source_id",
    "lambda",
    "mu",
    "p",
    "q",
    "policy",
    "discipline",
    "network_k",
    "horizon",
    "seed",
    "avg_aoi",
    "drop_prob",
    "effective_rate",
    "obsolete_frac",
    "stability_warning",
)

SWEEP_AXES = ("lambda", "q", "N", "p", "k")


def _env_seed() -> int:
    raw = os.environ.get("AOISIM_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"AOISIM_SEED must be an integer, got {raw!r}") from None


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _broadcast(doc: dict, name: str, n: int) -> tuple[float, ...] | None:
    """A scalar becomes one value per source; a list is taken as it is."""
    if name not in doc:
        return None
    v = doc[name]
    if _is_number(v):
        return (float(v),) * n
    if isinstance(v, list):
        out = []
        for j, item in enumerate(v):
            if not _is_number(item):
                raise ConfigError(f"{name}[{j}] must be a number, got {item!r}")
            out.append(float(item))
        return tuple(out)
    raise ConfigError(f"{name} must be a number or a list of numbers, got {v!r}")


def _enum_field(doc: dict, name: str, mapping: dict[str, Any]) -> Any:
    v = doc[name]
    if not isinstance(v, str) or v not in mapping:
        choices = ", ".join(sorted(mapping))
        raise ConfigError(f"{name} must be one of: {choices}; got {v!r}")
    return mapping[v]


def _check_tolerances(doc: dict) -> None:
    tol = doc.get("tolerances")
    if tol is None:
        return
    if not isinstance(tol, dict):
        raise ConfigError(f"tolerances must be an object, got {tol!r}")
    unknown = sorted(set(tol) - _TOLERANCE_FIELDS)
    if unknown:
        raise ConfigError(f"unknown tolerances field: {unknown[0]}")
    for name, v in tol.items():
        if not _is_number(v) or not (0.0 < v < 1.0):
            raise ConfigError(f"tolerances.{name} must be a number in (0, 1), got {v!r}")


def build_sim_config(doc: dict) -> SimConfig:
    """Turn a parsed JSON document into a validated run configuration."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(doc) - _ALLOWED_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config field: {unknown[0]}")
    missing = [f for f in _REQUIRED_FIELDS if f not in doc]
    if missing:
        raise ConfigError(f"missing config field: {missing[0]}")
    if not _is_int(doc["schema_version"]) or doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {doc['schema_version']!r}"
        )
    if not _is_int(doc["n_sources"]):
        raise ConfigError(f"n_sources must be an integer, got {doc['n_sources']!r}")
    n = doc["n_sources"]
    _check_size("n_sources", n, _MAX_SOURCES)  # before a tuple of n rates is built

    lambdas = _broadcast(doc, "arrival_rates", n)
    assert lambdas is not None
    discipline = _enum_field(doc, "discipline", {d.value: d for d in Discipline})
    policy_kind = _enum_field(doc, "policy", {p.value: p for p in PolicyKind})
    channel_kind = _enum_field(doc, "channel", {c.value: c for c in ChannelKind})

    policy = PolicyConfig(policy_kind, _broadcast(doc, "access_probs", n))

    thinning = doc.get("collision_thinning", False)
    if not isinstance(thinning, bool):
        raise ConfigError(f"collision_thinning must be a boolean, got {thinning!r}")
    channel = ChannelConfig(
        channel_kind,
        service_probs=_broadcast(doc, "service_probs", n),
        success_probs=_broadcast(doc, "success_probs", n),
        collision_thinning=thinning,
    )

    network_k = doc.get("network_k")
    if network_k is not None and not _is_number(network_k):
        raise ConfigError(f"network_k must be a number or null, got {network_k!r}")

    horizon = doc.get("horizon", 1_000_000)
    warmup = doc.get("warmup", 0)
    for name, v in (("horizon", horizon), ("warmup", warmup)):
        if not _is_int(v):
            raise ConfigError(f"{name} must be an integer, got {v!r}")

    seed = doc.get("seed", _env_seed())
    if not _is_int(seed):
        raise ConfigError(f"seed must be an integer, got {seed!r}")

    measure_at = None
    if "measure_at" in doc:
        measure_at = _enum_field(doc, "measure_at", {m.value: m for m in MeasurePoint})

    _check_tolerances(doc)

    config = SimConfig(
        n_sources=n,
        lambdas=lambdas,
        discipline=discipline,
        policy=policy,
        channel=channel,
        network_k=None if network_k is None else float(network_k),
        horizon=horizon,
        seed=seed,
        measure_at=measure_at,
        warmup=warmup,
    )
    try:
        config.validate()
    except ConfigError as exc:
        # SimConfig names every field as the JSON document does but one
        msg = str(exc)
        if msg.startswith("lambdas"):
            msg = "arrival_rates" + msg[len("lambdas"):]
        raise ConfigError(msg) from None
    return config


def _load_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None


def _fmt(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _fmt6(v: float) -> str:
    """Six significant digits, trailing zeros kept (7.26667, 3.00000, 0.0625000)."""
    return np.format_float_positional(v, precision=6, unique=False, fractional=False)


def _obsolete_frac(config: SimConfig, m: SourceMetrics) -> float | None:
    """Share of destination receptions that were obsolete; None without a
    delay stage or before the first reception."""
    receptions = m.informative + m.obsolete
    if config.network_k is None or receptions == 0:
        return None
    return m.obsolete / receptions


def simulate_rows(config: SimConfig) -> list[dict[str, Any]]:
    """One metrics row per source for the pinned ``simulate`` CSV columns."""
    report = run(config)
    rows = []
    for m in report.per_source:
        i = m.source_id
        service = config.channel.service_probs
        success = config.channel.success_probs
        access = config.policy.access_probs
        rows.append(
            {
                "source_id": i,
                "lambda": config.lambdas[i],
                "mu": None if service is None else service[i],
                "p": None if success is None else success[i],
                "q": None if access is None else access[i],
                "policy": config.policy.kind.value,
                "discipline": config.discipline.value,
                "network_k": config.network_k,
                "horizon": config.horizon,
                "seed": config.seed,
                "avg_aoi": m.avg_aoi,
                "drop_prob": m.empirical_drop_prob,
                "effective_rate": m.empirical_effective_rate,
                "obsolete_frac": _obsolete_frac(config, m),
                "stability_warning": m.stability_warning,
            }
        )
    return rows


@contextlib.contextmanager
def _csv_out(path: str | None) -> Iterator[TextIO]:
    """``path`` opened for writing, or stdout without one."""
    if path is None:
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
    with fh:
        yield fh


def _write_csv(out: TextIO, columns: Sequence[str], rows: Iterable[dict[str, Any]]) -> None:
    """Write the ``columns`` of ``rows`` to ``out``."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])


def cmd_simulate(ns: argparse.Namespace) -> int:
    config = build_sim_config(_load_doc(ns.config))
    with _csv_out(ns.out) as out:
        _write_csv(out, SIMULATE_COLUMNS, simulate_rows(config))
    return 0


def cmd_analytic(ns: argparse.Namespace) -> int:
    params = QueueParams(ns.lam, ns.mu)
    blocks: dict[str, dict[str, float]] = {}
    if ns.model in ("geo", "all"):
        try:
            geo = blocks["geo"] = geo_values(params)
        except UnstableError as exc:
            if ns.model == "geo":
                raise
            # the replacement forms hold at lam >= mu, so they are printed alone
            print(f"note: geo block left out: {exc}", file=sys.stderr)
        else:
            try:
                lam_star = optimal_arrival_rate(params.mu)
            except DomainError as exc:
                # a tiny mu's age-optimal rate lies below the closed forms' floor;
                # the other forms still hold
                print(f"note: geo.optimal_rate and geo.optimal_aoi left out: {exc}", file=sys.stderr)
            else:
                geo["optimal_rate"] = lam_star
                geo["optimal_aoi"] = (
                    2.0 if params.mu == 1.0 else aoi_geo_geo_1(QueueParams(lam_star, params.mu))
                )
    if ns.model in ("replacement", "all"):
        blocks["replacement"] = replacement_values(params)

    if ns.json:
        print(json.dumps(blocks, indent=2))
        return 0
    width = max(len(f"{model}.{k}") for model, vals in blocks.items() for k in vals)
    for model, vals in blocks.items():
        for k, v in vals.items():
            print(f"{model}.{k:<{width - len(model) - 1}}  {_fmt6(v)}")
    return 0


# the most jobs, points times seeds, that one sweep runs
_MAX_JOBS = 100_000


def _axis_values(ns: argparse.Namespace, n_seeds: int) -> list[float]:
    """The sweep's points, once the jobs they make with ``n_seeds`` seeds are within the cap."""
    if ns.steps < 2:
        raise ConfigError(f"--steps must be >= 2, got {ns.steps}")
    span = ns.stop - ns.start
    for flag, value in (("--from", ns.start), ("--to", ns.stop), ("--to - --from", span)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    if ns.steps * n_seeds > _MAX_JOBS:
        raise ConfigError(f"{ns.steps} points x {n_seeds} seeds is more than {_MAX_JOBS} jobs")
    return [ns.start + span * j / (ns.steps - 1) for j in range(ns.steps)]


def _parse_seeds(text: str, base_seed: int) -> Sequence[int]:
    """Either a count (``5`` means base seed plus the next four) or an
    explicit comma-separated list (``3,7,11``)."""
    try:
        if "," in text:
            return [int(s) for s in text.split(",")]
        count = int(text)
    except ValueError:
        raise ConfigError(f"--seeds must be a count or a comma-separated list, got {text!r}") from None
    if not (1 <= count <= _MAX_JOBS):
        raise ConfigError(f"--seeds count must be in [1, {_MAX_JOBS}], got {count}")
    return range(base_seed, base_seed + count)


def _apply_axis(doc: dict, axis: str, value: float) -> dict:
    new = dict(doc)
    if axis == "lambda":
        new["arrival_rates"] = value
    elif axis == "q":
        if doc.get("policy") != PolicyKind.RANDOM_ACCESS.value:
            raise ConfigError("axis q requires the random_access policy")
        new["access_probs"] = value
    elif axis == "N":
        if abs(value - round(value)) > 1e-9:
            raise ConfigError(f"axis N requires integer points, got {value}")
        new["n_sources"] = int(round(value))
    elif axis == "p":
        kind = doc.get("channel")
        thinning = doc.get("collision_thinning", False)
        if kind != ChannelKind.ERASURE.value and not (
            kind == ChannelKind.COLLISION.value and thinning
        ):
            raise ConfigError(
                "axis p requires an erasure channel or a collision channel with collision_thinning"
            )
        new["service_probs"] = value
    elif axis == "k":
        new["network_k"] = value
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    return new


def _sweep_job(config: SimConfig) -> list[dict[str, Any]]:
    return simulate_rows(config)


class _WorkerDied(RuntimeError):
    """A sweep worker process exited without sending its rows."""


def _run_share(conn: Any, configs: list[SimConfig]) -> None:
    """A child's share of the jobs: send ``("rows", [...])`` or ``("error", exc)``."""
    try:
        msg = ("rows", [_sweep_job(cfg) for cfg in configs])
    except Exception as exc:
        msg = ("error", exc)
    conn.send(msg)


def _run_jobs(configs: list[SimConfig], workers: int) -> list[list[dict[str, Any]]]:
    """Every job's rows, in job order, from ``workers`` processes counting this one.

    Job j belongs to share ``j % workers``, so each share mixes the sweep's
    points.  Share 0 runs here; each other share runs in one forked child
    that sends its rows back over a pipe.  ``_sweep_job`` is looked up by
    name at call time, here and in the children, so a wrapper bound to
    ``cli._sweep_job`` before the fork sees every job.  The children are
    forked whatever the default start method, wherever the platform can
    fork: a spawned or forkserver child would import numpy and aoisim
    again, and would not see such a wrapper.
    """
    if workers == 1:
        return [_sweep_job(cfg) for cfg in configs]
    import multiprocessing

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    ctx = multiprocessing.get_context(method)
    children = []
    try:
        for share in range(1, workers):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(
                target=_run_share, args=(send, configs[share::workers]), daemon=True
            )
            child.start()
            send.close()  # the child's copy is then the only writer: its exit means EOF
            children.append((child, recv))
        shares = [[_sweep_job(cfg) for cfg in configs[::workers]]]
        for child, recv in children:
            try:
                kind, payload = recv.recv()
            except EOFError:
                child.join()
                raise _WorkerDied(
                    f"sweep worker exited with code {child.exitcode} before sending its rows"
                ) from None
            if kind == "error":
                raise payload
            shares.append(payload)
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()
    results: list[list[dict[str, Any]]] = [[] for _ in configs]
    for share, rows in enumerate(shares):
        results[share::workers] = rows
    return results


def cmd_sweep(ns: argparse.Namespace) -> int:
    doc = _load_doc(ns.config)
    base = build_sim_config(doc)  # fail fast before sweeping
    seeds = _parse_seeds(ns.seeds, base.seed)
    values = _axis_values(ns, len(seeds))
    if ns.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {ns.workers}")

    configs: list[SimConfig] = []
    for v in values:
        point_doc = _apply_axis(doc, ns.axis, v)
        for seed in seeds:
            point_doc = dict(point_doc)
            point_doc["seed"] = seed
            configs.append(build_sim_config(point_doc))

    # an idle process costs a fork and a join, so never start one
    workers = min(ns.workers, len(configs), os.cpu_count() or 1)
    with _csv_out(ns.out) as out:  # an unwritable --out fails before any job runs
        results = _run_jobs(configs, workers)

        # per-point aggregate: mean over seeds of the per-seed source average
        n_seeds = len(seeds)
        rows = []
        for j, v in enumerate(values):
            jobs = results[j * n_seeds:(j + 1) * n_seeds]
            per_seed = [sum(r["avg_aoi"] for r in job) / len(job) for job in jobs]
            mean = sum(per_seed) / n_seeds
            if n_seeds > 1:
                var = sum((x - mean) ** 2 for x in per_seed) / (n_seeds - 1)
                se = math.sqrt(var / n_seeds)
            else:
                se = None
            # the axis column holds the swept value: under axis p the sweep sets
            # service_probs, while simulate's p column is success_probs
            rows += [
                dict(r, **{ns.axis: v, "mean_avg_aoi": mean, "se_avg_aoi": se})
                for job in jobs
                for r in job
            ]

        columns = (
            ns.axis,
            "seed",
            "source_id",
            "avg_aoi",
            "drop_prob",
            "effective_rate",
            "obsolete_frac",
            "stability_warning",
            "mean_avg_aoi",
            "se_avg_aoi",
        )
        _write_csv(out, columns, rows)
    return 0


@dataclass(frozen=True)
class CheckRow:
    name: str
    sim: float
    ref: float
    tol: float | None  # None on informational rows
    relative: bool

    @property
    def hard(self) -> bool:
        return self.tol is not None

    @property
    def err(self) -> float:
        """Relative error, or absolute error on absolute rows and against a zero reference."""
        if self.relative and self.ref != 0.0:
            return abs(self.sim - self.ref) / abs(self.ref)
        return abs(self.sim - self.ref)

    @property
    def passed(self) -> bool:
        return self.tol is None or self.err <= self.tol


def _json_number(v: float) -> float | None:
    """JSON has no NaN or infinity; such values become null."""
    return v if math.isfinite(v) else None


# Each discipline's rows in print order, with a hard row's tolerance key or
# None for an informational row.  Occupancy rows judge an absolute error, the
# others a relative one; row ``occupancy_piN`` reads the closed form ``piN``.
_ROWS: dict[Discipline, dict[str, str | None]] = {
    Discipline.FIFO: dict(
        avg_aoi="aoi", occupancy_pi0="occupancy", occupancy_pi1="occupancy", occupancy_pi2="occupancy",
        mean_system_time="moments", mean_interarrival="moments", mean_interarrival_sq="moments",
        estimator_yt=None, estimator_zt=None, effective_rate=None,
    ),
    Discipline.REPLACEMENT: dict(
        avg_aoi="aoi", occupancy_pi0="occupancy", occupancy_pi1="occupancy", occupancy_pi2="occupancy",
        gap_mean_after_empty="moments", gap_mean_after_busy="moments",
        gap_sq_after_empty="moments", gap_sq_after_busy="moments",
        gap_mean=None, gap_sq=None, system_time_after_empty=None, system_time_after_busy=None,
        system_time_gap_cross=None, drop_prob=None, effective_rate=None, leave_empty_prob=None,
        estimator_yt=None, estimator_zt=None,
    ),
}


def validation_rows(config: SimConfig, tolerances: dict[str, float]) -> list[CheckRow]:
    """Simulate ``config`` and pair each statistic with its closed form.

    Requires a dedicated-channel scenario: a single source, a scheduled
    policy, and no network delay stage.  The closed forms are computed
    before the run, so parameters they reject fail without simulating.
    """
    if config.n_sources != 1:
        raise ConfigError("validate requires n_sources = 1 (dedicated channel)")
    if config.policy.kind is PolicyKind.RANDOM_ACCESS:
        raise ConfigError("validate requires a scheduled policy (round_robin or work_conserving)")
    if config.network_k is not None:
        raise ConfigError("validate requires network_k to be absent (closed forms hold at the access point)")
    params = QueueParams(config.lambdas[0], config.channel.attempt_prob(0))
    if config.discipline is Discipline.FIFO:
        # the Bernoulli source's interarrival moments; a FIFO queue drops nothing
        refs = geo_values(params) | {
            "mean_interarrival": 1.0 / params.lam,
            "mean_interarrival_sq": (2.0 - params.lam) / (params.lam * params.lam),
            "effective_rate": params.lam,
        }
    else:
        refs = replacement_values(params)

    report, (rx,) = run_with_logs(config)
    m = report.per_source[0]
    e, b = rx.after_empty, rx.after_busy
    gaps = e.count + b.count
    sims = {
        "avg_aoi": m.avg_aoi,
        **{f"occupancy_pi{n}": m.occupancy_hist.get(n, 0.0) for n in range(3)},
        "mean_system_time": m.mean_system_time,
        "mean_interarrival": m.mean_interarrival,
        "mean_interarrival_sq": m.mean_interarrival_sq,
        "gap_mean_after_empty": mean_or_nan(e.z_sum, e.count),
        "gap_mean_after_busy": mean_or_nan(b.z_sum, b.count),
        "gap_sq_after_empty": mean_or_nan(e.z2_sum, e.count),
        "gap_sq_after_busy": mean_or_nan(b.z2_sum, b.count),
        "gap_mean": mean_or_nan(e.z_sum + b.z_sum, gaps),
        "gap_sq": mean_or_nan(e.z2_sum + b.z2_sum, gaps),
        "system_time_after_empty": mean_or_nan(e.t_sum, e.count),
        "system_time_after_busy": mean_or_nan(b.t_sum, b.count),
        "system_time_gap_cross": mean_or_nan(rx.tz_sum, gaps),
        "drop_prob": m.empirical_drop_prob,
        "effective_rate": m.empirical_effective_rate,
        "leave_empty_prob": mean_or_nan(rx.left_empty, rx.count),
        "estimator_yt": m.estimator_yt,
        "estimator_zt": m.estimator_zt,
    }
    # the two sample-path estimators are held to the run's own age
    refs["estimator_yt"] = refs["estimator_zt"] = m.avg_aoi
    rows = []
    for name, key in _ROWS[config.discipline].items():
        tol = None if key is None else tolerances[key]
        ref = refs[name.removeprefix("occupancy_")]
        rows.append(CheckRow(name, sims[name], ref, tol, key != "occupancy"))
    return rows


def _config_tolerances(doc: dict, discipline: Discipline) -> dict[str, float]:
    """Hard-row tolerances: config overrides on top of per-discipline defaults."""
    tols = dict(_DEFAULT_TOLERANCES[discipline])
    for name, v in (doc.get("tolerances") or {}).items():
        tols[name] = float(v)
    return tols


def cmd_validate(ns: argparse.Namespace) -> int:
    doc = _load_doc(ns.config)
    config = build_sim_config(doc)
    tolerances = _config_tolerances(doc, config.discipline)
    rows = validation_rows(config, tolerances)
    failures = sum(1 for r in rows if r.hard and not r.passed)

    if ns.json:
        out = {
            "failures": failures,
            "rows": [
                {
                    "kind": "hard" if r.hard else "info",
                    "name": r.name,
                    "sim": _json_number(r.sim),
                    "ref": _json_number(r.ref),
                    "err": _json_number(r.err),
                    "tol": r.tol,
                    "passed": r.passed if r.hard else None,
                }
                for r in rows
            ],
        }
        print(json.dumps(out, indent=2, allow_nan=False))
    else:
        name_w = max(len(r.name) for r in rows)
        for r in rows:
            kind = "hard" if r.hard else "info"
            line = (
                f"[{kind}] {r.name:<{name_w}}  "
                f"sim={r.sim:<12.6g} ref={r.ref:<12.6g} err={r.err:.2e}"
            )
            if r.hard:
                line += f" tol={r.tol:g}  {'PASS' if r.passed else 'FAIL'}"
            print(line)
        print(f"validate: {sum(r.hard for r in rows)} checks, {failures} failed")
    return 3 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoisim",
        description="Age-of-information simulator and closed forms for shared-medium sources.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_sim = subs.add_parser("simulate", help="run one configuration to CSV")
    p_sim.add_argument("--config", required=True, help="JSON run configuration")
    p_sim.add_argument("--out", help="CSV output path (default stdout)")
    p_sim.set_defaults(func=cmd_simulate)

    p_an = subs.add_parser("analytic", help="closed forms for a dedicated channel")
    p_an.add_argument("--lambda", dest="lam", type=float, required=True, help="arrival probability per slot")
    p_an.add_argument("--mu", type=float, required=True, help="per-attempt success probability")
    p_an.add_argument("--model", choices=["geo", "replacement", "all"], default="all")
    p_an.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p_an.set_defaults(func=cmd_analytic)

    p_sw = subs.add_parser("sweep", help="vary one axis of a base configuration")
    p_sw.add_argument("--config", required=True, help="JSON base configuration")
    p_sw.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sw.add_argument("--from", dest="start", type=float, required=True)
    p_sw.add_argument("--to", dest="stop", type=float, required=True)
    p_sw.add_argument("--steps", type=int, required=True)
    p_sw.add_argument(
        "--seeds",
        default="1",
        help="seed count (consecutive from the base seed) or comma-separated list",
    )
    p_sw.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes to run the jobs in, counting this one (jobs are interleaved "
        "into that many shares; the CSV is the same for any count)",
    )
    p_sw.add_argument("--out", help="CSV output path (default stdout)")
    p_sw.set_defaults(func=cmd_sweep)

    p_va = subs.add_parser("validate", help="check a simulation against the closed forms")
    p_va.add_argument("--config", required=True, help="JSON dedicated-channel configuration")
    p_va.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p_va.set_defaults(func=cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _WorkerDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # short output meets a closed pipe only here
    except BrokenPipeError:  # the reader has gone; the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
