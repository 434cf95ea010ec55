"""The benchmark's three workloads.

Each one turns the benchmark seed into per-replication inputs (``doc``),
hands the program only the generated configs (``prepare``, untimed), runs
one replication (``run``, timed), and checks what came back.  A check is a
``(name, passed)`` pair; the benchmark counts them into ``attempted`` and
``failed``.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
import statistics
from contextlib import contextmanager
from pathlib import Path

from aoisim import analytic, cli, engine

Check = tuple[str, bool]


def _conservation(report) -> list[Check]:
    return [
        (
            f"conservation.source{m.source_id}",
            m.generated == m.delivered + m.dropped + m.in_system_at_end,
        )
        for m in report.per_source
    ]


def _g10(v: float) -> str:
    """The CSV's float format (README: repr-stable ``%.10g``)."""
    return f"{v:.10g}"


def _obsolete_frac(m) -> str:
    receptions = m.informative + m.obsolete
    return _g10(m.obsolete / receptions) if receptions else ""


@contextmanager
def _capture_run_with_logs(sink: list):
    """Keep each report ``cli.validation_rows`` computes; restores the name after."""
    original = cli.run_with_logs

    def capture(config):
        result = original(config)
        sink.append(result[0])
        return result

    cli.run_with_logs = capture
    try:
        yield
    finally:
        cli.run_with_logs = original


class Workload:
    name = ""
    why = ""
    trace_reps_per_s = 1.0  # traced replications per second of --seconds; keeps spans near 1M

    def __init__(self, seed: int, work_dir: Path):
        self.work_dir = work_dir
        self._rng = random.Random(seed)
        self._rep_seeds: list[int] = []

    def rep_seed(self, i: int) -> int:
        while len(self._rep_seeds) <= i:
            self._rep_seeds.append(self._rng.randrange(1 << 31))
        return self._rep_seeds[i]

    def doc(self, i: int) -> dict:
        raise NotImplementedError

    def setup_docs(self, count: int) -> list[dict]:
        """Config documents a user builds before the first replication."""
        return [self.doc(i) for i in range(count)]

    def prepare(self, doc: dict):
        return cli.build_sim_config(doc)

    def slots(self, doc: dict) -> int:
        """Simulated source-slots of one replication."""
        return doc["n_sources"] * doc["horizon"]

    def fingerprint(self, out) -> str:
        """Exact text of an output; two runs agree when these are equal."""
        return repr(out)

    def final_checks(self, doc: dict, out, groups: dict[str, list[float]]) -> list[Check]:
        """Checks after the run, given the first replication and all samples."""
        return [("rerun_equal", self.fingerprint(self.run(self.prepare(doc))) == self.fingerprint(out))]


class DedicatedValidate(Workload):
    """N=1 on its own erasure channel, checked against the closed forms."""

    name = "dedicated_validate"
    why = "paper reference point; dense events, fixed per-slot cost; only workload using analytic and validate"
    trace_reps_per_s = 1.2
    LAM, MU, HORIZON = 0.2, 0.5, 4000
    # validate's default hard-row tolerances (README), keyed by discipline
    TOLERANCES = {
        "fifo": {"aoi": 0.01, "occupancy": 0.005, "moments": 0.01},
        "replacement": {"aoi": 0.02, "occupancy": 0.005, "moments": 0.02},
    }

    def doc(self, i: int) -> dict:
        return {
            "schema_version": 1,
            "n_sources": 1,
            "arrival_rates": self.LAM,
            "discipline": "fifo" if i % 2 == 0 else "replacement",
            "policy": "round_robin",
            "channel": "erasure",
            "service_probs": self.MU,
            "horizon": self.HORIZON,
            "seed": self.rep_seed(i),
        }

    def run(self, config):
        reports: list = []
        with _capture_run_with_logs(reports):
            rows = cli.validation_rows(config, self.TOLERANCES[config.discipline.value])
        return reports[0], rows

    def samples(self, doc: dict, out) -> dict[str, list[float]]:
        return {doc["discipline"]: [out[0].per_source[0].avg_aoi]}

    def check(self, doc: dict, out) -> list[Check]:
        return _conservation(out[0])

    def final_checks(self, doc, out, groups) -> list[Check]:
        checks = super().final_checks(doc, out, groups)
        params = analytic.QueueParams(self.LAM, self.MU)
        refs = {"fifo": analytic.aoi_geo_geo_1(params), "replacement": analytic.aoi_replacement(params)}
        for disc, ref in refs.items():
            ages = groups.get(disc, [])
            ok = bool(ages) and abs(statistics.fmean(ages) - ref) <= self.TOLERANCES[disc]["aoi"] * ref
            checks.append((f"closed_form.{disc}", ok))
        return checks


class RoundRobin100(Workload):
    """N=100 round robin: sparse events, O(N) per-slot bookkeeping, 400 streams per run."""

    name = "rr_n100"
    why = "sparse events but O(N) per-slot work and 400 pre-drawn streams per run; event engine and stream set-up show here"
    trace_reps_per_s = 0.04
    N, LAM, HORIZON = 100, 0.004, 3000

    def doc(self, i: int) -> dict:
        return {
            "schema_version": 1,
            "n_sources": self.N,
            "arrival_rates": self.LAM,
            "discipline": "replacement",
            "policy": "round_robin",
            "channel": "perfect",
            "horizon": self.HORIZON,
            "seed": self.rep_seed(i),
        }

    def run(self, config):
        return engine.run(config)

    def samples(self, doc: dict, out) -> dict[str, list[float]]:
        # Under round robin every source owns fixed slots, queue and streams,
        # so the sources of one run are independent, identical samples.
        return {"all": [m.avg_aoi for m in out.per_source]}

    def check(self, doc: dict, out) -> list[Check]:
        return _conservation(out)


class RandomAccessDelaySweep(Workload):
    """``aoisim sweep`` over lambda: random access, collisions, delay stage, 2 workers."""

    name = "ra_delay_sweep"
    why = "only workload with random-access draws, collisions, reordering delay stage, process pool and CSV writer"
    trace_reps_per_s = 0.08
    N, Q, K, HORIZON = 10, 0.15, 0.1, 2000
    LAM_FROM, LAM_TO, STEPS, SEEDS, WORKERS = 0.005, 0.025, 2, 4, 2

    def doc(self, i: int) -> dict:
        return {
            "schema_version": 1,
            "n_sources": self.N,
            "arrival_rates": self.LAM_FROM,
            "discipline": "fifo",
            "policy": "random_access",
            "access_probs": self.Q,
            "channel": "collision",
            "network_k": self.K,
            "horizon": self.HORIZON,
            "seed": self.rep_seed(i),
        }

    def lambdas(self) -> list[float]:
        span = self.LAM_TO - self.LAM_FROM
        return [self.LAM_FROM + span * j / (self.STEPS - 1) for j in range(self.STEPS)]

    def point_docs(self, doc: dict) -> list[dict]:
        """The per-job documents the sweep derives, in its (point, seed) order."""
        return [
            dict(doc, arrival_rates=lam, seed=doc["seed"] + s)
            for lam in self.lambdas()
            for s in range(self.SEEDS)
        ]

    def setup_docs(self, count: int) -> list[dict]:
        return [d for i in range(count) for d in [self.doc(i), *self.point_docs(self.doc(i))]]

    def prepare(self, doc: dict):
        tag = doc["seed"]
        config_path = self.work_dir / f"sweep-{tag}.json"
        config_path.write_text(json.dumps(doc))
        return [
            "sweep", "--config", str(config_path), "--axis", "lambda",
            "--from", repr(self.LAM_FROM), "--to", repr(self.LAM_TO),
            "--steps", str(self.STEPS), "--seeds", str(self.SEEDS),
            "--workers", str(self.WORKERS), "--out", str(self.work_dir / f"sweep-{tag}.csv"),
        ]

    def run(self, argv):
        code = cli.main(argv)
        out_path = Path(argv[-1])
        text = out_path.read_text() if code == 0 else ""
        out_path.unlink(missing_ok=True)
        return code, text

    def slots(self, doc: dict) -> int:
        return self.STEPS * self.SEEDS * doc["n_sources"] * doc["horizon"]

    @staticmethod
    def _rows(text: str) -> list[dict]:
        return list(csv.DictReader(io.StringIO(text)))

    def samples(self, doc: dict, out) -> dict[str, list[float]]:
        per_seed: dict[tuple[str, str], list[float]] = {}
        for row in self._rows(out[1]):
            per_seed.setdefault((row["lambda"], row["seed"]), []).append(float(row["avg_aoi"]))
        groups: dict[str, list[float]] = {}
        for (lam, _), ages in per_seed.items():
            groups.setdefault(lam, []).append(statistics.fmean(ages))
        return groups

    def check(self, doc: dict, out) -> list[Check]:
        code, text = out
        if code != 0:
            return [("exit_code", False)]
        rows = self._rows(text)
        checks = [("row_count", len(rows) == self.STEPS * self.SEEDS * self.N)]
        ok_ranges = all(
            math.isfinite(float(r["avg_aoi"])) and float(r["avg_aoi"]) >= 1.0
            and 0.0 <= float(r["drop_prob"]) <= 1.0
            and (r["obsolete_frac"] == "" or 0.0 <= float(r["obsolete_frac"]) <= 1.0)
            for r in rows
        )
        checks.append(("value_ranges", ok_ranges))
        # the per-point mean and standard error agree with the rows they summarise
        by_point: dict[str, dict[str, list[float]]] = {}
        for r in rows:
            by_point.setdefault(r["lambda"], {}).setdefault(r["seed"], []).append(float(r["avg_aoi"]))
        for lam, seeds in by_point.items():
            per_seed = [statistics.fmean(v) for v in seeds.values()]
            mean, se = statistics.fmean(per_seed), statistics.stdev(per_seed) / math.sqrt(len(per_seed))
            row = next(r for r in rows if r["lambda"] == lam)
            checks.append((
                f"aggregate.{lam}",
                math.isclose(float(row["mean_avg_aoi"]), mean, rel_tol=1e-8)
                and math.isclose(float(row["se_avg_aoi"]), se, rel_tol=1e-8, abs_tol=1e-9),
            ))
        return checks

    def final_checks(self, doc, out, groups) -> list[Check]:
        """Rerun the first sweep, then recompute its jobs in this process."""
        checks = super().final_checks(doc, out, groups)
        rows = self._rows(out[1])
        for j, point in enumerate(self.point_docs(doc)):
            config = cli.build_sim_config(point)
            report = engine.run(config)
            checks.extend(_conservation(report))
            mine = rows[j * self.N:(j + 1) * self.N]
            same = len(mine) == self.N and all(
                r["seed"] == str(point["seed"]) and r["avg_aoi"] == _g10(m.avg_aoi)
                and r["drop_prob"] == _g10(m.empirical_drop_prob)
                and r["effective_rate"] == _g10(m.empirical_effective_rate)
                and r["obsolete_frac"] == _obsolete_frac(m)
                for r, m in zip(mine, report.per_source)
            )
            checks.append((f"job{j}.matches_engine", same))
        return checks


WORKLOADS = {w.name: w for w in (DedicatedValidate, RoundRobin100, RandomAccessDelaySweep)}
