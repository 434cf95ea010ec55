"""aoisim benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload dedicated_validate --seed 1 --seconds 30 --trace 0

``--trace 0`` runs replications of the workload for ``--seconds`` (at least
``MIN_REPS`` of them), then times set-up in fresh processes, and reports the
``end_to_end`` metrics of ``BENCHMARK.json``.  ``--trace 1`` runs a fixed
number of replications untraced, then the same ones with every layer wrapped
(see ``tracer.py``), checks that the outputs are equal, and reports the
``per_layer`` metrics; its spans are written to
``.perfbench_work/trace-<workload>.npz``.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` next to this directory; without it the benchmark
exits with a non-zero code and prints no result.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import measure, tracer as tracing  # noqa: E402  (numpy only, no aoisim)

WORK = ROOT / ".perfbench_work"
MIN_REPS = 40  # p75 needs ten samples beyond it
SETUP_RUNS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import aoisim from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "aoisim" / "__init__.py").is_file():
        raise SystemExit(f"error: no aoisim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import aoisim

    if Path(aoisim.__file__).resolve().parent != (SRC / "aoisim").resolve():
        raise SystemExit(f"error: imported aoisim from {aoisim.__file__}, not {SRC}")
    return aoisim


def host_info(aoisim) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "aoisim": aoisim.__version__,
        "commit": commit,
    }


class Run:
    """Replications of one workload, their timings, outputs and checks."""

    def __init__(self, wl, keep_fingerprints: bool = False):
        self.wl = wl
        self.keep_fingerprints = keep_fingerprints
        self.first = None  # (doc, output) of the first replication
        self.slots = 0
        self.groups: dict[str, list[float]] = {}
        self.fingerprints: list[str] = []
        self.walls: list[float] = []
        self.calibs: list[float] = []
        self.checks: list[tuple[str, bool]] = []

    def add_checks(self, label: str, produce) -> None:
        """Record the checks ``produce()`` returns; an exception fails one."""
        try:
            self.checks.extend(produce())
        except Exception:
            traceback.print_exc()
            self.checks.append((f"{label}.no_exception", False))

    def replicate(self, inputs, keep_going) -> None:
        """Run replication ``i`` on ``inputs(i)`` (doc, program input) while ``keep_going(i)``.

        Stops at the first exception, which fails a check.
        """
        wl = self.wl
        self.calibs.append(measure.calib())
        i = 0
        while keep_going(i):
            doc, program_input = inputs(i)
            start = time.perf_counter()
            try:
                out = wl.run(program_input)
            except Exception:
                traceback.print_exc()
                self.checks.append((f"rep{i}.no_exception", False))
                break
            self.walls.append(time.perf_counter() - start)
            self.calibs.append(measure.calib())
            self.checks.append((f"rep{i}.no_exception", True))
            self.add_checks(f"rep{i}.check", lambda: wl.check(doc, out))
            if self.first is None:
                self.first = (doc, out)
            self.slots += wl.slots(doc)
            for key, values in wl.samples(doc, out).items():
                self.groups.setdefault(key, []).extend(values)
            if self.keep_fingerprints:
                self.fingerprints.append(wl.fingerprint(out))
            i += 1

    def scaled_walls(self) -> list[float]:
        return measure.scaled(self.walls, self.calibs)


def measure_setup(wl) -> float:
    """Median set-up seconds over ``SETUP_RUNS`` fresh processes."""
    docs = json.dumps(wl.setup_docs(32))
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py")],
            input=docs, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def end_to_end(wl, seconds: float, report: list[str]) -> tuple[dict, list]:
    def inputs(i):
        doc = wl.doc(i)
        return doc, wl.prepare(doc)

    run = Run(wl)
    deadline = time.perf_counter() + seconds
    run.replicate(inputs, lambda i: i < MIN_REPS or time.perf_counter() < deadline)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if not run.walls:
        return {}, run.checks
    run.add_checks("final", lambda: wl.final_checks(*run.first, run.groups))

    walls = run.scaled_walls()
    total = sum(walls)
    calib = statistics.median(run.calibs)
    metrics = {
        # unscaled: import time follows the calibration loop only weakly
        "setup_s": measure_setup(wl),
        "source_slots_per_s": run.slots / total,
        "run_s.p50": measure.tail_percentile(walls, 50),
        "run_s.p75": measure.tail_percentile(walls, 75),
        "s_to_1pct": measure.seconds_to_rel_ci(total, list(run.groups.values())),
        "peak_rss_mb": (self_rss + child_rss) / 1024.0,
    }
    n = len(walls)
    report += [
        f"replications        {n}",
        f"raw run_s.p50       {statistics.median(run.walls):.6f} s (unscaled)",
        f"host.calib_ms       {calib * 1e3:.4f} ms (reference {measure.CALIB_REF_S * 1e3:g} ms)",
        f"samples for CI      " + ", ".join(f"{k}: {len(v)}" for k, v in run.groups.items()),
        f"peak_rss parts      self {self_rss / 1024:.1f} MB + largest child {child_rss / 1024:.1f} MB",
    ]
    return metrics, run.checks


def per_layer(wl, seconds: float, report: list[str]) -> tuple[dict, list]:
    modules = [importlib.import_module(f"aoisim.{layer}") for layer in tracing.LAYERS]
    reps = max(1, round(seconds * wl.trace_reps_per_s))
    docs = [wl.doc(i) for i in range(reps)]

    plain = Run(wl, keep_fingerprints=True)
    prepared = [wl.prepare(d) for d in docs]
    plain.replicate(lambda i: (docs[i], prepared[i]), lambda i: i < reps)

    aoisim_modules = [m for k, m in sys.modules.items() if k.startswith("aoisim")]
    before = tracing.snapshot(aoisim_modules)
    tracer = tracing.Tracer(wl.work_dir / "spans")
    traced = Run(wl, keep_fingerprints=True)
    tracer.install(modules)
    try:
        for i, doc in enumerate(docs):
            tracer.rep = i
            prepared[i] = wl.prepare(doc)

        def keep_going(i):
            tracer.collect_children()
            tracer.rep = i
            return i < reps

        traced.replicate(lambda i: (docs[i], prepared[i]), keep_going)
    finally:
        tracer.uninstall()
    checks = plain.checks + traced.checks
    checks.append(("trace.unpatched", tracing.snapshot(aoisim_modules) == before))
    checks.append(("trace.same_count", len(plain.fingerprints) == len(traced.fingerprints) == reps))
    for i, (a, b) in enumerate(zip(plain.fingerprints, traced.fingerprints)):
        checks.append((f"trace.rep{i}.equal_output", a == b))

    spans = tracer.spans()
    names = tracer.names
    selft = tracing.self_times(spans)
    durations = spans[:, tracing.END] - spans[:, tracing.START]
    name_ids = spans[:, tracing.NAME].astype(np.int64)
    scale = measure.CALIB_REF_S / statistics.fmean(traced.calibs)

    def where(pred) -> np.ndarray:
        return np.isin(name_ids, [i for i, n in enumerate(names) if pred(n)])

    def calls(name: str) -> int:
        return int(where(lambda n: n == name).sum())

    def total(name: str, col: int) -> float:
        return float(spans[where(lambda n: n == name), col].sum())

    def inclusive_s(name: str) -> float:
        return float(durations[where(lambda n: n == name)].sum()) * scale

    def layer(prefix: str) -> np.ndarray:
        return where(lambda n: n.split(".", 1)[0] == prefix)

    def self_s(prefix: str) -> float:
        return float(selft[layer(prefix)].sum()) * scale

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "streams.init.calls": calls("streams.SourceStreams.__init__"),
        "streams.init_s": inclusive_s("streams.SourceStreams.__init__"),
        "streams.draws": calls("streams.UniformStream.uniform"),
        "streams.self_s": self_s("streams"),
        "queueing.occupancy.calls": calls("queueing.SourceQueue.occupancy"),
        "queueing.calls": int(layer("queueing").sum()),
        "queueing.self_s": self_s("queueing"),
        "engine.self_s": self_s("engine"),
        "engine.aoi_sample.calls": calls("engine.AoiTracker.sample"),
        "engine.estimators_s": inclusive_s("engine.sample_path_estimators"),
        "access.grant.calls": calls("access.grant"),
        "access.resolve.calls": calls("access.resolve"),
        "access.self_s": self_s("access"),
        "access.idle_grant_frac": ratio(
            total("queueing.SourceQueue.begin_attempt", tracing.A),
            calls("queueing.SourceQueue.begin_attempt"),
        ),
        "access.success_frac": ratio(total("access.resolve", tracing.B), total("access.resolve", tracing.A)),
        "netdelay.inject.calls": calls("netdelay.DelayStage.inject"),
        "netdelay.deliver_due.calls": calls("netdelay.deliver_due"),
        "netdelay.self_s": self_s("netdelay"),
        "netdelay.obsolete_frac": ratio(total("netdelay.deliver_due", tracing.B), total("netdelay.deliver_due", tracing.A)),
        "analytic.calls": int(layer("analytic").sum()),
        "analytic.s": self_s("analytic"),
        "cli.build_config.calls": calls("cli.build_sim_config"),
        "cli.build_config_s": inclusive_s("cli.build_sim_config"),
        "cli.self_s": self_s("cli"),
        "trace.overhead": sum(traced.scaled_walls()) / sum(plain.scaled_walls()),
        "host.calib_ms": statistics.median(plain.calibs + traced.calibs) * 1e3,
    }
    WORK.mkdir(exist_ok=True)
    out = WORK / f"trace-{wl.name}.npz"
    np.savez(out, spans=spans, names=np.array(names), columns=np.array(
        ["name", "start", "end", "parent", "rep", "a", "b"]))
    report += [
        f"traced replications {reps}",
        f"spans               {len(spans)} written to {out.relative_to(ROOT)}",
        f"layer times are self times of the traced run, scaled to the reference host",
    ]
    return metrics, checks


def main(argv=None) -> int:
    args = parse_args(argv)
    aoisim = import_program()
    from perfbench import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    report = [f"workload            {args.workload} (seed {args.seed}, trace {args.trace})"]
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        if args.trace:
            metrics, checks = per_layer(wl, args.seconds, report)
            wanted = spec["per_layer"]
        else:
            metrics, checks = end_to_end(wl, args.seconds, report)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    report += [f"{k:<20}{v}" for k, v in host_info(aoisim).items()]

    failed = [name for name, ok in checks if not ok]
    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    if missing:
        print("\n".join(report))
        raise SystemExit(f"error: no value for {missing} (failed checks: {failed[:10]})")
    for m in wanted:
        report.append(f"{m['name']:<27} {metrics[m['name']]:<14.6g} {m['unit']}")
    report.append(f"fail_frac           {len(failed)}/{len(checks)} = {len(failed) / len(checks):.6g}")
    report += [f"FAILED {name}" for name in failed[:20]]
    print("\n".join(report))
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
