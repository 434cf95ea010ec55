"""Time a benchmark workload on a base revision and on the working tree, alternating in one process.

    python3 tools/ab.py --base <rev> --workload rr_n100 --rounds 15 --reps 20

Exports the base revision with ``git archive`` into a temporary directory,
as ``tools/bench_pairs.py`` does, and loads both trees' ``aoisim`` into this
process under distinct package names, ``aoisim_base`` and ``aoisim_change``.
Each tree gets its own copy of the working tree's ``perfbench/workloads.py``
bound to its package, so both build their inputs from the same documents,
the benchmark's, with the same ``--seed``.

Round r takes replications r·reps to (r + 1)·reps − 1: it prepares each
tree's inputs (untimed), then times the replications on one tree and then
on the other, the base first on even rounds and the change first on odd
ones.  It prints each side's median round time with its quartiles, the
median of the per-round change/base time ratios with a percentile
bootstrap 95% interval of that median, and how many replications gave the
same output on both trees.  Separate processes see the host's noise apart;
one process sees both sides under the same noise, so the interval can
resolve a few percent where ``bench_pairs.py`` cannot.  It writes only to
the temporary directory.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import ModuleType

from bench_pairs import export  # this script's directory is first on the path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
SIDES = ("base", "change")


def load_package(src: Path, name: str) -> ModuleType:
    """Import the ``aoisim`` under ``src`` as package ``name``, with its ``cli``.

    Its modules import one another relatively, so they all land under
    ``name`` and leave any other ``aoisim`` in the process alone.
    """
    init = src / "aoisim" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def load_workloads(package: ModuleType, name: str) -> ModuleType:
    """A copy of ``perfbench/workloads.py`` whose ``aoisim`` is ``package``.

    ``aoisim`` in ``sys.modules`` names ``package`` while the copy runs its
    imports, and is restored after.
    """
    missing = object()
    saved = sys.modules.get("aoisim", missing)
    sys.modules["aoisim"] = package
    try:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        if saved is missing:
            del sys.modules["aoisim"]
        else:
            sys.modules["aoisim"] = saved
    return module


def compare(
    sources: dict[str, Path], workload: str, rounds: int, reps: int, seed: int, work_dir: Path
) -> tuple[dict[str, list[float]], int]:
    """Each side's round times in seconds, and the replications whose outputs agree.

    ``sources`` maps ``SIDES`` to the ``src`` directory of each tree.
    """
    workloads = {}
    for side in SIDES:
        package = load_package(sources[side], f"aoisim_{side}")
        side_dir = work_dir / side
        side_dir.mkdir(parents=True, exist_ok=True)
        module = load_workloads(package, f"perfbench_workloads_{side}")
        workloads[side] = module.WORKLOADS[workload](seed, side_dir)
    times: dict[str, list[float]] = {side: [] for side in SIDES}
    same = 0
    for r in range(rounds):
        indices = range(r * reps, (r + 1) * reps)
        inputs = {
            side: [wl.prepare(wl.doc(i)) for i in indices] for side, wl in workloads.items()
        }
        outputs = {}
        for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
            wl = workloads[side]
            gc.collect()
            start = time.perf_counter()
            outputs[side] = [wl.run(x) for x in inputs[side]]
            times[side].append(time.perf_counter() - start)
        base, change = (
            [workloads[side].fingerprint(out) for out in outputs[side]] for side in SIDES
        )
        same += sum(b == c for b, c in zip(base, change))
    return times, same


def bootstrap_median(
    values: list[float], rng: random.Random, resamples: int = 2000, level: float = 0.95
) -> tuple[float, float]:
    """A percentile bootstrap interval of the median of ``values``."""
    medians = sorted(
        statistics.median(rng.choices(values, k=len(values))) for _ in range(resamples)
    )
    tail = int((1.0 - level) / 2 * resamples)
    return medians[tail], medians[resamples - 1 - tail]


def summarize(times: dict[str, list[float]], rng: random.Random) -> list[str]:
    """Report lines: each side's median round time [q1, q3], and the change/base ratio's.

    Each side needs at least two rounds.
    """
    lines = []
    for side in SIDES:
        values = times[side]
        q1, med, q3 = statistics.quantiles(values, n=4)
        lines.append(f"{side:<7} round {med:.6g} s [{q1:.6g}, {q3:.6g}]")
    ratios = [c / b for b, c in zip(times["base"], times["change"])]
    lo, hi = bootstrap_median(ratios, rng)
    lines.append(
        f"change/base per round: median {statistics.median(ratios):.4f}, "
        f"bootstrap 95% [{lo:.4f}, {hi:.4f}] over {len(ratios)} rounds"
    )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=15, help="at least 2")
    parser.add_argument("--reps", type=int, default=20, help="replications per round and side")
    parser.add_argument("--seed", type=int, default=1, help="the workload's benchmark seed")
    args = parser.parse_args(argv)
    if args.rounds < 2 or args.reps < 1:
        print(f"error: need --rounds >= 2 and --reps >= 1, got {args.rounds} and {args.reps}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        base_tree = Path(tmp) / "base"
        base_tree.mkdir()
        export(args.base, base_tree)
        sources = {"base": base_tree / "src", "change": ROOT / "src"}
        times, same = compare(
            sources, args.workload, args.rounds, args.reps, args.seed, Path(tmp) / "work"
        )
    total = args.rounds * args.reps
    print(f"{args.workload}: {args.rounds} rounds of {args.reps} replications, "
          f"base {args.base}, seed {args.seed}")
    print("\n".join(summarize(times, random.Random(args.seed))))
    print(f"same output on both trees: {same}/{total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
