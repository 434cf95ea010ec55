"""``tools/ab.py``: its bootstrap interval, its summary, and two trees loaded in one process."""
from __future__ import annotations

import importlib.util
import math
import random
import sys
from pathlib import Path

import aoisim

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))  # where the script finds bench_pairs
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_bootstrap_interval_of_the_median() -> None:
    assert ab.bootstrap_median([1.1] * 7, random.Random(1)) == (1.1, 1.1)
    # a resample of three has median 1 with probability 7/27, far above
    # the 2.5% tail, and median 3 as often
    assert ab.bootstrap_median([1.0, 2.0, 3.0], random.Random(1)) == (1.0, 3.0)
    values = [0.9, 0.95, 0.97, 1.0, 1.02, 1.05, 1.3, 0.99, 1.01]
    lo, hi = ab.bootstrap_median(values, random.Random(4))
    assert min(values) <= lo <= 1.0 <= hi <= max(values)
    assert (lo, hi) == ab.bootstrap_median(values, random.Random(4))


def test_summary_of_round_times() -> None:
    times = {"base": [2.0, 2.0, 4.0, 2.0], "change": [1.0, 1.0, 2.0, 1.0]}
    lines = ab.summarize(times, random.Random(1))
    # statistics.quantiles' default method on [2, 2, 2, 4]: q1 2.0, q3 3.5
    assert lines[0] == "base    round 2 s [2, 3.5]"
    assert lines[1] == "change  round 1 s [1, 1.75]"
    assert lines[2] == (
        "change/base per round: median 0.5000, bootstrap 95% [0.5000, 0.5000] over 4 rounds"
    )


def test_two_trees_load_apart_and_run_a_tiny_workload(tmp_path) -> None:
    # the working tree loaded twice, as base and change: the packages are
    # distinct, the process's own aoisim stays in place, and both build
    # the same inputs from the benchmark's documents, so outputs agree
    src = ROOT / "src"
    times, same = ab.compare(
        {"base": src, "change": src}, "dedicated_validate", rounds=2, reps=2, seed=3,
        work_dir=tmp_path,
    )
    assert sys.modules["aoisim"] is aoisim
    base, change = sys.modules["aoisim_base"], sys.modules["aoisim_change"]
    assert base.engine is not change.engine and base.engine is not aoisim.engine
    assert base.engine.__name__ == "aoisim_base.engine"
    assert ab.load_workloads(change, "workloads_of_change").cli is change.cli
    assert sys.modules["aoisim"] is aoisim
    assert same == 4
    assert all(len(t) == 2 and all(math.isfinite(x) and x > 0 for x in t) for t in times.values())


def test_too_few_rounds_exit_two_before_the_export(monkeypatch, capsys) -> None:
    def no_export(rev, dest):
        raise AssertionError("exported the base tree for one round")

    monkeypatch.setattr(ab, "export", no_export)
    assert ab.main(["--base", "HEAD", "--workload", "rr_n100", "--rounds", "1"]) == 2
    assert capsys.readouterr().err == "error: need --rounds >= 2 and --reps >= 1, got 1 and 20\n"
