"""``tools/bench_pairs.py``: the summary of alternating base/change benchmark pairs."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = [
    {"name": "source_slots_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "run_s.p50", "unit": "s", "better": "lower", "bound": 0.2},
]


def stdout(rate: float, p50: float, failed: int = 0, reps: int = 40) -> str:
    """A benchmark run's stdout: report lines, then the JSON result line."""
    result = {
        "correct": not failed,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "source_slots_per_s": {"value": rate, "unit": "1/s"},
            "run_s.p50": {"value": p50, "unit": "s"},
        },
    }
    return (
        f"workload            rr_n100\nfail_frac           {failed}/10\n"
        f"replications        {reps}\ntraced replications 3\n{json.dumps(result)}\n"
    )


def row(lines: list[str], name: str) -> list[str]:
    return next(line for line in lines if line.startswith(name + " ")).split()


def test_medians_quartiles_ratio_and_wins() -> None:
    base = [(1.0e7, 0.012), (2.0e7, 0.010), (3.0e7, 0.011), (4.0e7, 0.013)]
    change = [(2.0e7, 0.011), (2.5e7, 0.011), (3.5e7, 0.010), (5.0e7, 0.012)]
    pairs = [
        (bench_pairs.parse_result(stdout(*b)), bench_pairs.parse_result(stdout(*c)))
        for b, c in zip(base, change)
    ]
    lines, ok = bench_pairs.summarize(pairs, SPEC)
    assert ok
    # statistics.quantiles' default method on [1, 2, 3, 4]e7: q1 1.25e7, q3 3.75e7
    assert row(lines, "source_slots_per_s") == [
        "source_slots_per_s", "2.5e+07", "[1.25e+07,", "3.75e+07]",
        "3e+07", "[2.125e+07,", "4.625e+07]", "1.2000", "4/4",
    ]
    # lower is better: the change wins where its time is below the base's
    assert row(lines, "run_s.p50")[-2:] == ["0.9565", "3/4"]
    assert "failed checks base    0/40" in lines
    assert "failed checks change  0/40" in lines


def test_a_failed_check_or_a_missing_result_fails_the_comparison() -> None:
    good = bench_pairs.parse_result(stdout(1.0e7, 0.01))
    bad = bench_pairs.parse_result(stdout(1.0e7, 0.01, failed=2))
    lines, ok = bench_pairs.summarize([(good, bad)], SPEC)
    assert not ok
    assert "failed checks change  2/10" in lines
    assert row(lines, "source_slots_per_s")[-2:] == ["1.0000", "0/1"]
    crashed = bench_pairs.parse_result("Traceback (most recent call last):\n  ...\n")
    assert crashed is None
    lines, ok = bench_pairs.summarize([(good, crashed)], SPEC)
    assert not ok
    assert "failed checks change  0/0, 1 run(s) without a result" in lines
    assert row(lines, "run_s.p50") == ["run_s.p50", "no", "complete", "pair"]


def test_fewer_than_one_pair_exits_two_before_the_export(monkeypatch, capsys) -> None:
    def no_export(rev, dest):
        raise AssertionError("exported the base tree for zero pairs")

    monkeypatch.setattr(bench_pairs, "export", no_export)
    assert bench_pairs.main(["--base", "HEAD", "--workload", "rr_n100", "--pairs", "0"]) == 2
    assert capsys.readouterr().err == "error: --pairs must be >= 1, got 0\n"


def test_replication_counts_are_reported_next_to_the_metrics() -> None:
    # a run lasts a fixed time, so a faster change makes more replications,
    # and what the benchmark keeps per replication shows in peak_rss_mb
    pairs = [
        (bench_pairs.parse_result(stdout(1.0e7, 0.01, reps=b)),
         bench_pairs.parse_result(stdout(1.2e7, 0.01, reps=c)))
        for b, c in [(100, 120), (110, 130), (90, 125), (105, 135)]
    ]
    assert pairs[0][0]["replications"] == 100
    lines, ok = bench_pairs.summarize(pairs, SPEC)
    assert ok
    # statistics.quantiles' default method on [90, 100, 105, 110]: q1 92.5, q3 108.75
    assert row(lines, "replications") == [
        "replications", "102.5", "[92.5,", "108.75]", "127.5", "[121.25,", "133.75]", "1.2439",
    ]
    # a run that reports no replication count leaves the row without a pair
    bare = bench_pairs.parse_result(stdout(1.0e7, 0.01).replace("replications        40\n", ""))
    assert "replications" not in bare
    lines, ok = bench_pairs.summarize([(bare, pairs[0][1])], SPEC)
    assert ok
    assert row(lines, "replications") == ["replications", "no", "complete", "pair"]
