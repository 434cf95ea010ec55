"""Alternating base/change pairs of the benchmark, summarised per end-to-end metric.

    python3 tools/bench_pairs.py --base <rev> --workload rr_n100 --pairs 10 --seconds 30

Exports the base revision with ``git archive`` into a temporary directory.
For pair j it runs ``python3 perfbench/run.py --workload W --seed S+j
--seconds T --trace 0`` once in the base tree and once in the working tree,
the base first on even pairs and the change first on odd ones, so that a
drift of the host's speed weighs on both sides alike.

For every end-to-end metric of the working tree's ``BENCHMARK.json`` it
prints the base and change medians with their quartiles [q1, q3], the
change/base ratio of the medians, and in how many pairs the change was
better; then the same for the number of replications each run made (its
``replications`` line), since a run lasts a fixed time and what it keeps
grows with its replications; then the failed-check counts of each side.
It exits non-zero if any run failed a check or gave no result.  Standard
library only; it writes only to the temporary directory and to
``.perfbench_work/``, where the working tree's benchmark keeps its files.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_result(stdout: str) -> dict | None:
    """The JSON object on the last line of a benchmark run's stdout, if any.

    The run's replication count, from its ``replications`` line, is added
    as ``"replications"`` when the run reports one.
    """
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not (isinstance(result, dict) and "metrics" in result):
        return None
    for line in lines:
        words = line.split()
        if len(words) == 2 and words[0] == "replications" and words[1].isdigit():
            result["replications"] = int(words[1])
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); with one value all three are that value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(pairs: list[tuple[dict | None, dict | None]], spec: list[dict]) -> tuple[list[str], bool]:
    """Report lines for (base, change) results, and whether every run passed its checks.

    ``spec`` is ``BENCHMARK.json``'s ``end_to_end`` list.  A run without a
    result (``None``) counts as failed and is left out of the medians.
    """
    lines = [
        f"{'metric':<20} {'base median [q1, q3]':<40} {'change median [q1, q3]':<40} {'change/base':>11}  wins"
    ]
    complete = [(b, c) for b, c in pairs if b is not None and c is not None]
    for metric in spec:
        name = metric["name"]
        lines.append(_row(
            name,
            [(b["metrics"][name]["value"], c["metrics"][name]["value"]) for b, c in complete],
            metric["better"] == "higher",
        ))
    counted = [(b["replications"], c["replications"]) for b, c in complete
               if "replications" in b and "replications" in c]
    lines.append(_row("replications", counted, None))
    ok = True
    for side, results in (("base", [b for b, _ in pairs]), ("change", [c for _, c in pairs])):
        done = [r for r in results if r is not None]
        failed = sum(r["failed"] for r in done)
        attempted = sum(r["attempted"] for r in done)
        missing = len(results) - len(done)
        lines.append(
            f"failed checks {side:<7} {failed}/{attempted}"
            + (f", {missing} run(s) without a result" if missing else "")
        )
        ok = ok and not failed and not missing
    return lines, ok


def _row(name: str, pairs: list[tuple[float, float]], higher: bool | None) -> str:
    """A report line of (base, change) values: both medians [q1, q3] and their ratio.

    When ``higher`` says which way is better, the line ends with the
    change's wins.
    """
    if not pairs:
        return f"{name:<20} no complete pair"
    base, change = (list(side) for side in zip(*pairs))
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    ratio = f"{cmed / bmed:.4f}" if bmed else "n/a"
    line = (
        f"{name:<20} {f'{bmed:.6g} [{bq1:.6g}, {bq3:.6g}]':<40} "
        f"{f'{cmed:.6g} [{cq1:.6g}, {cq3:.6g}]':<40} {ratio:>11}"
    )
    if higher is None:
        return line
    wins = sum((c > b) if higher else (c < b) for b, c in pairs)
    return f"{line}  {wins}/{len(pairs)}"


def export(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest`` with ``git archive``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        capture_output=True, check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(f"{tree}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    return parse_result(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10, help="at least 1; 10 before claiming a gain")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=1, help="pair j runs seed SEED + j")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        print(f"error: --pairs must be >= 1, got {args.pairs}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        base_tree = Path(tmp)
        export(args.base, base_tree)
        for j in range(args.pairs):
            seed = args.seed + j
            order = [("base", base_tree), ("change", ROOT)]
            if j % 2:
                order.reverse()
            got = {side: run_bench(tree, args.workload, seed, args.seconds) for side, tree in order}
            pairs.append((got["base"], got["change"]))
            print(f"pair {j + 1}/{args.pairs} (seed {seed}, {order[0][0]} first) done", flush=True)
    lines, ok = summarize(pairs, spec)
    print(f"{args.workload}: {args.pairs} pairs, base {args.base}, --seconds {args.seconds}")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
