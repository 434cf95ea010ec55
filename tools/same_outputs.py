"""Compare a run's outputs between a base revision and the working tree, over random configs.

    python3 tools/same_outputs.py --base <rev> --configs 1000 --seed 1

Exports the base revision with ``git archive`` into a temporary directory,
as ``tools/bench_pairs.py`` does.  Builds ``--configs`` random run configs
from ``--seed``: every policy, discipline and channel in turn, with or
without a delay stage and a measure point, warm-up, silent and saturated
sources, and horizons short, long and just across a span end.  Each tree
runs every config in a process of its own, with its own ``src`` first on
the path, and gives three outputs per config: the ``repr`` of the
``MetricsReport``, the run's reception sums by name as JSON and the bytes
``aoisim simulate`` writes.  A tree's ``run_with_logs`` returns its sums by
name, or, in revisions before it did, a list of per-source records whose
``after_empty.z_sum`` is the sum named ``empty_z_sum`` and so on.  The
tool prints the number of configs that differ and exits 1 naming the
first of them, or 0 when none does.
Standard library only; it writes only to the temporary directory.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_BLOCK = 16_384  # slots per stream block: the longest span of a run
OUTPUTS = ("report", "reception sums", "simulate csv")
POLICIES = ("round_robin", "work_conserving", "random_access")
DISCIPLINES = ("fifo", "replacement")
CHANNELS = ("perfect", "erasure", "collision")
RECEPTION_SUMS = (
    "count", "t_sum", "yt2_sum", "zt2_sum", "tz_sum", "left_empty",
    "empty_count", "empty_z_sum", "empty_z2_sum", "empty_t_sum",
    "busy_count", "busy_z_sum", "busy_z2_sum", "busy_t_sum",
)


def _rate(rng: random.Random) -> float:
    """An arrival rate: mostly light to moderate, now and then silent or saturated."""
    r = rng.random()
    if r < 0.06:
        return 0.0
    if r < 0.1:
        return 1.0
    return round(rng.uniform(0.001, 0.6), 4)


def _probs(rng: random.Random, n: int, low: float) -> list[float]:
    return [1.0 if rng.random() < 0.1 else round(rng.uniform(low, 1.0), 4) for _ in range(n)]


def random_config(rng: random.Random, index: int) -> dict:
    """A valid ``simulate`` config document; ``index`` picks the policy, discipline and channel.

    Consecutive indices go through all 18 combinations, so any 18 of them
    cover each once.
    """
    policy = POLICIES[index % 3]
    discipline = DISCIPLINES[index // 3 % 2]
    channel = CHANNELS[index // 6 % 3]
    n = rng.randint(1, 6)
    doc: dict = {
        "schema_version": 1,
        "n_sources": n,
        "arrival_rates": [_rate(rng) for _ in range(n)],
        "discipline": discipline,
        "policy": policy,
        "channel": channel,
        "seed": rng.randrange(1 << 31),
    }
    if policy == "random_access":
        doc["access_probs"] = _probs(rng, n, 0.05)
    if channel != "perfect" and rng.random() < 0.7:
        doc["service_probs"] = _probs(rng, n, 0.05)
    if channel != "perfect" and rng.random() < 0.3:
        doc["success_probs"] = _probs(rng, n, 0.3)
    if channel == "collision" and rng.random() < 0.4:
        doc["collision_thinning"] = True
    if rng.random() < 0.4:
        doc["network_k"] = round(rng.uniform(0.05, 1.0), 4)
        if rng.random() < 0.6:
            doc["measure_at"] = rng.choice(("ap", "destination"))
    # a span is _BLOCK slots, or fewer when the rates add up to more than 1
    span = max(1, int(_BLOCK / max(1.0, sum(doc["arrival_rates"]))))
    kind = rng.random()
    if kind < 0.4:
        horizon = rng.randint(1, 3000)
    elif kind < 0.7:
        horizon = rng.randint(1, 3) * span + rng.randint(1, 600)
    else:
        horizon = rng.randint(3000, 40_000)
    doc["horizon"] = horizon
    if rng.random() < 0.5:
        doc["warmup"] = rng.randrange(horizon)
    return doc


def random_configs(count: int, seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [random_config(rng, j) for j in range(count)]


def reception_sums(sums) -> str:
    """The reception sums by name, one int per source, as JSON.

    ``sums`` is what ``run_with_logs`` returns next to the report: the sums
    by name, or, from older revisions, a list of per-source records.
    """
    if isinstance(sums, dict):
        return json.dumps({name: sums[name] for name in RECEPTION_SUMS})
    named = {}
    for name in RECEPTION_SUMS:
        kind, _, field = name.partition("_")
        if kind in ("empty", "busy"):
            named[name] = [getattr(getattr(rx, f"after_{kind}"), field) for rx in sums]
        else:
            named[name] = [getattr(rx, name) for rx in sums]
    return json.dumps(named)


def outputs(doc: dict, tmp: Path) -> list[str]:
    """The three outputs of one config, from the ``aoisim`` on the path."""
    from aoisim import cli, engine

    config = cli.build_sim_config(doc)
    report, sums = engine.run_with_logs(config)
    cfg, csv = tmp / "config.json", tmp / "out.csv"
    cfg.write_text(json.dumps(doc))
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(csv)])
    written = csv.read_text() if code == 0 else f"exit {code}"
    return [repr(report), reception_sums(sums), written]


def first_difference(base: list[list[str]], change: list[list[str]]) -> tuple[int, str] | None:
    """The index of the first config whose outputs differ, and the first output that does."""
    for j, (b, c) in enumerate(zip(base, change)):
        for name, x, y in zip(OUTPUTS, b, c):
            if x != y:
                return j, name
    if len(base) != len(change):
        return min(len(base), len(change)), "count of configs"
    return None


def run_tree(tree: Path, configs_file: Path, tmp: Path) -> subprocess.Popen:
    """Start a process that prints the outputs of every config, with ``tree``'s package."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--outputs-of", str(configs_file), "--tmp", str(tmp),
    ]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare against")
    parser.add_argument("--configs", type=int, default=1000, help="random configs to compare, at least 1")
    parser.add_argument("--seed", type=int, default=1, help="seed of the config generator")
    # the tool runs itself with this option in each tree
    parser.add_argument("--outputs-of", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--tmp", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.outputs_of is not None:
        docs = json.loads(args.outputs_of.read_text())
        json.dump([outputs(doc, args.tmp) for doc in docs], sys.stdout)
        return 0
    if args.base is None:
        parser.error("--base is required")
    if args.configs < 1:
        print(f"error: --configs must be >= 1, got {args.configs}", file=sys.stderr)
        return 2
    docs = random_configs(args.configs, args.seed)
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp_dir:
        tmp = Path(tmp_dir)
        base_tree = tmp / "base"
        base_tree.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", args.base],
            capture_output=True, check=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive, check=True)
        configs_file = tmp / "configs.json"
        configs_file.write_text(json.dumps(docs))
        results = []
        for side, tree in (("base", base_tree), ("change", ROOT)):
            scratch = tmp / f"{side}_files"
            scratch.mkdir()
            results.append(run_tree(tree, configs_file, scratch))
        got = []
        for proc in results:
            out, _ = proc.communicate()
            if proc.returncode:
                print(f"error: a tree's run exited {proc.returncode}", file=sys.stderr)
                return 1
            got.append(json.loads(out))
    base, change = got
    differing = sum(b != c for b, c in zip(base, change))
    print(f"{len(docs)} configs (seed {args.seed}), base {args.base}: {differing} differ")
    diff = first_difference(base, change)
    if diff is None:
        return 0
    j, name = diff
    print(f"first difference: config {j}, {name}: {json.dumps(docs[j])}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
