"""``tools/same_outputs.py``: its random configs and the comparison of two trees' outputs."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

from aoisim.cli import build_sim_config
from aoisim.engine import MeasurePoint
from aoisim.streams import _BLOCK

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_configs_are_valid_and_cover_every_path_and_feature() -> None:
    docs = same_outputs.random_configs(200, seed=3)
    assert docs == same_outputs.random_configs(200, seed=3)
    configs = [build_sim_config(doc) for doc in docs]
    # every policy, discipline and channel, the first 18 configs each combination once
    combos = {(c.policy.kind.value, c.discipline.value, c.channel.kind.value) for c in configs[:18]}
    assert len(combos) == 18
    assert any(c.network_k is not None for c in configs)
    assert {c.resolved_measure_at() for c in configs if c.network_k is not None} == set(MeasurePoint)
    assert any(c.warmup for c in configs)
    assert any(c.channel.collision_thinning for c in configs)
    assert any(0.0 in c.lambdas for c in configs) and any(1.0 in c.lambdas for c in configs)
    # horizons short, and across a span's end: more slots than a stream block
    assert min(c.horizon for c in configs) < 100
    assert same_outputs._BLOCK == _BLOCK
    assert max(c.horizon for c in configs) > _BLOCK


def test_outputs_of_one_config(tmp_path) -> None:
    doc = same_outputs.random_configs(1, seed=5)[0] | {"horizon": 300, "warmup": 0}
    report, sums, csv = same_outputs.outputs(doc, tmp_path)
    assert report.startswith("MetricsReport(")
    assert list(json.loads(sums)) == list(same_outputs.RECEPTION_SUMS)
    assert csv.startswith("source_id,")
    assert [report, sums, csv] == same_outputs.outputs(doc, tmp_path)


def test_reception_sums_by_name_and_from_the_older_records_agree() -> None:
    # two sources' sums, by name, and as the per-source records of revisions
    # before the sums were returned by name, gaps split into after_empty and after_busy
    names = same_outputs.RECEPTION_SUMS
    by_name = {name: [j, 100 + j] for j, name in enumerate(names)} | {"generated": [7, 8]}

    def record(i: int) -> SimpleNamespace:
        gaps = {
            kind: SimpleNamespace(**{
                field: by_name[f"{kind}_{field}"][i] for field in ("count", "z_sum", "z2_sum", "t_sum")
            })
            for kind in ("empty", "busy")
        }
        return SimpleNamespace(
            **{name: by_name[name][i] for name in names[:6]},
            after_empty=gaps["empty"], after_busy=gaps["busy"],
        )

    sums = same_outputs.reception_sums(by_name)
    assert sums == same_outputs.reception_sums([record(0), record(1)])
    assert json.loads(sums) == {name: by_name[name] for name in names}


def test_first_difference_names_the_config_and_the_output() -> None:
    base = [["r0", "s0", "c0"], ["r1", "s1", "c1"], ["r2", "s2", "c2"]]
    assert same_outputs.first_difference(base, [list(o) for o in base]) is None
    change = [["r0", "s0", "c0"], ["r1", "s1", "c1 "], ["r2", "x", "c2"]]
    assert same_outputs.first_difference(base, change) == (1, "simulate csv")
    assert same_outputs.first_difference(base, base[:2]) == (2, "count of configs")


def test_fewer_than_one_config_exits_two_before_the_export(monkeypatch, capsys) -> None:
    def no_run(*args, **kwargs):
        raise AssertionError("exported or ran a tree for zero configs")

    monkeypatch.setattr(same_outputs.subprocess, "run", no_run)
    assert same_outputs.main(["--base", "HEAD", "--configs", "0"]) == 2
    assert capsys.readouterr().err == "error: --configs must be >= 1, got 0\n"
