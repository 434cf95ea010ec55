import json
from pathlib import Path

from perfbench import workloads

HERE = Path(__file__).resolve().parents[1]
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())["metrics"]


def test_every_metric_has_a_layer_and_no_more():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert sorted(names) == sorted(LAYERS)


def test_moves_name_known_metrics_and_workloads():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    known = {w["name"] for w in SPEC["workloads"]}
    for entry in LAYERS.values():
        for move in entry.get("moves", ()):
            assert move["metric"] in e2e
            assert set(move["workloads"]) <= known


def test_workloads_match_the_code():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()
    }


def test_baseline_has_every_metric_of_every_workload():
    baseline = json.loads((HERE / "baseline.json").read_text())["workloads"]
    assert sorted(baseline) == sorted(w["name"] for w in SPEC["workloads"])
    for entry in baseline.values():
        assert sorted(entry["end_to_end"]) == sorted(m["name"] for m in SPEC["end_to_end"])
        assert sorted(entry["per_layer"]) == sorted(m["name"] for m in SPEC["per_layer"])
