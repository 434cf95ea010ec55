"""Command-line interface: config parsing, CSV contracts, exit codes."""
from __future__ import annotations

import csv
import json
import multiprocessing
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import aoisim
from aoisim import cli
from aoisim.analytic import (
    QueueParams,
    aoi_geo_geo_1,
    aoi_replacement,
    geo_values,
    optimal_arrival_rate,
    replacement_values,
)
from aoisim.cli import SIMULATE_COLUMNS, build_sim_config, main
from aoisim.engine import MeasurePoint
from aoisim.errors import ConfigError

SIM_HORIZON = 20_000


def minimal_doc(**kw) -> dict:
    doc = {
        "schema_version": 1,
        "n_sources": 2,
        "arrival_rates": 0.3,
        "discipline": "fifo",
        "policy": "round_robin",
        "channel": "perfect",
        "horizon": SIM_HORIZON,
    }
    doc.update(kw)
    return doc


def write_config(tmp_path, doc, name="cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigParsing:
    def test_minimal_document(self) -> None:
        cfg = build_sim_config(minimal_doc())
        assert cfg.n_sources == 2
        assert cfg.lambdas == (0.3, 0.3)
        assert cfg.horizon == SIM_HORIZON
        assert cfg.warmup == 0
        assert cfg.network_k is None
        assert cfg.resolved_measure_at() is MeasurePoint.AP

    def test_unknown_field_is_named(self) -> None:
        with pytest.raises(ConfigError, match="bogus_field"):
            build_sim_config(minimal_doc(bogus_field=3))

    def test_missing_field_is_named(self) -> None:
        doc = minimal_doc()
        del doc["channel"]
        with pytest.raises(ConfigError, match="channel"):
            build_sim_config(doc)

    def test_schema_version_checked(self) -> None:
        with pytest.raises(ConfigError, match="schema_version"):
            build_sim_config(minimal_doc(schema_version=2))
        # True == 1.0 == 1, but only the integer 1 is the schema version
        with pytest.raises(ConfigError, match="schema_version must be 1, got True"):
            build_sim_config(minimal_doc(schema_version=True))
        with pytest.raises(ConfigError, match="schema_version must be 1, got 1.0"):
            build_sim_config(minimal_doc(schema_version=1.0))

    def test_out_of_range_rate_names_the_field(self) -> None:
        with pytest.raises(ConfigError, match=r"arrival_rates\[0\]"):
            build_sim_config(minimal_doc(arrival_rates=1.5))
        with pytest.raises(ConfigError, match=r"arrival_rates\[1\]"):
            build_sim_config(minimal_doc(arrival_rates=[0.3, -0.1]))

    def test_booleans_are_not_numbers(self) -> None:
        with pytest.raises(ConfigError):
            build_sim_config(minimal_doc(arrival_rates=True))

    def test_per_source_lists_must_match_length(self) -> None:
        with pytest.raises(ConfigError, match="arrival_rates"):
            build_sim_config(minimal_doc(arrival_rates=[0.3, 0.3, 0.3]))

    def test_tolerances_are_checked(self) -> None:
        with pytest.raises(ConfigError, match="tolerances"):
            build_sim_config(minimal_doc(tolerances={"nope": 0.1}))
        with pytest.raises(ConfigError, match="tolerances"):
            build_sim_config(minimal_doc(tolerances={"aoi": 0.0}))

    def test_seed_env_default(self, monkeypatch) -> None:
        monkeypatch.setenv("AOISIM_SEED", "77")
        assert build_sim_config(minimal_doc()).seed == 77
        assert build_sim_config(minimal_doc(seed=5)).seed == 5
        monkeypatch.delenv("AOISIM_SEED")
        assert build_sim_config(minimal_doc()).seed == 0


class TestSimulateCommand:
    def test_header_and_rows(self, tmp_path, capsys) -> None:
        doc = minimal_doc(
            n_sources=3,
            arrival_rates=[0.2, 0.3, 0.4],
            channel="erasure",
            service_probs=0.8,
            seed=11,
        )
        assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = list(csv.reader(lines))
        assert tuple(rows[0]) == SIMULATE_COLUMNS
        assert len(rows) == 4
        by_col = [dict(zip(rows[0], r)) for r in rows[1:]]
        assert [r["source_id"] for r in by_col] == ["0", "1", "2"]
        assert [r["lambda"] for r in by_col] == ["0.2", "0.3", "0.4"]
        assert all(r["mu"] == "0.8" for r in by_col)
        assert all(r["p"] == "" and r["q"] == "" for r in by_col)
        assert all(r["network_k"] == "" and r["obsolete_frac"] == "" for r in by_col)
        assert all(r["seed"] == "11" for r in by_col)
        assert all(r["stability_warning"] in ("true", "false") for r in by_col)

    def test_rerun_is_byte_identical(self, tmp_path) -> None:
        cfg = write_config(tmp_path, minimal_doc(seed=3))
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["simulate", "--config", cfg, "--out", out1]) == 0
        assert main(["simulate", "--config", cfg, "--out", out2]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_missing_config_file(self, tmp_path, capsys) -> None:
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_invalid_json(self, tmp_path, capsys) -> None:
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_field_exits_two(self, tmp_path, capsys) -> None:
        cfg = write_config(tmp_path, minimal_doc(bogus_field=1))
        assert main(["simulate", "--config", cfg]) == 2
        assert "bogus_field" in capsys.readouterr().err

    def test_out_of_range_rate_exits_two(self, tmp_path, capsys) -> None:
        cfg = write_config(tmp_path, minimal_doc(arrival_rates=1.5))
        assert main(["simulate", "--config", cfg]) == 2
        assert "arrival_rates[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("k, code", [(1e-17, 2), (1e-16, 0)])
    def test_network_k_where_one_minus_k_rounds_to_one(self, tmp_path, capsys, k, code) -> None:
        # at k <= 2**-54, 1 - k rounds to 1 and no delay can be drawn: the
        # config is refused with the accepted range, not run into a traceback
        cfg = write_config(tmp_path, minimal_doc(n_sources=1, network_k=k, horizon=200))
        assert main(["simulate", "--config", cfg]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert err.startswith("error: network_k must be in (2**-54, 1]")

    def test_huge_n_sources_exits_two_before_broadcasting(self, tmp_path, capsys) -> None:
        # a tuple of 10**30 rates overflowed in the broadcast into a traceback
        cfg = write_config(tmp_path, minimal_doc(n_sources=10**30))
        assert main(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: n_sources must be in [1, 2**16], got {10**30}\n"

    def test_horizon_beyond_int64_slot_arithmetic_exits_two(self, tmp_path, capsys) -> None:
        # FIFO round robin's kernel overflowed int64 at this horizon; the
        # config is refused before a run starts
        cfg = write_config(tmp_path, minimal_doc(horizon=2**62))
        assert main(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: horizon must be in [1, 2**44], got {2**62}\n"

    def test_unwritable_out_exits_two(self, tmp_path, capsys) -> None:
        cfg = write_config(tmp_path, minimal_doc(horizon=200))
        out = tmp_path / "no" / "such" / "x.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}:")


def analytic_lines(capsys) -> dict[str, str]:
    out = capsys.readouterr().out.splitlines()
    pairs = [line.split() for line in out if line]
    assert all(len(p) == 2 for p in pairs)
    return dict(pairs)


class TestAnalyticCommand:
    def test_certain_service_prints_three(self, capsys) -> None:
        assert main(["analytic", "--lambda", "0.5", "--mu", "1.0", "--model", "all"]) == 0
        values = analytic_lines(capsys)
        assert values["geo.avg_aoi"] == "3.00000"
        assert values["replacement.avg_aoi"] == "3.00000"

    def test_replacement_reference_point(self, capsys) -> None:
        assert main(["analytic", "--lambda", "0.2", "--mu", "0.5", "--model", "replacement"]) == 0
        values = analytic_lines(capsys)
        assert values["replacement.avg_aoi"] == "7.17308"
        assert values["replacement.drop_prob"] == "0.0625000"
        assert "geo.avg_aoi" not in values

    def test_model_geo_only(self, capsys) -> None:
        assert main(["analytic", "--lambda", "0.2", "--mu", "0.5", "--model", "geo"]) == 0
        values = analytic_lines(capsys)
        assert values["geo.avg_aoi"] == "7.26667"
        assert not any(k.startswith("replacement.") for k in values)

    def test_json_matches_library(self, capsys) -> None:
        assert main(
            ["analytic", "--lambda", "0.2", "--mu", "0.5", "--model", "all", "--json"]
        ) == 0
        blocks = json.loads(capsys.readouterr().out)
        params = QueueParams(0.2, 0.5)
        assert blocks["geo"]["avg_aoi"] == pytest.approx(aoi_geo_geo_1(params), rel=1e-12)
        assert blocks["geo"]["optimal_rate"] == pytest.approx(
            optimal_arrival_rate(0.5), rel=1e-12
        )
        assert blocks["geo"]["mean_system_time"] == pytest.approx(8 / 3, rel=1e-12)
        assert blocks["geo"]["wait_cross_moment"] == pytest.approx(4 / 3, rel=1e-12)
        assert blocks["replacement"]["avg_aoi"] == pytest.approx(
            float(Fraction(373, 52)), rel=1e-12
        )
        assert blocks["replacement"]["drop_prob"] == pytest.approx(1 / 16, rel=1e-12)
        assert blocks["replacement"]["effective_rate"] == pytest.approx(3 / 16, rel=1e-12)

    @pytest.mark.parametrize(
        "lam,mu", [(0.05, 0.3), (0.1, 0.2), (0.2, 0.5), (0.35, 0.8), (0.6, 0.9), (0.5, 1.0)]
    )
    def test_mean_system_time_obeys_littles_law(self, capsys, lam: float, mu: float) -> None:
        # lam * E[T] is the mean occupancy of the stationary FIFO chain
        assert main(
            ["analytic", "--lambda", str(lam), "--mu", str(mu), "--model", "geo", "--json"]
        ) == 0
        mean_t = json.loads(capsys.readouterr().out)["geo"]["mean_system_time"]
        # pi(n) = rho**(n-1) * pi1 for n >= 1
        st = geo_values(QueueParams(lam, mu))
        occupancy = sum(n * st["utilization"] ** (n - 1) * st["pi1"] for n in range(1, 4000))
        assert lam * mean_t == pytest.approx(occupancy, rel=1e-9)

    def test_json_blocks_are_the_library_mappings(self, capsys) -> None:
        assert main(["analytic", "--lambda", "0.2", "--mu", "0.5", "--json"]) == 0
        blocks = json.loads(capsys.readouterr().out)
        params = QueueParams(0.2, 0.5)
        lam_star = optimal_arrival_rate(0.5)
        geo = {
            **geo_values(params),
            "optimal_rate": lam_star,
            "optimal_aoi": aoi_geo_geo_1(QueueParams(lam_star, 0.5)),
        }
        # items, not dicts, so that the key order is compared too
        assert list(blocks["geo"].items()) == list(geo.items())
        assert list(blocks["replacement"].items()) == list(replacement_values(params).items())

    def test_unstable_pair_exits_two(self, capsys) -> None:
        assert main(["analytic", "--lambda", "0.9", "--mu", "0.5", "--model", "geo"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "lam, mu, err",
        [
            ("1e-200", "0.5", "error: lam must be in [1e-75, 1), got 1e-200\n"),
            ("0.3", "1e-200", "error: mu must be in [1e-75, 1], got 1e-200\n"),
        ],
        ids=["lambda", "mu"],
    )
    def test_rate_below_the_closed_forms_floor_exits_two(self, capsys, lam, mu, err) -> None:
        # lam**2 * mu**2 underflows to 0 below the floor, where the
        # replacement forms divided by it into a traceback
        assert main(["analytic", "--lambda", lam, "--mu", mu]) == 2
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("model", ["geo", "all"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_no_age_optimal_rate_leaves_out_only_its_two_rows(
        self, capsys, model: str, as_json: bool
    ) -> None:
        # the age-optimal rate of a mu below about 1.88e-75 lies below the
        # closed forms' floor, where every other closed form still holds
        argv = ["analytic", "--lambda", "1e-75", "--mu", "1.5e-75", "--model", model]
        assert main(argv + ["--json"] * as_json) == 0
        out, err = capsys.readouterr()
        reason = "the age-optimal rate 7.96515e-76 for mu=1.5e-75 is below 1e-75"
        assert err == f"note: geo.optimal_rate and geo.optimal_aoi left out: {reason}\n"
        params = QueueParams(1e-75, 1.5e-75)
        expected = {"geo": geo_values(params)}
        if model == "all":
            expected["replacement"] = replacement_values(params)
        if as_json:
            assert json.loads(out) == expected
        else:
            keys = [line.split()[0] for line in out.splitlines()]
            assert keys == [f"{m}.{k}" for m, vals in expected.items() for k in vals]

    @pytest.mark.parametrize(
        "lam, mu", [("1e-7", "1e-06"), ("1e-7", "2.1e-06"), ("0.5", "0.999999999999")]
    )
    def test_age_optimal_rate_is_printed_at_a_mu_near_either_end(
        self, capsys, lam: str, mu: str
    ) -> None:
        # the bisection's bracket scales with mu, so it holds a root near 0 and near 1
        assert main(["analytic", "--lambda", lam, "--mu", mu, "--model", "geo", "--json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        geo = json.loads(out)["geo"]
        lam_star = optimal_arrival_rate(float(mu))
        assert 0.0 < lam_star < float(mu)
        assert geo["optimal_rate"] == lam_star
        assert geo["optimal_aoi"] == aoi_geo_geo_1(QueueParams(lam_star, float(mu)))

    @pytest.mark.parametrize("lam,mu", [("0.7", "0.3"), ("0.5", "0.5")])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_both_models_at_an_unstable_pair_print_replacement(
        self, capsys, lam: str, mu: str, as_json: bool
    ) -> None:
        # the replacement forms hold at lam >= mu; the FIFO block is left out with a note
        argv = ["analytic", "--lambda", lam, "--mu", mu] + ["--json"] * as_json
        assert main(argv + ["--model", "replacement"]) == 0
        alone = capsys.readouterr()
        assert main(argv) == 0
        both = capsys.readouterr()
        assert both.out == alone.out
        assert alone.err == ""
        assert both.err == f"note: geo block left out: FIFO queue requires lam < mu, got lam={lam}, mu={mu}\n"


def dedicated_doc(**kw) -> dict:
    doc = {
        "schema_version": 1,
        "n_sources": 1,
        "arrival_rates": 0.2,
        "discipline": "replacement",
        "policy": "round_robin",
        "channel": "erasure",
        "service_probs": 0.5,
        "horizon": 40_000,
        "seed": 5,
    }
    doc.update(kw)
    return doc


class TestSweepCommand:
    def test_rate_sweep_shape_and_aggregates(self, tmp_path) -> None:
        cfg = write_config(tmp_path, dedicated_doc(discipline="fifo"))
        out = str(tmp_path / "sweep.csv")
        rc = main(
            [
                "sweep",
                "--config",
                cfg,
                "--axis",
                "lambda",
                "--from",
                "0.05",
                "--to",
                "0.45",
                "--steps",
                "5",
                "--seeds",
                "2",
                "--out",
                out,
            ]
        )
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10  # 5 points x 2 seeds x 1 source
        assert [r["lambda"] for r in rows[:4]] == ["0.05", "0.05", "0.15", "0.15"]
        assert [r["seed"] for r in rows[:4]] == ["5", "6", "5", "6"]

        means: dict[str, float] = {}
        for r in rows:
            point = r["lambda"]
            assert float(r["se_avg_aoi"]) > 0.0
            if point in means:
                assert float(r["mean_avg_aoi"]) == means[point]
            else:
                means[point] = float(r["mean_avg_aoi"])
        # age is high at both extremes of the rate axis: too few updates on
        # the left, queueing delay on the right
        ordered = [means[k] for k in sorted(means, key=float)]
        best = min(range(5), key=lambda j: ordered[j])
        assert 0 < best < 4
        assert ordered[0] > ordered[best] and ordered[-1] > ordered[best]

    def test_single_seed_has_no_se(self, tmp_path) -> None:
        cfg = write_config(tmp_path, dedicated_doc(horizon=5000))
        out = str(tmp_path / "one.csv")
        assert (
            main(
                [
                    "sweep", "--config", cfg, "--axis", "lambda",
                    "--from", "0.2", "--to", "0.4", "--steps", "2",
                    "--seeds", "1", "--out", out,
                ]
            )
            == 0
        )
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(r["se_avg_aoi"] == "" for r in rows)
        assert all(r["mean_avg_aoi"] == r["avg_aoi"] for r in rows)

    def test_workers_do_not_change_output(self, tmp_path) -> None:
        cfg = write_config(tmp_path, dedicated_doc(horizon=5000))
        args = [
            "sweep", "--config", cfg, "--axis", "lambda",
            "--from", "0.1", "--to", "0.4", "--steps", "3", "--seeds", "2",
        ]
        out1, out2 = str(tmp_path / "w1.csv"), str(tmp_path / "w2.csv")
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2, "--workers", "2"]) == 0
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()

    def test_workers_are_clamped_to_jobs_and_cpus(self, tmp_path, monkeypatch) -> None:
        cfg = write_config(tmp_path, dedicated_doc(horizon=2000))
        args = [
            "sweep", "--config", cfg, "--axis", "lambda",
            "--from", "0.1", "--to", "0.4", "--steps", "3", "--seeds", "1",
        ]
        started = []
        start = multiprocessing.process.BaseProcess.start

        def recording_start(process):
            started.append(process)
            start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording_start)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        out1, out64 = tmp_path / "w1.csv", tmp_path / "w64.csv"
        assert main(args + ["--out", str(out1), "--workers", "1"]) == 0
        assert started == []
        assert main(args + ["--out", str(out64), "--workers", "64"]) == 0
        assert len(started) == 1  # three jobs, two CPUs: this process and one child
        assert out1.read_bytes() == out64.read_bytes()
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        assert main(args + ["--out", str(out64), "--workers", "64"]) == 0
        assert len(started) == 1 + 2  # three jobs, eight CPUs: two children
        assert out1.read_bytes() == out64.read_bytes()
        assert multiprocessing.active_children() == []

    def test_uneven_shares_do_not_change_output(self, tmp_path, monkeypatch) -> None:
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        cfg = write_config(tmp_path, dedicated_doc(horizon=2000))
        args = [
            "sweep", "--config", cfg, "--axis", "lambda",
            "--from", "0.1", "--to", "0.4", "--steps", "5", "--seeds", "1",
        ]
        outs = []
        for workers in ("1", "2", "3"):  # 5 jobs: shares of 3+2 and 2+2+1
            out = tmp_path / f"w{workers}.csv"
            assert main(args + ["--out", str(out), "--workers", workers]) == 0
            outs.append(out.read_bytes())
        assert outs[1] == outs[0] and outs[2] == outs[0]
        assert multiprocessing.active_children() == []

    def _sweep_in_children(self, tmp_path, monkeypatch, in_child, in_parent=None) -> int:
        """A 4-job sweep on 2 workers whose ``_sweep_job`` runs ``in_child`` in the
        child (and ``in_parent`` in this process) before the real job."""
        parent, job = os.getpid(), cli._sweep_job

        def patched(config):
            hook = in_child if os.getpid() != parent else in_parent
            if hook is not None:
                hook()
            return job(config)

        monkeypatch.setattr(cli, "_sweep_job", patched)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        cfg = write_config(tmp_path, dedicated_doc(horizon=500))
        return main(
            ["sweep", "--config", cfg, "--axis", "lambda", "--from", "0.1", "--to", "0.4",
             "--steps", "2", "--seeds", "2", "--workers", "2", "--out", str(tmp_path / "x.csv")]
        )

    def test_config_error_in_a_child_exits_two(self, tmp_path, monkeypatch, capfd) -> None:
        def fail():
            raise ConfigError("bad point in a child")

        assert self._sweep_in_children(tmp_path, monkeypatch, fail) == 2
        assert capfd.readouterr().err == "error: bad point in a child\n"
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="the platform cannot fork"
    )
    def test_children_are_forked_whatever_the_default_start_method(
        self, tmp_path, monkeypatch, capfd
    ) -> None:
        # a spawned child imports aoisim afresh, so it would run the unpatched
        # job and the sweep would succeed
        def fail():
            raise ConfigError("bad point in a child")

        default = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("spawn", force=True)
        try:
            assert self._sweep_in_children(tmp_path, monkeypatch, fail) == 2
        finally:
            multiprocessing.set_start_method(default, force=True)
        assert capfd.readouterr().err == "error: bad point in a child\n"
        assert multiprocessing.active_children() == []

    def test_a_child_that_dies_names_its_exit_code(self, tmp_path, monkeypatch, capfd) -> None:
        assert self._sweep_in_children(tmp_path, monkeypatch, lambda: os._exit(7)) == 4
        assert capfd.readouterr().err == (
            "error: sweep worker exited with code 7 before sending its rows\n"
        )
        assert multiprocessing.active_children() == []

    def test_a_failure_here_stops_the_children(self, tmp_path, monkeypatch, capfd) -> None:
        def fail():
            raise ConfigError("bad point here")

        began = time.monotonic()
        rc = self._sweep_in_children(tmp_path, monkeypatch, lambda: time.sleep(60), fail)
        assert rc == 2
        assert capfd.readouterr().err == "error: bad point here\n"
        assert multiprocessing.active_children() == []
        assert time.monotonic() - began < 30  # terminated, not waited for

    def test_axis_p_column_holds_the_swept_value(self, tmp_path) -> None:
        # the sweep sets service_probs, while simulate's p column is
        # success_probs, which this config leaves unset
        cfg = write_config(tmp_path, dedicated_doc(horizon=2000))
        out = tmp_path / "p.csv"
        assert main(
            ["sweep", "--config", cfg, "--axis", "p",
             "--from", "0.5", "--to", "0.9", "--steps", "3", "--out", str(out)]
        ) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["p"] for r in rows] == ["0.5", "0.7", "0.9"]

    def test_unwritable_out_exits_two(self, tmp_path, capsys, monkeypatch) -> None:
        calls = []
        job = cli._sweep_job
        monkeypatch.setattr(cli, "_sweep_job", lambda config: calls.append(config) or job(config))
        cfg = write_config(tmp_path, dedicated_doc(horizon=200))
        out = tmp_path / "no" / "such" / "x.csv"
        rc = main(
            ["sweep", "--config", cfg, "--axis", "lambda",
             "--from", "0.1", "--to", "0.4", "--steps", "2", "--out", str(out)]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}:")
        assert calls == []  # the output is opened before the first job

    def test_sweep_to_a_huge_n_exits_two(self, tmp_path, capsys, monkeypatch) -> None:
        monkeypatch.setattr(cli, "_sweep_job", lambda config: pytest.fail("a job ran"))
        cfg = write_config(tmp_path, minimal_doc(horizon=200))
        rc = main(
            ["sweep", "--config", cfg, "--axis", "N", "--from", "1", "--to", "1e30", "--steps", "2"]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: n_sources must be in [1, 2**16], got 1")

    @pytest.mark.parametrize(
        "axis, start, stop, flag",
        [
            ("lambda", "0.1", "inf", "--to"),
            ("N", "1", "inf", "--to"),
            ("lambda", "nan", "0.2", "--from"),
            ("k", "-inf", "0.5", "--from"),
            ("lambda", "-1e308", "1e308", "--to - --from"),
        ],
    )
    def test_sweep_with_a_non_finite_bound_exits_two_naming_it(
        self, tmp_path, capsys, monkeypatch, axis, start, stop, flag
    ) -> None:
        # the first point would be start + inf * 0, a NaN the user never gave
        monkeypatch.setattr(cli, "_sweep_job", lambda config: pytest.fail("a job ran"))
        cfg = write_config(tmp_path, minimal_doc(horizon=200))
        rc = main(
            ["sweep", "--config", cfg, "--axis", axis,
             f"--from={start}", f"--to={stop}", "--steps", "2"]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} must be finite, got ")

    @pytest.mark.parametrize(
        "steps, seeds, message",
        [
            ("100001", "1", "100001 points x 1 seeds is more than 100000 jobs"),
            ("400", "400", "400 points x 400 seeds is more than 100000 jobs"),
            ("2", "100001", "--seeds count must be in [1, 100000], got 100001"),
        ],
    )
    def test_more_jobs_than_the_cap_exit_two_before_any_is_built(
        self, tmp_path, capsys, monkeypatch, steps, seeds, message
    ) -> None:
        monkeypatch.setattr(cli, "_apply_axis", lambda *args: pytest.fail("a point was built"))
        cfg = write_config(tmp_path, minimal_doc(horizon=200))
        rc = main(
            ["sweep", "--config", cfg, "--axis", "lambda", "--from", "0.1", "--to", "0.2",
             "--steps", steps, "--seeds", seeds]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_two(self, tmp_path, capsys, monkeypatch, workers) -> None:
        monkeypatch.setattr(cli, "_sweep_job", lambda config: pytest.fail("a job ran"))
        cfg = write_config(tmp_path, dedicated_doc(horizon=200))
        rc = main(
            ["sweep", "--config", cfg, "--axis", "lambda",
             "--from", "0.1", "--to", "0.4", "--steps", "2", "--workers", workers]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: --workers must be >= 1, got {workers}\n"

    def test_axis_q_requires_random_access(self, tmp_path, capsys) -> None:
        cfg = write_config(tmp_path, dedicated_doc())
        rc = main(
            ["sweep", "--config", cfg, "--axis", "q",
             "--from", "0.1", "--to", "0.9", "--steps", "3"]
        )
        assert rc == 2
        assert "random_access" in capsys.readouterr().err

    def test_axis_p_requires_lossy_channel(self, tmp_path, capsys) -> None:
        cfg = write_config(tmp_path, dedicated_doc(channel="perfect"))
        del_doc = json.loads((tmp_path / "cfg.json").read_text())
        del del_doc["service_probs"]
        cfg = write_config(tmp_path, del_doc)
        rc = main(
            ["sweep", "--config", cfg, "--axis", "p",
             "--from", "0.5", "--to", "0.9", "--steps", "3"]
        )
        assert rc == 2
        assert "axis p" in capsys.readouterr().err


class TestValidateCommand:
    def test_dedicated_replacement_passes(self, tmp_path, capsys) -> None:
        # loose tolerances keep second-moment rows inside Monte Carlo noise
        # at this short horizon
        doc = dedicated_doc(
            horizon=300_000,
            tolerances={"aoi": 0.05, "occupancy": 0.02, "moments": 0.08},
        )
        cfg = write_config(tmp_path, doc)
        assert main(["validate", "--config", cfg, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["failures"] == 0
        rows = {r["name"]: r for r in out["rows"]}
        assert rows["avg_aoi"]["kind"] == "hard" and rows["avg_aoi"]["passed"] is True
        assert rows["drop_prob"]["kind"] == "info"
        assert rows["drop_prob"]["ref"] == pytest.approx(1 / 16, rel=1e-12)
        assert rows["drop_prob"]["passed"] is None
        assert {"gap_mean_after_empty", "gap_sq_after_busy"} <= rows.keys()

    def test_hard_failure_exits_three(self, tmp_path, capsys) -> None:
        doc = dedicated_doc(horizon=2000, tolerances={"aoi": 0.0001})
        cfg = write_config(tmp_path, doc)
        assert main(["validate", "--config", cfg]) == 3
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert out.splitlines()[-1].startswith("validate:")

    def test_rate_below_the_closed_forms_floor_exits_two(self, tmp_path, capsys) -> None:
        # the FIFO interarrival moment (2 - lam) / (lam * lam) divided by an
        # underflowed 0 at this rate; the closed forms now refuse it first
        cfg = write_config(tmp_path, dedicated_doc(discipline="fifo", arrival_rates=1e-200))
        assert main(["validate", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: lam must be in [1e-75, 1), got 1e-200\n"

    def test_requires_single_source(self, tmp_path, capsys) -> None:
        cfg = write_config(tmp_path, minimal_doc())
        assert main(["validate", "--config", cfg]) == 2
        assert "n_sources" in capsys.readouterr().err

    def test_rejects_random_access(self, tmp_path, capsys) -> None:
        doc = dedicated_doc(policy="random_access", access_probs=0.5)
        cfg = write_config(tmp_path, doc)
        assert main(["validate", "--config", cfg]) == 2
        assert "scheduled" in capsys.readouterr().err

    def test_rejects_network_stage(self, tmp_path, capsys) -> None:
        cfg = write_config(tmp_path, dedicated_doc(network_k=0.5))
        assert main(["validate", "--config", cfg]) == 2
        assert "network_k" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "discipline, lam, message",
        [
            ("fifo", 0.6, "FIFO queue requires lam < mu, got lam=0.6, mu=0.5"),
            ("fifo", 0.5, "FIFO queue requires lam < mu, got lam=0.5, mu=0.5"),
        ],
    )
    def test_rejected_parameters_fail_before_the_run(
        self, tmp_path, capsys, monkeypatch, discipline, lam, message
    ) -> None:
        def no_run(config):
            raise AssertionError("validate simulated a config the closed forms reject")

        monkeypatch.setattr(cli, "run_with_logs", no_run)
        cfg = write_config(tmp_path, dedicated_doc(discipline=discipline, arrival_rates=lam))
        assert main(["validate", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_equal_rates_replacement_reaches_the_run(self, tmp_path, capsys) -> None:
        # the replacement closed forms hold at lam == mu; whether the rows
        # pass is the slot-convention question, not a parameter error
        cfg = write_config(tmp_path, dedicated_doc(arrival_rates=0.5))
        assert main(["validate", "--config", cfg, "--json"]) in (0, 3)
        rows = {r["name"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
        assert rows["avg_aoi"]["sim"] is not None
        assert rows["avg_aoi"]["ref"] == aoi_replacement(QueueParams(0.5, 0.5))

    def test_perfect_channel_replacement_runs_to_an_exit_code(self, tmp_path, capsys) -> None:
        # at mu = 1 nothing is ever dropped, so the drop_prob reference is 0
        doc = dedicated_doc(
            channel="perfect", arrival_rates=0.3, horizon=20_000,
            tolerances={"moments": 0.08},
        )
        del doc["service_probs"]
        cfg = write_config(tmp_path, doc)
        assert main(["validate", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        drop_row = next(line for line in captured.out.splitlines() if " drop_prob " in line)
        assert "ref=0 " in drop_row and "err=0.00e+00" in drop_row

    def test_no_optimisation_work(self, tmp_path, capsys, monkeypatch) -> None:
        # the age-optimal rate is a bisection that depends on mu alone, so
        # only `analytic` computes it
        class Bisected(Exception):
            pass

        def bisection(mu):
            raise Bisected

        monkeypatch.setattr(cli, "optimal_arrival_rate", bisection)
        monkeypatch.setattr(aoisim.analytic, "optimal_arrival_rate", bisection)
        cfg = write_config(tmp_path, dedicated_doc(discipline="fifo", horizon=4000))
        assert main(["validate", "--config", cfg]) in (0, 3)
        assert capsys.readouterr().out.splitlines()[-1].startswith("validate:")
        with pytest.raises(Bisected):
            main(["analytic", "--lambda", "0.2", "--mu", "0.5", "--model", "geo"])

    @pytest.mark.parametrize("discipline", list(aoisim.Discipline))
    def test_rows_follow_the_discipline_table(self, tmp_path, capsys, discipline) -> None:
        cfg = write_config(tmp_path, dedicated_doc(discipline=discipline.value, horizon=4000))
        main(["validate", "--config", cfg, "--json"])
        rows = json.loads(capsys.readouterr().out)["rows"]
        table = cli._ROWS[discipline]
        tols = cli._DEFAULT_TOLERANCES[discipline]
        assert [r["name"] for r in rows] == list(table)
        for r in rows:
            key = table[r["name"]]
            assert r["kind"] == ("info" if key is None else "hard")
            assert r["tol"] == (None if key is None else tols[key])

    def test_json_output_is_strict_json(self, tmp_path, capsys) -> None:
        # 30 slots leave some statistics without samples
        cfg = write_config(tmp_path, dedicated_doc(horizon=30, seed=1))
        main(["validate", "--config", cfg, "--json"])

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        out = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert any(r["sim"] is None for r in out["rows"])


def test_python_dash_m_runs_the_cli() -> None:
    env = dict(os.environ, PYTHONPATH=str(Path(aoisim.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "aoisim", "analytic", "--lambda", "0.2", "--mu", "0.5"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "geo.avg_aoi" in proc.stdout and "7.26667" in proc.stdout
    assert "replacement.avg_aoi" in proc.stdout


@pytest.mark.parametrize("command", ["analytic", "validate", "simulate"])
def test_closed_stdout_exits_one_without_a_traceback(tmp_path, command: str) -> None:
    # the read end is closed before the child starts, so its first write to
    # stdout fails: at the final flush for short output, mid-command for long
    if command == "analytic":
        args = ["analytic", "--lambda", "0.2", "--mu", "0.5", "--json"]
    elif command == "validate":
        args = ["validate", "--config", write_config(tmp_path, dedicated_doc(horizon=2000))]
    else:  # 2,000 CSV rows overflow the stdout buffer, so the write fails mid-command
        args = ["simulate", "--config", write_config(tmp_path, minimal_doc(n_sources=2000, horizon=50))]
    env = dict(os.environ, PYTHONPATH=str(Path(aoisim.__file__).resolve().parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "aoisim", *args],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1
