"""Boundary fuzz of ``cli.main``: every valid or invalid input ends in an exit code.

Configs cover every policy, discipline and channel with up to four
sources, horizons up to 10**5 with any warm-up below them, and rates and
probabilities at the edges of their ranges.  ``simulate``, ``validate
--json`` and ``analytic --json`` run in-process; each must return 0, 2 or
3 without an exception, and every number in a JSON output must be finite
or null.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aoisim.cli import main
from aoisim.streams import _BLOCK

# the rates and probabilities at the edges of [0, 1] and of float64
EDGES = (0.0, 5e-324, 1e-300, 1e-75, 1 - 2**-53, 1.0)
# network_k's lower edge: 1 - k rounds to 1 at 2**-54, and not at 2**-53
K_EDGES = EDGES + (2**-54, 2**-53)
EXIT_CODES = {0, 2, 3}

FUZZ = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def rates(n: int) -> st.SearchStrategy:
    """A scalar, broadcast to every source, or one value per source."""
    value = st.sampled_from(EDGES)
    return st.one_of(value, st.lists(value, min_size=n, max_size=n))


@st.composite
def config_docs(draw) -> dict:
    n = draw(st.integers(1, 4))
    # short horizons, those across a span's end, and the longest
    horizon = draw(st.one_of(st.integers(1, 300), st.sampled_from((_BLOCK, _BLOCK + 1, 10**5))))
    doc = {
        "schema_version": 1,
        "n_sources": n,
        "arrival_rates": draw(rates(n)),
        "discipline": draw(st.sampled_from(("fifo", "replacement"))),
        "policy": draw(st.sampled_from(("round_robin", "work_conserving", "random_access"))),
        "channel": draw(st.sampled_from(("perfect", "erasure", "collision"))),
        "horizon": horizon,
        "warmup": draw(st.sampled_from((0, horizon // 2, horizon - 1))),
        "seed": draw(st.integers(0, 3)),
    }
    if doc["policy"] == "random_access":
        doc["access_probs"] = draw(rates(n))
    if doc["channel"] == "erasure" or draw(st.booleans()):
        doc["service_probs"] = draw(rates(n))
    if doc["channel"] == "collision" and draw(st.booleans()):
        doc["collision_thinning"] = True
        doc["success_probs"] = draw(rates(n))
    if draw(st.booleans()):
        doc["network_k"] = draw(st.sampled_from(K_EDGES))
        if draw(st.booleans()):
            doc["measure_at"] = draw(st.sampled_from(("ap", "destination")))
    return doc


def finite_or_null(text: str) -> None:
    """Fail unless ``text`` is JSON whose every number is finite or null."""

    def refuse(name: str) -> None:
        pytest.fail(f"non-finite JSON number {name}")

    def check(v: float) -> float:
        assert math.isfinite(v), v
        return v

    json.loads(text, parse_constant=refuse, parse_float=lambda s: check(float(s)))


def run_main(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit code and standard output; any exception escapes."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in EXIT_CODES, argv
    return code, out.getvalue()


@pytest.fixture(scope="module")
def config_path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@FUZZ
@given(config_docs())
def test_simulate_and_validate_end_in_an_exit_code(config_path: Path, doc: dict) -> None:
    config_path.write_text(json.dumps(doc))
    run_main(["simulate", "--config", str(config_path)])
    code, out = run_main(["validate", "--config", str(config_path), "--json"])
    if code != 2:
        finite_or_null(out)


@settings(FUZZ, max_examples=150)  # about every one of the 108 triples
@given(
    st.sampled_from(EDGES),
    st.sampled_from(EDGES),
    st.sampled_from(("geo", "replacement", "all")),
)
def test_analytic_ends_in_an_exit_code(lam: float, mu: float, model: str) -> None:
    argv = ["analytic", "--lambda", repr(lam), "--mu", repr(mu), "--model", model, "--json"]
    code, out = run_main(argv)
    if code == 0:
        finite_or_null(out)
