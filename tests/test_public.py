"""The ``aoisim`` namespace: every exported name exists and has a caller, the
README's import works, and the names the benchmark in ``perfbench/`` reaches
into are there."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np

import aoisim
from aoisim import access, cli, netdelay
from aoisim.queueing import SourceQueue
from aoisim.streams import SourceStreams

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves() -> None:
    missing = [name for name in aoisim.__all__ if not hasattr(aoisim, name)]
    assert missing == []


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [name for name in ast.literal_eval(node.value) if not name.startswith("__")]
    return []


def test_every_public_name_has_a_caller() -> None:
    # a use is a name or attribute in the package or the benchmark, or a word
    # in the README's code; a def/class line, an import and an ``__all__``
    # entry are not uses, so the package's re-exports do not count
    def parse(path: Path) -> ast.Module:
        return ast.parse(path.read_text(encoding="utf-8"))

    trees = {path: parse(path) for path in (ROOT / "src" / "aoisim").glob("*.py")}
    bench = [
        parse(p) for p in (ROOT / "perfbench").rglob("*.py") if "tests" not in p.relative_to(ROOT).parts
    ]
    used: set[str] = set()
    for tree in [*trees.values(), *bench]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```[^\n]*\n(.*?)```", readme, re.S):
        used.update(re.findall(r"\w+", block))
    unused = [
        f"{path.stem}.{name}"
        for path, tree in sorted(trees.items())
        for name in _exported(tree)
        if name not in used
    ]
    assert unused == []


def test_readme_quick_start_import_executes() -> None:
    readme = ROOT / "README.md"
    imports = [
        line for line in readme.read_text(encoding="utf-8").splitlines()
        if line.startswith("from aoisim import ")
    ]
    assert imports
    for line in imports:
        exec(line, {})


def test_grant_is_the_access_rule() -> None:
    assert aoisim.grant is access.grant


def test_every_traced_layer_imports() -> None:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer in tracer.LAYERS:
        importlib.import_module(f"aoisim.{layer}")


def test_names_the_benchmark_wraps_exist() -> None:
    # the benchmark patches module attributes and class-dict entries by name
    assert callable(cli.run_with_logs)
    assert callable(cli._sweep_job)
    assert callable(netdelay.deliver_due)
    assert callable(vars(SourceQueue)["occupancy"])
    assert callable(vars(SourceStreams)["__init__"])
    assert callable(vars(netdelay.DelayStage)["inject"])


def test_deliver_due_returns_source_gen_and_informative_flag() -> None:
    stage = netdelay.DelayStage(1.0, [SourceStreams(0, 0), SourceStreams(0, 1)])
    # deliveries (source, gen) (0, 2), (1, 3) and (1, 1), all in slot 4
    stage.inject(np.array([0, 1, 1]), np.array([2, 3, 1]), np.array([4, 4, 4]))
    result = netdelay.deliver_due(stage, 5)
    assert result == [((0, 2), True), ((1, 3), True), ((1, 1), False)]
    assert all(type(fresh) is bool for _, fresh in result)
