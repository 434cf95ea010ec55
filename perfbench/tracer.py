"""Outside-in tracer: wraps aoisim's functions and methods from this file.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces each
public function and method of the layer modules with a wrapper that records
one span per call, then rebinds every ``aoisim.*`` module attribute that held
the original object (the engine imports ``grant``, ``resolve`` and
``deliver_due`` by name; ``cli`` imports ``run`` and ``run_with_logs``).
``Tracer.uninstall`` puts every original back.

A span is one row of seven numbers kept in one flat ``array('d')``:
name id, start, end, parent span, replication id and two counts (``a``,
``b``) filled by a per-function observer.  Child processes forked while the
tracer is installed (the sweep's worker pool) keep recording and write their
spans to ``child_dir`` whenever their outermost traced call returns; the
parent merges those files, with each child's top spans parented to the span
that was open when the child was forked.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from pathlib import Path
from typing import Callable

import numpy as np

# aoisim's modules, one layer each
LAYERS = ("engine", "streams", "queueing", "access", "netdelay", "analytic", "cli")

# Wrapped in addition to the public names: the sweep's job entry point (its
# spans are what the worker processes send back) and stream construction.
EXTRA = {
    "cli": ("_sweep_job",),
    "streams": ("SourceStreams.__init__",),
}

WIDTH = 7  # name, start, end, parent, rep, a, b
NAME, START, END, PARENT, REP, A, B = range(WIDTH)


def _none_result(args, result):
    return (1 if result is None else 0), 0


def _resolve_counts(args, result):
    return len(args[1]), len(result)


def _deliver_counts(args, result):
    return len(result), sum(1 for _, fresh in result if not fresh)


# Counts recorded at the boundary where the work happens.
OBSERVERS: dict[str, Callable] = {
    "queueing.SourceQueue.begin_attempt": _none_result,  # a: idle grant
    "access.resolve": _resolve_counts,  # a: transmitters, b: delivered
    "netdelay.deliver_due": _deliver_counts,  # a: receptions, b: obsolete
}


def layer_targets(module) -> list[tuple[str, object, str]]:
    """(qualified name, owner, attribute) for every traced callable of a layer.

    Public functions defined in the module, public methods of its public
    classes, and the ``EXTRA`` names.
    """
    layer = module.__name__.rsplit(".", 1)[1]
    found: list[tuple[str, object, str]] = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((f"{layer}.{name}", module, name))
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    found.append((f"{layer}.{name}.{attr}", obj, attr))
    for extra in EXTRA.get(layer, ()):
        owner: object = module
        *path, attr = extra.split(".")
        for part in path:
            owner = getattr(owner, part)
        found.append((f"{layer}.{extra}", owner, attr))
    return found


def snapshot(modules) -> dict:
    """Every function bound in ``modules`` or in their own classes, by location."""
    found = {}
    for module in modules:
        for name, obj in vars(module).items():
            if inspect.isfunction(obj):
                found[(module.__name__, name)] = obj
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        found[(module.__name__, name, attr)] = member
    return found


class Tracer:
    """Records spans of calls into aoisim's layers while installed."""

    def __init__(self, child_dir: Path, clock: Callable[[], float] = time.perf_counter):
        self.child_dir = Path(child_dir)
        self.clock = clock
        self.names: list[str] = []
        self.buf = array("d")
        self.stack: list[int] = []
        self.rep = 0
        self.in_child = False
        self._fork_parent = -1
        self._flushes = 0
        self._patches: list[tuple[object, str, object]] = []
        self._fork_hook = False

    # -- recording -------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        """Wrapper recording one span per call of ``fn`` under ``name``."""
        name_id = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            buf = tracer.buf
            row = len(buf)
            buf.extend((name_id, 0.0, 0.0, stack[-1] if stack else -1, tracer.rep, 0.0, 0.0))
            stack.append(row // WIDTH)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buf[row + START] = start
                buf[row + END] = end
            if observe is not None:
                buf[row + A], buf[row + B] = observe(args, result)
            if tracer.in_child and not stack:
                tracer._flush_child()
            return result

        return traced

    def spans(self) -> np.ndarray:
        """All spans recorded so far, one row each, ``WIDTH`` columns."""
        return np.frombuffer(self.buf, dtype=np.float64).reshape(-1, WIDTH).copy()

    # -- child processes -----------------------------------------------
    def _after_fork_in_child(self) -> None:
        if not self._patches:
            return
        self._fork_parent = self.stack[-1] if self.stack else -1
        self.in_child = True
        self.buf = array("d")
        self.stack = []

    def _flush_child(self) -> None:
        rows = self.spans()
        local_root = rows[:, PARENT] < 0
        rows[local_root, PARENT] = -2  # marks "the span open at fork time"
        path = self.child_dir / f"spans-{os.getpid()}-{self._flushes}.npy"
        self._flushes += 1
        np.save(path, np.concatenate([[[self._fork_parent] * WIDTH], rows]))
        self.buf = array("d")

    def collect_children(self) -> None:
        """Append the spans child processes wrote, renumbering their parents."""
        for path in sorted(self.child_dir.glob("spans-*.npy")):
            data = np.load(path)
            path.unlink()
            fork_parent, rows = data[0, 0], data[1:]
            offset = len(self.buf) // WIDTH
            rows[:, PARENT] = np.where(rows[:, PARENT] == -2, fork_parent, rows[:, PARENT] + offset)
            self.buf.extend(rows.ravel().tolist())

    # -- patching --------------------------------------------------------
    def install(self, modules) -> None:
        """Wrap every target of ``modules`` and rebind it wherever it is bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.child_dir.mkdir(parents=True, exist_ok=True)
        aoisim_modules = [
            m for k, m in list(sys.modules.items()) if k == "aoisim" or k.startswith("aoisim.")
        ]
        try:
            for module in modules:
                for name, owner, attr in layer_targets(module):
                    original = vars(owner)[attr]
                    traced = self.wrap(name, original)
                    self._patch(owner, attr, traced)
                    if owner is module:
                        for other in aoisim_modules:
                            for alias, value in list(vars(other).items()):
                                if value is original:
                                    self._patch(other, alias, traced)
        except BaseException:
            self.uninstall()
            raise
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._after_fork_in_child)
            self._fork_hook = True

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover.

    Children of one span overlap only when they ran in parallel processes
    (the sweep's pool); for those parents the union of the children's
    intervals is subtracted, so waiting on the pool is covered while it works.
    """
    durations = spans[:, END] - spans[:, START]
    child = np.flatnonzero(spans[:, PARENT] >= 0)
    parents = spans[child, PARENT].astype(np.int64)
    result = durations - np.bincount(parents, weights=durations[child], minlength=len(spans))
    order = np.lexsort((spans[child, START], parents))
    p_sorted, c_sorted = parents[order], child[order]
    same = p_sorted[1:] == p_sorted[:-1]
    overlap = same & (spans[c_sorted[1:], START] < spans[c_sorted[:-1], END])
    for parent in np.unique(p_sorted[1:][overlap]).tolist():
        kids = c_sorted[p_sorted == parent]
        ivs = list(zip(spans[kids, START].tolist(), spans[kids, END].tolist()))
        result[parent] += durations[kids].sum() - covered(ivs)
    return result
