"""Shared machinery of the kamio benchmark: loading the library from the
checkout, the op/outcome protocol every workload follows, statistics, the
environment record, the speed reference that times are measured against,
and the span tracer.

Workloads build a fixed list of `Op`s from the seed.  One cycle runs every
op once, in order; the timed loop repeats whole cycles, so every run of a
seed measures the same mix of inputs.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

KAMIO_MODULES = ("kamio", "kamio.syntax", "kamio.machine", "kamio.equivalence",
                 "kamio.combinators", "kamio.realizability", "kamio.cli")


class SourceMissing(RuntimeError):
    """The checkout has no kamio sources to benchmark."""


def load_kamio(root: str):
    """Import kamio afresh from `<root>/src`, never from an installed copy.

    Every call drops the modules imported before, so timing it measures
    import and prelude load as a user's first call pays them.
    """
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "kamio", "__init__.py")):
        raise SourceMissing(f"no kamio sources under {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "kamio" or m.startswith("kamio.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(name) for name in KAMIO_MODULES}
    origin = os.path.realpath(mods["kamio"].__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SourceMissing(f"kamio was imported from {origin}, not from {src}")
    return mods["kamio"]


# ---------------------------------------------------------------------------
# Ops and outcomes


@dataclass
class Outcome:
    """What one op did, as seen by its oracle.

    `record` feeds the behaviour fingerprint; `error` is None when the
    oracle accepted the result, else a short reason.
    """

    record: str
    error: str | None = None
    steps: int = 0
    checks: int = 1
    decided: int = 1


@dataclass
class Op:
    kind: str
    call: Callable[["Tracer"], Outcome]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    harvest: Callable[[], dict] = dict
    probes: list[Op] = field(default_factory=list)  # known-defect probes, untimed


def bits_of(n: int) -> str:
    """MSB-first binary numeral, empty for zero (the oracle's own copy)."""
    return format(n, "b") if n else ""


# ---------------------------------------------------------------------------
# Statistics


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 1]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(samples: int) -> float:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for q in (0.99, 0.95, 0.9):
        if samples * (1 - q) >= 10 - 1e-9:
            return q
    raise ValueError(f"{samples} samples leave fewer than ten beyond p90")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as `statistics.quantiles`
    gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def quartile_spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


class Fingerprint:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, text: str) -> None:
        self._h.update(text.encode())
        self._h.update(b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Environment


def _git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(root, ".git", name)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines(root: str) -> int:
    total = 0
    pkg = os.path.join(root, "src", "kamio")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as f:
                total += sum(1 for _ in f)
    return total


def environment(root: str, seed: int) -> dict:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 0
    return {
        "python": platform.python_version(),
        "nproc": cores,
        "loadavg_start": round(os.getloadavg()[0], 2),
        "git_commit": _git_commit(root),
        "seed": seed,
        "src_lines": src_lines(root),
    }


# ---------------------------------------------------------------------------
# Speed reference


class _Node:
    __slots__ = ("left", "right", "value")

    def __init__(self, left, right, value):
        self.left, self.right, self.value = left, right, value


def _tree(depth: int, value: int) -> _Node:
    if depth == 0:
        return _Node(None, None, value)
    return _Node(_tree(depth - 1, 2 * value), _tree(depth - 1, 2 * value + 1), value)


def _walk(node, counts: dict) -> int:
    if node is None:
        return 0
    counts[node.value % 97] = counts.get(node.value % 97, 0) + 1
    return 1 + _walk(node.left, counts) + _walk(node.right, counts)


def reference_seconds() -> float:
    """Time of a fixed task that builds and walks a tree of 511 small
    objects, the kind of work kamio's term code does, without using kamio.

    On a shared machine the speed of this kind of code changes by itself,
    by up to 1.8x within seconds.  The task slows down with it: a cycle's
    op time relative to the reference stays within about 10% while the
    cycle's own time swings by up to 80%.  The collector is off while the
    task runs, so that it never pays for collecting the workload's heap.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _walk(_tree(8, 1), {})
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


# Times are reported at this reference speed: an op's ratio to the
# reference task, times REFERENCE_S (see PREDICTIONS.md for why a constant).
REFERENCE_S = 0.2e-3


def relative_time(elapsed: float, before: float, after: float) -> float:
    """`elapsed` in units of the reference task timed just before and after."""
    return 2 * elapsed / (before + after)


# ---------------------------------------------------------------------------
# Spans


class Tracer:
    """Keeps spans (name, start, end, parent, op id) in memory.

    The untraced run uses `NULL_TRACER`, whose spans cost one attribute
    lookup and an empty context manager.
    """

    enabled = True

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._open: list[int] = []
        self.op_id = -1

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op_id))
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer (the span name's first part)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
        return out


class _NullTracer:
    enabled = False
    op_id = -1
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NULL_TRACER = _NullTracer()
