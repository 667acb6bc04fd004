"""Spans around pacqa's public functions, installed from outside the package.

:func:`install` replaces every public module-level function of every pacqa
module, plus ``linalg.SpanBasis.add`` and ``.contains``, by a wrapper at
every name the function is bound to (``pacqa.center.canonical_form`` as
well as ``pacqa.normalform.canonical_form`` and ``pacqa.canonical_form``).
Nothing under ``src/`` changes; the function :func:`install` returns puts
the originals back.

A wrapper records one span per call, ``(name, start, end, parent, op)``,
into a :class:`Recorder` kept in memory, plus counts at the same boundary:
``<name>.true`` for calls that returned ``True``, ``<name>.raised.<Error>``
for calls that raised, and ``linalg.nullspace.cells`` (rows times columns
of each matrix passed to ``nullspace``).  A layer's self
time is its span's duration minus the part of that interval its child spans
cover (:func:`self_times`).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable

# Methods traced besides module-level functions.  Other methods (arrow
# lookups, field arithmetic) run per matrix entry or per letter, where a
# span would cost more than the work it measures.
SPAN_BASIS_METHODS = ("add", "contains")


class Recorder:
    """Spans and counts of one process, in memory until exported."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = 0

    def reset(self, op_id: int) -> None:
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op_id = op_id

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op_id))
        self.stack.append(idx)
        return idx

    def close(self, idx: int, start: float, end: float) -> None:
        name, _, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, op)
        self.stack.pop()


def _wrap(recorder: Recorder, name: str, fn: Callable) -> Callable:
    cells_key = name + ".cells" if name == "linalg.nullspace" else None
    true_key = name + ".true"
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        counts = recorder.counts
        if cells_key is not None:
            rows = args[0] if args else kwargs["rows"]
            ncols = args[1] if len(args) > 1 else kwargs["ncols"]
            counts[cells_key] += len(rows) * ncols
        idx = recorder.open(name)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            recorder.close(idx, start, clock())
            counts[f"{name}.raised.{type(exc).__name__}"] += 1
            raise
        recorder.close(idx, start, clock())
        if result is True:
            counts[true_key] += 1
        return result

    return traced


def pacqa_modules(package) -> dict[str, object]:
    """Short name -> module, for every submodule of the package."""
    mods = {}
    for info in pkgutil.iter_modules(package.__path__):
        mods[info.name] = importlib.import_module(
            f"{package.__name__}.{info.name}")
    return mods


def public_functions(package) -> dict[str, Callable]:
    """Qualified name (``module.function`` or ``module.Class.method``) ->
    original callable, for everything :func:`install` wraps."""
    found: dict[str, Callable] = {}
    for short, mod in pacqa_modules(package).items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[f"{short}.{attr}"] = obj
        if short == "linalg":
            for method in SPAN_BASIS_METHODS:
                found[f"linalg.SpanBasis.{method}"] = \
                    vars(mod.SpanBasis)[method]
    return found


def install(package, recorder: Recorder) -> Callable[[], None]:
    """Put the wrappers in place; returns the function that restores every
    binding."""
    modules = pacqa_modules(package)
    wrappers = {id(fn): _wrap(recorder, name, fn)
                for name, fn in public_functions(package).items()}
    holders = [package, *modules.values(), modules["linalg"].SpanBasis]
    patched: list[tuple[object, str, object]] = []
    for holder in holders:
        for attr, obj in list(vars(holder).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                patched.append((holder, attr, obj))
                setattr(holder, attr, wrapper)

    def uninstall() -> None:
        for holder, attr, original in reversed(patched):
            setattr(holder, attr, original)
    return uninstall


def covered_length(intervals: Iterable[tuple[float, float]],
                   lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[tuple[str, float, float, int, int]]
               ) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - covered_length(children.get(i, ()), start, end)
            for i, (name, start, end, parent, op) in enumerate(spans)]


def aggregate(spans, counts: Counter) -> tuple[Counter, dict[str, float]]:
    """Calls per name (merged into a copy of ``counts`` as ``<name>.calls``)
    and summed self time per name."""
    totals = Counter(counts)
    self_s: dict[str, float] = defaultdict(float)
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[name + ".calls"] += 1
        self_s[name] += own
    return totals, dict(self_s)
