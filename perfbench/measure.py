"""Helpers shared by the cold and warm runners: forked children, metric
arithmetic and output."""
from __future__ import annotations

import json
import math
import os
import platform
import select
import signal
import time
from collections import Counter
from pathlib import Path
from typing import Callable

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
TAIL_BEYOND = 10

# per-layer metrics as listed in BENCHMARK.json: (traced name, suffix, unit),
# split at the last dot; trace.overhead_s is computed by the runners
PER_LAYER = [(*m["name"].rsplit(".", 1), m["unit"])
             for m in json.loads((ROOT / "BENCHMARK.json").read_text(
                 encoding="utf-8"))["per_layer"]
             if m["name"] != "trace.overhead_s"]


def forked(body: Callable[[], bytes], timeout: float | None = None):
    """Run ``body`` in a child forked from this process and collect the
    bytes it returns.  Returns ``(payload, seconds, rusage, timed_out)``;
    ``payload`` is ``None`` when the child timed out or died without a
    report.  The child is killed and reaped on a timeout, and also when
    this process is interrupted while waiting."""
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.close(read_fd)
            data = body()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    chunks: list[bytes] = []
    timed_out = reaped = False
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            while True:
                wait = None
                if timeout is not None:
                    wait = max(start + timeout - time.perf_counter(), 0.0)
                if not select.select([pipe], [], [], wait)[0]:
                    timed_out = True
                    os.kill(pid, signal.SIGKILL)
                    break
                chunk = os.read(pipe.fileno(), 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
        _, _, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    payload = b"".join(chunks) if chunks and not timed_out else None
    return payload, time.perf_counter() - start, usage, timed_out


def cpu_seconds(usage) -> float:
    """User plus system time of an ``os.wait4``/``getrusage`` result."""
    return usage.ru_utime + usage.ru_stime


def upper_quartile(samples) -> float:
    """The upper quartile (nearest rank) of repeated timings of one op or
    query, or infinite if any of them is.  A shared core flips between a
    fast and a slow state several times a second, and the share of fast
    time drifts from run to run.  A median or mean over the repeats
    follows that share; the upper quartile stays on the slow state, which
    holds most of the time, and still leaves out up to a quarter of
    outlier timings."""
    ordered = sorted(samples)
    return ordered[math.ceil(0.75 * len(ordered)) - 1]


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile that still has at least ten samples beyond
    it: ``(value, percentile, sample count)``.  With fewer than eleven
    samples there is none, and the maximum is returned at percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    index = n - 1 - TAIL_BEYOND
    return ordered[index], 100.0 * (index + 1) / n, n


def metadata() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
        else:
            commit = ref
    loc = sum(len(p.read_text(encoding="utf-8").splitlines())
              for p in sorted((SRC / "pacqa").glob("*.py")))
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_loc": loc}


def layer_metrics(spans, counts) -> dict:
    totals, self_s = tracing.aggregate(spans, counts)
    metrics = {}
    for name, suffix, unit in PER_LAYER:
        if suffix == "calls":
            value = totals[name + ".calls"]
        elif suffix == "s":
            value = self_s.get(name, 0.0)
        elif suffix == "budget_skips":
            value = totals[name + ".raised.BudgetError"]
        elif suffix == "useful_ratio":
            calls = totals[name + ".calls"]
            value = totals[name + ".true"] / calls if calls else 0.0
        else:
            value = totals[f"{name}.{suffix}"]
        metrics[f"{name}.{suffix}"] = (value, unit)
    return metrics, totals, self_s


def merge_traces(traces) -> tuple[list, Counter]:
    """Concatenate per-process ``(spans, counts)``, re-basing parents."""
    spans: list = []
    counts: Counter = Counter()
    for part, part_counts in traces:
        base = len(spans)
        spans += [(name, s, e, parent + base if parent >= 0 else -1, op)
                  for name, s, e, parent, op in part]
        counts.update(part_counts)
    return spans, counts


def write_spans(path: Path, spans) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("name\tstart\tend\tparent\top\n")
        for name, start, end, parent, op in spans:
            out.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         extra: dict, stem: str) -> None:
    # a metric left infinite by failed ops has no JSON number: print null
    body = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as out:
        json.dump({**body, "details": extra, "meta": metadata()}, out,
                  indent=2, sort_keys=True, default=str)
    print(json.dumps(body, sort_keys=True))
