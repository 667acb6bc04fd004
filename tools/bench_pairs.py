"""Paired benchmark runs of two checkouts, summarised per end-to-end metric.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W [W ...] \\
        [--pairs 10] [--seed 1] [--out BENCH_N.json]

Each pair runs the benchmark command of ``BENCHMARK.json`` (``perfbench/
run.py``) once in each checkout, for the run length that file fixes, with
the side that goes first alternating from pair to pair.  For every
end-to-end metric the summary gives each side's median and quartiles over
its runs, the pairs the change wins (ties count for neither side), whether
the change's median is worse than the parent's by more than the metric's
bound, and whether the change claims a gain: at least nine tenths of the
pairs won, and medians further apart than the parent's quartiles.  A metric
whose spread (either side's quartile distance over its median) is wider
than its bound is unresolved, unless every change run beats every parent
run.  Runs whose ops failed count as they are; ``attempted`` (ops finished
in the run) is printed beside ``peak_rss_mb``, since memory rises with the
ops a run keeps, and so is the change's peak RSS against the parent's at
equal ops (:func:`rss_at_equal_ops`).  After a workload's pairs, one traced
run per side (``--trace 1``) gives its layer call counts, and every count
that differs between the sides is printed (:func:`calls_differing`).
Each untraced run also leaves each op's CPU time in its details file; per
side the minimum of each op over the pairs is kept (:func:`op_minima`),
and the two sides' sums are printed.
``--out`` writes a JSON record: both checkouts' commits, the seed, pairs
and run length, each side's ``src/`` line counts, and per workload the
summary rows, the equal-ops RSS fit, each side's call counts and per-op
CPU minima, and every raw run.  Nothing is written under either
checkout's ``perfbench/``: the runs write no bytecode, and
``perfbench/run.py`` keeps its own outputs in ``.perfbench-out/`` at the
checkout's root.
"""
from __future__ import annotations

import argparse
import ast
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _value(result: dict, name: str) -> float:
    value = result["metrics"][name]["value"]
    return math.inf if value is None else value


def _spread(q: tuple[float, float, float]) -> float:
    """Quartile distance over the median; infinite when it cannot be
    told (an infinite value, or a zero median under a nonzero distance)."""
    width = q[2] - q[0]
    if not width:
        return 0.0
    return width / abs(q[1]) if q[1] and math.isfinite(width) else math.inf


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]
              ) -> list[dict]:
    """One row per end-to-end metric over ``(parent, change)`` results, each
    the JSON object ``perfbench/run.py`` prints last.  A metric printed as
    ``null`` (infinite, from failed ops) reads as infinity."""
    rows = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        if not all(name in p["metrics"] and name in c["metrics"]
                   for p, c in pairs):
            continue
        parent = [_value(p, name) for p, _ in pairs]
        change = [_value(c, name) for _, c in pairs]
        wins = sum(c < p if lower else c > p for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        limit = pq[1] * (1 + metric["bound"] if lower else 1 - metric["bound"])
        worse = cq[1] > limit if lower else cq[1] < limit
        better_by = pq[1] - cq[1] if lower else cq[1] - pq[1]
        gain = wins >= WIN_SHARE * len(pairs) and better_by > pq[2] - pq[0]
        spread = max(_spread(pq), _spread(cq))
        beats_all = (max(change) < min(parent) if lower
                     else min(change) > max(parent))
        rows.append({"name": name, "unit": metric["unit"], "parent": pq,
                     "change": cq, "wins": wins, "pairs": len(pairs),
                     "worse_than_bound": worse, "gain": gain,
                     "spread": spread, "unresolved":
                         spread > metric["bound"] and not beats_all})
    return rows


def rss_at_equal_ops(pairs: list[tuple[dict, dict]]) -> dict:
    """Peak RSS with the ops a run finished taken out: one line per side,
    ``peak_rss_mb = a_side + b * attempted``, with one slope ``b`` fitted
    by least squares to the deviations from each side's means.  Gives
    ``b`` in MB per 1,000 ops and ``a_change - a_parent`` in MB and as a %
    of the parent's median; all ``None`` when no side's ``attempted``
    spreads or a run printed no finite peak RSS."""
    sides = [[(r["attempted"], _value(r, "peak_rss_mb")) for r in side]
             for side in zip(*pairs)]
    means = [[statistics.fmean(v) for v in zip(*side)] for side in sides]
    sxx = sum((x - mx) ** 2 for side, (mx, _) in zip(sides, means)
              for x, _ in side)
    if not sxx or not all(math.isfinite(y) for side in sides
                          for _, y in side):
        return {"slope_mb_per_kop": None, "offset_mb": None,
                "offset_pct": None}
    slope = sum((x - mx) * (y - my) for side, (mx, my) in zip(sides, means)
                for x, y in side) / sxx
    (px, py), (cx, cy) = means
    offset = cy - py - slope * (cx - px)
    parent_median = statistics.median(y for _, y in sides[0])
    return {"slope_mb_per_kop": 1000 * slope, "offset_mb": offset,
            "offset_pct": 100 * offset / parent_median}


def render(rows: list[dict], pairs: list[tuple[dict, dict]]) -> str:
    """The summary table, then every run's values, pair by pair."""
    def three(q: tuple[float, float, float]) -> str:
        return "/".join(f"{v:.4g}" for v in q)

    attempted = ([p["attempted"] for p, _ in pairs],
                 [c["attempted"] for _, c in pairs])
    lines = [f"{'metric':<16} {'parent q1/median/q3':>26} "
             f"{'change q1/median/q3':>26} {'wins':>6}  verdict"]
    for row in rows:
        verdict = ("WORSE than bound" if row["worse_than_bound"]
                   else "within bound") + (", gain" if row["gain"] else "") \
            + (", unresolved" if row["unresolved"] else "")
        lines.append(f"{row['name']:<16} {three(row['parent']):>26} "
                     f"{three(row['change']):>26} "
                     f"{row['wins']:>3}/{row['pairs']:<2}  {verdict}")
        if row["name"] == "peak_rss_mb":
            lines.append(f"{'  attempted':<16} "
                         f"{three(quartiles(attempted[0])):>26} "
                         f"{three(quartiles(attempted[1])):>26}")
            fit = rss_at_equal_ops(pairs)
            lines.append("  at equal ops: " + (
                "no spread in attempted" if fit["offset_mb"] is None else
                f"{fit['slope_mb_per_kop']:.3g} MB per 1,000 ops, change "
                f"{fit['offset_mb']:+.3g} MB ({fit['offset_pct']:+.2g}%)"))
    for i, (p, c) in enumerate(pairs, start=1):
        first = "parent" if i % 2 else "change"
        for side, result in (("parent", p), ("change", c)):
            values = ", ".join(f"{k} {v['value']}" for k, v in
                               sorted(result["metrics"].items()))
            lines.append(f"pair {i} ({first} first) {side}: attempted "
                         f"{result['attempted']}, failed {result['failed']}, "
                         f"{values}")
    return "\n".join(lines)


def layer_calls(result: dict) -> dict[str, float]:
    """The ``*.calls`` metrics of one traced run, by name."""
    return {name: metric["value"]
            for name, metric in sorted(result["metrics"].items())
            if name.endswith(".calls")}


def calls_differing(calls: dict[str, dict[str, float]]) -> list[str]:
    """One line per call count that differs between ``calls["parent"]``
    and ``calls["change"]``; a count one side lacks reads ``None``."""
    parent, change = calls["parent"], calls["change"]
    return [f"{name}: parent {parent.get(name)}, change {change.get(name)}"
            for name in sorted(parent.keys() | change.keys())
            if parent.get(name) != change.get(name)]


def op_cpu_ms(checkout: Path, workload: str, seed: int
              ) -> dict[str, float] | None:
    """``details.cpu_ms`` of the last untraced run of ``workload`` in
    ``checkout``: each op's CPU time in ms (the upper quartile over its
    runs), or None where the workload records none."""
    path = checkout / ".perfbench-out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text(encoding="utf-8"))["details"].get(
        "cpu_ms")


def op_minima(runs: list[dict[str, float] | None]
              ) -> dict[str, float] | None:
    """Each op's minimum over the :func:`op_cpu_ms` of ``runs``; None when
    a run has none."""
    if None in runs:
        return None
    return {op: min(run[op] for run in runs if op in run)
            for op in sorted(set().union(*runs))}


def code_lines(text: str) -> int:
    """The code lines of one Python source: every line that a token other
    than a comment spans, less the lines of docstrings (string literals
    standing alone as statements).  Blank lines hold no token."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            docs.update(range(node.lineno, node.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
              tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in layout:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def src_lines(checkout: Path) -> dict[str, int]:
    """``wc -l`` and :func:`code_lines` over the package sources,
    ``src/*/*.py``."""
    texts = [path.read_text(encoding="utf-8")
             for path in sorted(checkout.glob("src/*/*.py"))]
    return {"wc_l": sum(text.count("\n") for text in texts),
            "code": sum(map(code_lines, texts))}


def commit_of(checkout: Path) -> str | None:
    """The checkout's ``HEAD`` commit, or ``None`` outside a git checkout."""
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else None


def _finite(value):
    """``value`` with every infinity as ``None``, so the record is JSON."""
    if isinstance(value, float) and math.isinf(value):
        return None
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    return value


def record(checkouts: dict[str, Path], seed: int, run_seconds: float,
           end_to_end: list[dict],
           runs: dict[str, list[tuple[dict, dict]]],
           calls: dict[str, dict[str, dict]],
           op_cpu: dict[str, dict[str, dict] | None]) -> dict:
    """The ``--out`` record for the ``runs`` of each workload: pairs of
    ``(parent, change)`` results, the parent first in odd pairs; ``calls``
    holds each workload's :func:`layer_calls` per side, where measured, and
    ``op_cpu`` its :func:`op_minima` per side (None where not recorded)."""
    return _finite({
        "commits": {side: commit_of(path) for side, path in checkouts.items()},
        "src_lines": {side: src_lines(path)
                      for side, path in checkouts.items()},
        "seed": seed, "run_seconds": run_seconds,
        "pairs": len(next(iter(runs.values()), [])),
        "workloads": [{
            "workload": workload,
            "metrics": summarize(pairs, end_to_end),
            "rss_at_equal_ops": rss_at_equal_ops(pairs),
            "layer_calls": calls.get(workload),
            "op_cpu_ms": op_cpu.get(workload),
            "runs": [{"first": "parent" if i % 2 else "change",
                      "parent": p, "change": c}
                     for i, (p, c) in enumerate(pairs, start=1)],
        } for workload, pairs in runs.items()],
    })


def run_once(checkout: Path, command: list[str], args: list[str]) -> dict:
    """One benchmark run in ``checkout``: its last stdout line, parsed."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([*command, *args], cwd=checkout, env=env,
                          capture_output=True, text=True, check=False)
    if done.returncode != 0 or not done.stdout.strip():
        raise SystemExit(f"benchmark failed in {checkout} "
                         f"(exit {done.returncode}): {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="parent checkout")
    parser.add_argument("change", type=Path, help="changed checkout")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path,
                        help="write the JSON record to this file")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs, calls, op_cpu = {}, {}, {}
    for workload in args.workload:
        run_args = ["--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(bench["run_seconds"])]
        pairs, cpu = [], {"parent": [], "change": []}
        for i in range(args.pairs):
            done = {}
            for side in ("change", "parent") if i % 2 else ("parent",
                                                            "change"):
                checkout = getattr(args, side)
                done[side] = run_once(checkout, bench["command"],
                                      [*run_args, "--trace", "0"])
                cpu[side].append(op_cpu_ms(checkout, workload, args.seed))
            pairs.append((done["parent"], done["change"]))
            print(f"{workload}: pair {i + 1}/{args.pairs} done",
                  file=sys.stderr, flush=True)
        runs[workload] = pairs
        calls[workload] = {
            side: layer_calls(run_once(getattr(args, side), bench["command"],
                                       [*run_args, "--trace", "1"]))
            for side in ("parent", "change")}
        print(f"{workload}, seed {args.seed}, {args.pairs} pairs, "
              f"{bench['run_seconds']} s per run")
        print(render(summarize(pairs, bench["end_to_end"]), pairs))
        minima = {side: op_minima(side_runs)
                  for side, side_runs in cpu.items()}
        op_cpu[workload] = None if None in minima.values() else minima
        print("op CPU ms, sum of per-op minima: " + (
            "not recorded" if op_cpu[workload] is None else ", ".join(
                f"{side} {sum(m.values()):.3f}"
                for side, m in minima.items())))
        differing = calls_differing(calls[workload])
        print(f"layer call counts ({len(calls[workload]['parent'])} names): "
              + ("equal" if not differing else "; ".join(differing)),
              flush=True)
        # rewritten after each workload, so a failed run keeps the others
        if args.out is not None:
            out = record({"parent": args.parent, "change": args.change},
                         args.seed, bench["run_seconds"],
                         bench["end_to_end"], runs, calls, op_cpu)
            args.out.write_text(
                json.dumps(out, indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
