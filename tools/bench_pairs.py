"""Paired benchmark runs of two checkouts, summarised per end-to-end metric.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        [--pairs 10] [--seed 1]

Each pair runs the benchmark command of ``BENCHMARK.json`` (``perfbench/
run.py``) once in each checkout, for the run length that file fixes, with
the side that goes first alternating from pair to pair.  For every
end-to-end metric the summary gives each side's median and quartiles over
its runs, the pairs the change wins (ties count for neither side), whether
the change's median is worse than the parent's by more than the metric's
bound, and whether the change claims a gain: at least nine tenths of the
pairs won, and medians further apart than the parent's quartiles.  Runs
whose ops failed count as they are; ``attempted`` (ops finished in the run)
is printed beside ``peak_rss_mb``, since memory rises with the ops a run
keeps.  Nothing is written under either checkout's ``perfbench/``: the
runs write no bytecode, and ``perfbench/run.py`` keeps its own outputs in
``.perfbench-out/`` at the checkout's root.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
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
        rows.append({"name": name, "unit": metric["unit"], "parent": pq,
                     "change": cq, "wins": wins, "pairs": len(pairs),
                     "worse_than_bound": worse, "gain": gain})
    return rows


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
                   else "within bound") + (", gain" if row["gain"] else "")
        lines.append(f"{row['name']:<16} {three(row['parent']):>26} "
                     f"{three(row['change']):>26} "
                     f"{row['wins']:>3}/{row['pairs']:<2}  {verdict}")
        if row["name"] == "peak_rss_mb":
            lines.append(f"{'  attempted':<16} "
                         f"{three(quartiles(attempted[0])):>26} "
                         f"{three(quartiles(attempted[1])):>26}")
    for i, (p, c) in enumerate(pairs, start=1):
        first = "parent" if i % 2 else "change"
        for side, result in (("parent", p), ("change", c)):
            values = ", ".join(f"{k} {v['value']}" for k, v in
                               sorted(result["metrics"].items()))
            lines.append(f"pair {i} ({first} first) {side}: attempted "
                         f"{result['attempted']}, failed {result['failed']}, "
                         f"{values}")
    return "\n".join(lines)


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
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    pairs = []
    for i in range(args.pairs):
        runs = {}
        for side in ("change", "parent") if i % 2 else ("parent", "change"):
            runs[side] = run_once(getattr(args, side), bench["command"],
                                  run_args)
        pairs.append((runs["parent"], runs["change"]))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"{bench['run_seconds']} s per run")
    print(render(summarize(pairs, bench["end_to_end"]), pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
