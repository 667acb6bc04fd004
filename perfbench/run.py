"""pacqa benchmark: run one workload, check every output, print the metrics.

    python3 perfbench/run.py --workload theorem-loops --seed 1 \\
        --seconds 25 --trace 0

Cold workloads (``theorem-loops``, ``oracle-sweep``, ``wide-quivers``) run
each CLI op through ``pacqa.cli.run`` in a fresh child forked from this
process, which has imported pacqa but run nothing, so every op starts with
cold caches as a CLI user's process does.  A run executes every op once,
then repeats the workload's hot ops until ``--seconds`` have passed; each
op's latency is the upper quartile of its child's CPU time over its
runs.  Ops with a known defect (``workloads.KNOWN_DEFECTS``) run once
after that, untimed and outside the op counts, and the run reports
whether each defect is still there.  ``library-session`` repeats a
session of queries, each in one warm process forked from this one, until
``--seconds`` have passed.

With ``--trace 1`` the run executes every op once (or one session)
untraced and then traced, each from a cold start, checks that both give
identical outputs, and reports the per-layer metrics of the traced pass
together with the tracing overhead.  See ``perfbench/README.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import pickle
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from measure import (OUT, ROOT, SRC, cpu_seconds, emit,  # noqa: E402
                     forked, layer_metrics, merge_traces, tail,
                     upper_quartile, write_spans)

WORKLOADS = ("theorem-loops", "oracle-sweep", "wide-quivers",
             "library-session")
SETUP_REPEATS = 5
OP_TIMEOUT_S = 60.0
PROBE_TIMEOUT_S = 15.0
RUN_BUDGET_S = 150.0   # no new op starts after this; the run stays < 180 s


# --------------------------------------------------------------------------
# cold ops in forked children


@dataclass
class OpResult:
    label: str
    code: int
    stdout: str
    stderr: str
    cpu_s: float            # user + system time of the child
    wall_s: float           # fork to reaping the child
    rss_mb: float
    problem: str | None     # why the op failed, None when it passed
    wrong: bool             # completed but with a wrong answer
    trace: tuple | None = None


def _run_cli(argv: list[str], recorder, op_id: int) -> bytes:
    """Body of the forked child: one CLI run with captured streams."""
    out, err = io.StringIO(), io.StringIO()
    code = 1
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if recorder is not None:
            recorder.reset(op_id)
        try:
            import pacqa.cli
            code = pacqa.cli.run(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except BaseException:  # report like an uncaught exception
            traceback.print_exc()
    trace = None
    if recorder is not None:
        trace = (recorder.spans, recorder.counts)
    return pickle.dumps((code, out.getvalue(), err.getvalue(), trace))


def run_cold(op: workloads.Op, timeout: float, recorder=None,
             op_id: int = 0) -> OpResult:
    payload, seconds, usage, timed_out = forked(
        lambda: _run_cli(op.argv, recorder, op_id), timeout)
    cpu_s, rss_mb = cpu_seconds(usage), usage.ru_maxrss / 1024.0
    if payload is None:
        why = "timed out" if timed_out else "child died without a report"
        return OpResult(op.label, -1, "", "", cpu_s, seconds, rss_mb, why,
                        False)
    code, stdout, stderr, trace = pickle.loads(payload)
    if "Traceback (most recent call last)" in stderr:
        problem = "traceback: " + stderr.strip().splitlines()[-1]
        wrong = False
    else:
        problem = workloads.check_report(op, code, stdout)
        # an answer that exits 0 (or reports disagreeing engines) but fails
        # its reference is wrong; other exits are refusals
        wrong = problem is not None and code in (0, 2)
    return OpResult(op.label, code, stdout, stderr, cpu_s, seconds, rss_mb,
                    problem, wrong, trace)


def run_round(ops, deadline: float, recorder=None) -> list[OpResult]:
    results = []
    for i, op in enumerate(ops):
        left = deadline - time.perf_counter()
        if left <= 0:
            break
        results.append(run_cold(op, min(OP_TIMEOUT_S, left), recorder, i))
    return results


def repeat_problems(results: list[OpResult]) -> list[str]:
    """Ops with equal labels must print byte-identical reports."""
    first: dict[str, OpResult] = {}
    problems = []
    for r in results:
        if r.problem:
            continue
        seen = first.setdefault(r.label, r)
        if seen.stdout != r.stdout:
            problems.append(f"{r.label}: report differs between repetitions")
    return problems


# --------------------------------------------------------------------------
# set-up


def setup_probe(workload: str, seed: int) -> int:
    """One set-up, as a run does it: import, input generation and a
    fork-parent ready to fork (one empty child forked and reaped)."""
    import pacqa.cli  # noqa: F401
    scratch = OUT / f"probe-{os.getpid()}"
    try:
        prepare(workload, seed, scratch)
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def measure_setup(workload: str, seed: int) -> float:
    """Upper quartile of the CPU times of several set-ups, each in a fresh
    interpreter (with the child it forks)."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = cpu_seconds(resource.getrusage(resource.RUSAGE_CHILDREN))
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, cwd=ROOT)
        times.append(cpu_seconds(resource.getrusage(resource.RUSAGE_CHILDREN))
                     - before)
    return upper_quartile(times)


def prepare(workload: str, seed: int, directory: Path):
    if workload == "library-session":
        import library
        return library.build_session(seed)
    return workloads.build_round(workload, seed, directory,
                                 SRC / "pacqa" / "fixtures")


# --------------------------------------------------------------------------
# runs


def timed_cold(rnd: workloads.Round, seconds: float):
    """All ops once, then passes over the hot ops until ``seconds`` have
    passed (at least one pass, so that every hot op runs twice)."""
    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    results = run_round(rnd.ops, deadline)
    passes = 0
    while True:
        results += run_round(rnd.hot, deadline)
        passes += 1
        now = time.perf_counter()
        if now >= deadline or now - start >= seconds:
            return results, passes, now - start


def traced_cold(rnd: workloads.Round, stem: str):
    """One untraced and one traced pass over the same round."""
    import pacqa
    plain = run_round(rnd.ops, time.perf_counter() + RUN_BUDGET_S / 2)
    recorder = tracing.Recorder()
    uninstall = tracing.install(pacqa, recorder)
    try:
        traced = run_round(rnd.ops[:len(plain)],
                           time.perf_counter() + RUN_BUDGET_S / 2, recorder)
    finally:
        uninstall()
    problems = [f"{a.label}: traced output differs"
                for a, b in zip(plain, traced)
                if (a.code, a.stdout) != (b.code, b.stdout)]
    spans, counts = merge_traces(r.trace for r in traced if r.trace)
    write_spans(OUT / f"{stem}-spans.tsv", spans)
    overhead = sum(r.cpu_s for r in traced) - sum(r.cpu_s for r in plain)
    return plain + traced, overhead, spans, counts, problems


def report_ops(results: list[OpResult]) -> None:
    print(f"  {'op':<48} {'cpu ms':>9} {'wall ms':>9} {'rss MB':>7}")
    for r in results:
        status = "ok" if r.problem is None else f"FAIL ({r.problem})"
        print(f"  {r.label:<48} {r.cpu_s * 1e3:9.1f} {r.wall_s * 1e3:9.1f} "
              f"{r.rss_mb:7.1f}  {status}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so that it kills and reaps its children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "pacqa" / "__init__.py").is_file():
        sys.stderr.write(f"error: pacqa sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    setup_s = measure_setup(args.workload, args.seed)
    import pacqa.cli  # noqa: F401  (fork parent: imported, nothing run)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        state = prepare(args.workload, args.seed, work_dir)
        if args.workload == "library-session":
            import library
            return library.main(state, args, setup_s, stem)
        return run_cold_workload(state, args, setup_s, stem)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def cold_metrics(results: list[OpResult]) -> tuple[dict, dict]:
    """Metrics per distinct op.  An op's cost is the upper quartile of the
    CPU time of its child over its runs; CPU time leaves out the time the
    child waited for a core.  An op passes only if all its runs pass; a
    failed op's latency is infinite, and its cost still counts in the time
    of the closed-loop pass that gives ``ops_per_s``."""
    slots: dict[str, list[OpResult]] = {}
    for r in results:
        slots.setdefault(r.label, []).append(r)
    cost = {label: upper_quartile([r.cpu_s for r in rs])
            for label, rs in slots.items()}
    ok = {label: all(r.problem is None for r in rs)
          for label, rs in slots.items()}
    latencies = [cost[label] if ok[label] else math.inf for label in slots]
    passed = sum(ok.values())
    tail_value, tail_pct, samples = tail(latencies)
    return {
        "ops_per_s": (passed / sum(cost.values()), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "peak_rss_mb": (max(r.rss_mb for r in results), "MB"),
        "ok_ratio": (passed / len(slots), "ratio"),
    }, {"tail_percentile": tail_pct, "samples": samples,
        "cpu_ms": {label: round(t * 1e3, 3) for label, t in cost.items()},
        "median_wall_ms": {label: round(statistics.median(
            r.wall_s for r in rs) * 1e3, 3) for label, rs in slots.items()}}


def is_correct(results: list[OpResult], problems: list[str]) -> bool:
    """No check failed and no op failed."""
    return not problems and all(r.problem is None for r in results)


def run_probes(rnd: workloads.Round) -> tuple[dict, list[str]]:
    """Run each known-defect op once, untimed and outside the op counts.
    Returns its outcome by label, and a problem for each one that gave a
    wrong answer instead of crashing."""
    outcomes, problems = {}, []
    for op in rnd.probes:
        r = run_cold(op, PROBE_TIMEOUT_S)
        if r.problem is None:
            outcome = "passes: the defect is fixed, make it a timed op"
        elif r.wrong:
            outcome = f"wrong answer: {r.problem}"
            problems.append(f"{r.label}: {outcome}")
        else:
            outcome = f"known defect still present: {r.problem}"
        outcomes[r.label] = outcome
        print(f"  probe {r.label}: {outcome}")
    return outcomes, problems


def run_cold_workload(rnd: workloads.Round, args, setup_s: float,
                      stem: str) -> int:
    if args.trace:
        results, overhead, spans, counts, problems = traced_cold(rnd, stem)
        metrics, totals, self_s = layer_metrics(spans, counts)
        metrics["trace.overhead_s"] = (overhead, "s")
        extra = {"calls": dict(totals), "self_s": self_s}
    else:
        results, passes, elapsed = timed_cold(rnd, args.seconds)
        problems = repeat_problems(results)
        metrics, extra = cold_metrics(results)
        metrics["setup_s"] = (setup_s, "s")
        extra.update(hot_passes=passes, elapsed_s=elapsed)
    report_ops(results)
    extra["known_defects"], probe_problems = run_probes(rnd)
    problems += probe_problems
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    failed = sum(1 for r in results if r.problem is not None)
    correct = is_correct(results, problems)
    extra["failures"] = sorted({f"{r.label}: {r.problem}"
                                for r in results if r.problem})
    if "tail_percentile" in extra:
        print(f"  {extra['hot_passes']} passes over the hot ops; tail = "
              f"p{extra['tail_percentile']:.1f} of {extra['samples']} ops")
    emit(correct, len(results), failed, metrics, extra, stem)
    return 0


if __name__ == "__main__":
    sys.exit(main())
