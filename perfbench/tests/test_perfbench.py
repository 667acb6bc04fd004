"""Tests of the benchmark's own machinery (not of pacqa).

Run from the repository root:  python -m pytest perfbench/tests -q
"""
from __future__ import annotations

import importlib
import math
import os
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import families  # noqa: E402
import library  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import TraceIdeal  # noqa: E402


# --------------------------------------------------------------------------
# percentile and self-time helpers against hand-computed values


def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 21)]      # 1..20
    random.Random(0).shuffle(values)
    assert measure.tail(values) == (10.0, 50.0, 20)
    values = [float(v) for v in range(100)]       # 0..99
    assert measure.tail(values) == (89.0, 90.0, 100)


def test_tail_counts_failures_as_infinite():
    values = [1.0] * 15 + [math.inf] * 3
    value, pct, n = measure.tail(values)
    assert (value, n) == (1.0, 18)
    assert pct == pytest.approx(100 * 8 / 18)   # 8 of 18 at or below


def test_tail_with_too_few_samples_is_the_maximum():
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_covered_length_merges_and_clips():
    assert tracing.covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert tracing.covered_length([(0, 4), (6, 12)], 2, 10) == 6
    assert tracing.covered_length([], 0, 1) == 0


def test_self_times_subtract_children():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),      # child of root
        ("b", 2.0, 3.0, 1, 0),      # child of a
        ("c", 5.0, 9.0, 0, 0),      # child of root
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_aggregate_sums_calls_and_self_time():
    spans = [("x", 0.0, 2.0, -1, 0), ("y", 0.5, 1.0, 0, 0),
             ("x", 3.0, 4.0, -1, 1)]
    totals, self_s = tracing.aggregate(spans, tracing.Counter({"x.true": 1}))
    assert totals["x.calls"] == 2 and totals["y.calls"] == 1
    assert totals["x.true"] == 1
    assert self_s == {"x": 2.5, "y": 0.5}


def test_merge_traces_rebases_parents():
    part = [("a", 0.0, 1.0, -1, 0), ("b", 0.1, 0.2, 0, 0)]
    spans, counts = measure.merge_traces(
        [(part, tracing.Counter(k=1)), (part, tracing.Counter(k=2))])
    assert [s[3] for s in spans] == [-1, 0, -1, 2]
    assert counts["k"] == 3


# --------------------------------------------------------------------------
# every per-layer metric names an existing public function


def test_per_layer_metrics_resolve_to_public_functions():
    import pacqa
    public = tracing.public_functions(pacqa)
    assert len(measure.PER_LAYER) == 46
    for name, _suffix, _unit in measure.PER_LAYER:
        module, _, attr = name.partition(".")
        assert name in public, name
        obj = importlib.import_module(f"pacqa.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert not part.startswith("_")
        assert callable(obj)


def test_install_wraps_every_binding_and_uninstall_restores():
    import pacqa
    import pacqa.center
    import pacqa.normalform
    original = pacqa.normalform.canonical_form
    recorder = tracing.Recorder()
    uninstall = tracing.install(pacqa, recorder)
    try:
        assert pacqa.normalform.canonical_form is not original
        assert pacqa.center.canonical_form is pacqa.normalform.canonical_form
        assert pacqa.canonical_form is pacqa.normalform.canonical_form
    finally:
        uninstall()
    assert pacqa.normalform.canonical_form is original
    assert pacqa.center.canonical_form is original


# --------------------------------------------------------------------------
# traced and untraced runs give identical op outputs


def _small_ops(tmp_path):
    rng = random.Random(7)
    fam = families.loop_family(rng, 3, families.COMM, 0)
    path = tmp_path / "loops.quiver"
    path.write_text(fam.text)
    fixture = HERE.parent / "src" / "pacqa" / "fixtures" / \
        "comm_two_loops_arrow.quiver"
    ok = workloads._check_center(
        {d: families.central_count(fam, d) for d in range(1, 5)})
    return [
        workloads.Op("center", ["center", str(path), "--json",
                                "--max-degree", "4"], ok),
        workloads.Op("oracle", ["oracle-check", str(fixture), "--json",
                                "--max-degree", "4"], workloads._check_agree(True)),
        workloads.Op("fingen", ["fingen", str(fixture), "--json",
                                "--max-degree", "4"],
                     workloads._check_oracle_only),
    ]


def test_traced_and_untraced_ops_print_identical_reports(tmp_path):
    import pacqa
    import time
    ops = _small_ops(tmp_path)
    deadline = time.perf_counter() + 60
    plain = run.run_round(ops, deadline)
    recorder = tracing.Recorder()
    uninstall = tracing.install(pacqa, recorder)
    try:
        traced = run.run_round(ops, deadline, recorder)
    finally:
        uninstall()
    assert all(r.problem is None for r in plain + traced), \
        [r.problem for r in plain + traced]
    assert [(r.code, r.stdout) for r in plain] == \
        [(r.code, r.stdout) for r in traced]
    assert all(r.trace is None for r in plain)
    spans, counts = measure.merge_traces(r.trace for r in traced)
    names = {s[0] for s in spans}
    assert {"cli.run", "normalform.canonical_form",
            "oracle.quotient_basis_upto"} <= names
    assert counts["linalg.SpanBasis.add.true"] > 0


def test_failed_op_is_reported_not_raised(tmp_path):
    import time
    op = workloads.Op("missing", ["validate", str(tmp_path / "nope.quiver"),
                                  "--json"], lambda report: None)
    result = run.run_round([op], time.perf_counter() + 30)[0]
    assert result.code == 1 and result.problem and not result.wrong
    assert result.cpu_s > 0 and result.wall_s >= result.cpu_s / 2


def _result(label, cpu_s, problem=None):
    return run.OpResult(label, 0, "", "", cpu_s, cpu_s, 10.0, problem, False)


def test_cold_metrics_count_ops_not_runs():
    results = ([_result("a", t) for t in (0.1, 0.3, 0.2)]
               + [_result("b", 0.4), _result("b", 0.5, "traceback")]
               + [_result("c", 0.5)])
    metrics, extra = run.cold_metrics(results)
    # b failed in one of its runs: it fails, and its latency is infinite
    assert metrics["ok_ratio"][0] == pytest.approx(2 / 3)
    assert extra["cpu_ms"] == {"a": 300.0, "b": 500.0, "c": 500.0}
    assert metrics["latency_p50_ms"][0] == pytest.approx(500.0)
    # a failed op's time stays in the closed-loop pass
    assert metrics["ops_per_s"][0] == pytest.approx(2 / (0.3 + 0.5 + 0.5))


def test_upper_quartile_is_nearest_rank():
    times = [float(t) for t in range(1, 16)]
    assert measure.upper_quartile(list(reversed(times))) == 12.0
    assert measure.upper_quartile([3.0, 1.0, 2.0, 4.0, 5.0]) == 4.0
    assert measure.upper_quartile([0.2, 0.1, 0.3, 0.4]) == 0.3
    assert measure.upper_quartile([7.0]) == 7.0
    assert measure.upper_quartile([1.0, math.inf]) == math.inf


def test_any_failed_op_makes_the_run_incorrect():
    ok = [_result("a", 0.1)]
    assert run.is_correct(ok, [])
    assert not run.is_correct(ok + [_result("a", 0.1, "traceback")], [])
    assert not run.is_correct(ok, ["a: report differs between repetitions"])


def test_known_defects_are_probes_not_ops(tmp_path):
    fixtures = HERE.parent / "src" / "pacqa" / "fixtures"
    rnd = workloads.build_round("wide-quivers", 1, tmp_path, fixtures)
    labels = {op.label for op in rnd.ops}
    assert [op.label for op in rnd.probes] == list(workloads.KNOWN_DEFECTS)
    assert not labels & set(workloads.KNOWN_DEFECTS)
    outcomes, problems = run.run_probes(rnd)
    assert not problems
    assert all(o.startswith("known defect still present")
               for o in outcomes.values()), outcomes


# --------------------------------------------------------------------------
# references


def test_trace_reference_on_hand_examples():
    comm = TraceIdeal.from_lists("abc", [("a", "b")], [("b", "c")], False)
    assert comm.normal_form(("b", "a")) == (1, ("a", "b"))
    assert comm.normal_form(("b", "a", "c")) is None     # a commutes out
    assert comm.normal_form(("c", "b")) == (1, ("c", "b"))
    anti = TraceIdeal.from_lists("ab", [("a", "b")], [], True)
    assert anti.normal_form(("b", "a")) == (-1, ("a", "b"))
    assert anti.normal_form(("b", "b", "a")) == (1, ("a", "b", "b"))


def test_closed_forms_on_hand_examples():
    rng = random.Random(3)
    full = families.loop_family(rng, 3, families.COMM, 0)
    assert [families.central_count(full, d) for d in (1, 2, 3)] == [3, 6, 10]
    anti = families.loop_family(rng, 3, families.ANTI, 0)
    # even degree: all multiplicities even; odd degree: all three loops odd
    assert [families.central_count(anti, d) for d in (1, 2, 3, 4, 5)] == \
        [0, 3, 1, 6, 3]
    assert len(families.fingen_generators(anti)) == 4


def test_same_seed_same_inputs(tmp_path):
    fixtures = HERE.parent / "src" / "pacqa" / "fixtures"
    for name in ("theorem-loops", "oracle-sweep", "wide-quivers"):
        a = workloads.build_round(name, 5, tmp_path / "a", fixtures)
        b = workloads.build_round(name, 5, tmp_path / "b", fixtures)
        texts_a = sorted(p.read_text() for p in (tmp_path / "a").iterdir())
        texts_b = sorted(p.read_text() for p in (tmp_path / "b").iterdir())
        assert texts_a == texts_b
        assert [op.label for op in a.ops] == [op.label for op in b.ops]
        for p in list((tmp_path / "a").iterdir()) + \
                list((tmp_path / "b").iterdir()):
            os.remove(p)
    assert library.build_session(5).stream == library.build_session(5).stream
    assert library.build_session(5).stream != library.build_session(6).stream
