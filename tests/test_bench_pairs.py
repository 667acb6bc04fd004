"""The summary arithmetic of ``tools/bench_pairs.py`` on canned results."""
from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads(
    (TOOL.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8")
)["end_to_end"]


def result(attempted: int, **values: float | None) -> dict:
    """One run's last line as ``perfbench/run.py`` prints it."""
    return {"correct": True, "attempted": attempted, "failed": 0,
            "metrics": {name: {"value": v, "unit": "u"}
                        for name, v in values.items()}}


def canned() -> list[tuple[dict, dict]]:
    parent_tail = [15, 16, 17, 15, 16, 17, 15, 16, 17, 16]
    change_tail = [11, 12, 11, 12, 11, 12, 11, 12, 11, 18]
    return [(result(1_900 + i, latency_tail_ms=p, latency_p50_ms=10,
                    ops_per_s=100, peak_rss_mb=30, ok_ratio=1.0),
             result(2_000 + i, latency_tail_ms=c, latency_p50_ms=12.5,
                    ops_per_s=74, peak_rss_mb=33.5, ok_ratio=1.0))
            for i, (p, c) in enumerate(zip(parent_tail, change_tail))]


def rows_by_name(pairs):
    return {row["name"]: row
            for row in bench_pairs.summarize(pairs, END_TO_END)}


def test_quartiles_inclusive():
    assert bench_pairs.quartiles(list(range(1, 11))) == (3.25, 5.5, 7.75)
    assert bench_pairs.quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_wins_spread_and_gain():
    tail = rows_by_name(canned())["latency_tail_ms"]
    assert tail["parent"] == (15.25, 16, 16.75)
    assert tail["change"][1] == 11.5
    # the tenth pair is lost; 16 - 11.5 exceeds the parent's spread of 1.5
    assert (tail["wins"], tail["pairs"]) == (9, 10)
    assert tail["gain"] and not tail["worse_than_bound"]


def test_bounds_in_both_directions():
    rows = rows_by_name(canned())
    # 12.5 ms is exactly the 25% bound over 10 ms: not worse
    assert not rows["latency_p50_ms"]["worse_than_bound"]
    # 74/s is past the 25% bound under 100/s; 33.5 MB past 10% over 30 MB
    assert rows["ops_per_s"]["worse_than_bound"]
    assert rows["peak_rss_mb"]["worse_than_bound"]
    # ties count for neither side and claim nothing
    assert rows["ok_ratio"]["wins"] == 0 and not rows["ok_ratio"]["gain"]
    # a metric the runs did not print has no row
    assert "setup_s" not in rows


def test_null_reads_as_infinite_and_loses_its_pair():
    pairs = canned()
    pairs[0][1]["metrics"]["latency_tail_ms"]["value"] = None
    tail = rows_by_name(pairs)["latency_tail_ms"]
    assert tail["wins"] == 8 and not tail["gain"]


def test_render_prints_attempted_beside_peak_rss():
    pairs = canned()
    lines = bench_pairs.render(bench_pairs.summarize(pairs, END_TO_END),
                               pairs).splitlines()
    at = next(i for i, line in enumerate(lines)
              if line.startswith("peak_rss_mb"))
    assert lines[at + 1].split() == ["attempted", "1902/1904/1907",
                                     "2002/2004/2007"]
    assert lines[-1].startswith("pair 10 (change first) change: attempted "
                                "2009, failed 0,")


def test_run_once_reads_the_last_line_and_writes_no_bytecode(tmp_path):
    script = ("import json, os, sys; print('op lines'); print(json.dumps("
              "{'dont_write': os.environ.get('PYTHONDONTWRITEBYTECODE'), "
              "'args': sys.argv[1:]}))")
    got = bench_pairs.run_once(tmp_path, [sys.executable, "-c", script],
                               ["--seed", "1"])
    assert got == {"dont_write": "1", "args": ["--seed", "1"]}
    with pytest.raises(SystemExit, match="benchmark failed"):
        bench_pairs.run_once(tmp_path, [sys.executable, "-c", "exit(3)"], [])


def test_spread_wider_than_the_bound_is_unresolved():
    pairs = canned()
    # tail spread: 1.5 over 16 and 1 over 11.5, inside the 25% bound
    rows = rows_by_name(pairs)
    assert not rows["latency_tail_ms"]["unresolved"]
    for i, (p, c) in enumerate(pairs):
        p["metrics"]["peak_rss_mb"]["value"] = 30 + 4 * (i % 2)
        c["metrics"]["peak_rss_mb"]["value"] = 31 + 4 * (i % 2)
    rss = rows_by_name(pairs)["peak_rss_mb"]
    # quartiles 30/32/34: a spread of 4/32, past the 10% bound
    assert rss["spread"] == 4 / 32 and rss["unresolved"]
    assert not rss["worse_than_bound"]
    for _, c in pairs:
        c["metrics"]["peak_rss_mb"]["value"] = 29
    # every change run below every parent run resolves it
    assert not rows_by_name(pairs)["peak_rss_mb"]["unresolved"]


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    text = ('"""Module\n\ndocstring."""\nimport os  # why\n\n\n'
            'def f(x):\n    """One line."""\n    # a comment\n'
            '    return (x +\n            1)\n')
    # import, def, and the two lines of the return
    assert bench_pairs.code_lines(text) == 4


def test_record_holds_commits_lines_summary_and_raw_runs(tmp_path):
    checkouts = {}
    for side, body in (("parent", "x = 1\n\n# note\ny = 2\n"),
                       ("change", '"""Doc."""\nx = 1\n')):
        package = tmp_path / side / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(body, encoding="utf-8")
        checkouts[side] = tmp_path / side
    pairs = canned()
    pairs[0][1]["metrics"]["latency_tail_ms"]["value"] = None
    out = bench_pairs.record(checkouts, 1, 25, END_TO_END,
                             {"theorem-loops": pairs}, {}, {})
    assert out["src_lines"] == {"parent": {"wc_l": 4, "code": 2},
                                "change": {"wc_l": 2, "code": 1}}
    assert out["commits"] == {"parent": None, "change": None}
    assert (out["seed"], out["run_seconds"], out["pairs"]) == (1, 25, 10)
    (entry,) = out["workloads"]
    assert entry["workload"] == "theorem-loops"
    assert entry["layer_calls"] is None  # no traced run given
    assert entry["op_cpu_ms"] is None
    assert [run["first"] for run in entry["runs"][:2]] == ["parent", "change"]
    assert entry["runs"][0]["change"]["metrics"]["latency_tail_ms"] == {
        "value": None, "unit": "u"}
    tail = next(row for row in entry["metrics"]
                if row["name"] == "latency_tail_ms")
    assert tail["wins"] == 8 and tail["parent"] == [15.25, 16, 16.75]
    # the infinite run leaves the change's quartiles finite, and the record
    # is strict JSON
    json.loads(json.dumps(out, allow_nan=False))


def rss_runs(offset: float, change_attempted: list[int]
             ) -> list[tuple[dict, dict]]:
    """Parent runs on ``peak_rss_mb = 20 + 0.002 * attempted``, change runs
    on that line moved up by ``offset`` MB."""
    parent_attempted = [1_000, 1_400, 1_200, 1_100, 1_300]
    return [(result(p, peak_rss_mb=20 + 0.002 * p),
             result(c, peak_rss_mb=20 + offset + 0.002 * c))
            for p, c in zip(parent_attempted, change_attempted)]


def test_rss_at_equal_ops_on_the_parents_line_reads_zero():
    # the change finishes more ops and so holds more memory, but no more
    # than the parent would at the same ops
    fit = bench_pairs.rss_at_equal_ops(
        rss_runs(0, [1_500, 1_700, 1_600, 1_800, 1_650]))
    assert fit["slope_mb_per_kop"] == pytest.approx(2)
    assert fit["offset_mb"] == pytest.approx(0, abs=1e-9)
    assert fit["offset_pct"] == pytest.approx(0, abs=1e-9)


def test_rss_at_equal_ops_reads_an_offset():
    fit = bench_pairs.rss_at_equal_ops(
        rss_runs(2, [900, 1_000, 1_250, 1_100, 950]))
    assert fit["slope_mb_per_kop"] == pytest.approx(2)
    assert fit["offset_mb"] == pytest.approx(2)
    # over the parent's median of 20 + 0.002 * 1,200 = 22.4 MB
    assert fit["offset_pct"] == pytest.approx(100 * 2 / 22.4)


def test_rss_at_equal_ops_needs_spread_within_a_side():
    pairs = [(result(1_000, peak_rss_mb=30), result(2_000, peak_rss_mb=40))
             for _ in range(4)]
    assert bench_pairs.rss_at_equal_ops(pairs) == {
        "slope_mb_per_kop": None, "offset_mb": None, "offset_pct": None}
    lines = bench_pairs.render(bench_pairs.summarize(pairs, END_TO_END),
                               pairs).splitlines()
    assert "  at equal ops: no spread in attempted" in lines


def traced(canonical_form_calls: int) -> dict:
    """A traced run's last line: layer counts, layer times and overhead."""
    return result(84, **{"normalform.canonical_form.calls":
                         canonical_form_calls,
                         "normalform.canonical_form.s": 0.5,
                         "linalg.nullspace.calls": 0,
                         "oracle.raw_monomial_in_ideal.budget_skips": 0,
                         "trace.overhead_s": 0.1})


def test_layer_calls_keep_only_call_counts():
    assert bench_pairs.layer_calls(traced(5_905)) == {
        "linalg.nullspace.calls": 0,
        "normalform.canonical_form.calls": 5_905}


def test_calls_differing_names_every_moved_count():
    parent = {"a.calls": 1, "b.calls": 2, "c.calls": 3}
    assert bench_pairs.calls_differing(
        {"parent": parent, "change": dict(parent)}) == []
    change = {"a.calls": 1, "b.calls": 5, "d.calls": 0}
    assert bench_pairs.calls_differing(
        {"parent": parent, "change": change}) == [
        "b.calls: parent 2, change 5", "c.calls: parent 3, change None",
        "d.calls: parent None, change 0"]


def write_details(checkout: Path, workload: str, details: dict) -> None:
    """The details file ``perfbench/run.py`` leaves after an untraced run
    at seed 1."""
    out = checkout / ".perfbench-out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{workload}-seed1-trace0.json").write_text(
        json.dumps({"details": details}), encoding="utf-8")


def test_op_minima_keep_each_ops_least_cpu():
    assert bench_pairs.op_minima([{"a": 2.0, "b": 5.0},
                                  {"a": 3.0, "b": 4.0, "c": 1.0}]) == {
        "a": 2.0, "b": 4.0, "c": 1.0}
    assert bench_pairs.op_minima([{"a": 2.0}, None]) is None


def test_main_records_per_op_cpu_minima_of_untraced_runs(
        tmp_path, monkeypatch, capsys):
    # each untraced run leaves canned per-op CPU; per side the record keeps
    # each op's minimum over the pairs and the summary prints their sums.
    # library-session's details have no cpu_ms, so it records null
    cpu = {"parent": [{"op a": 2.0, "op b": 5.0}, {"op a": 3.0, "op b": 4.0}],
           "change": [{"op a": 1.5, "op b": 6.0}, {"op a": 2.5, "op b": 5.5}]}
    untraced = {"parent": 0, "change": 0}

    def fake_run_once(checkout, command, args):
        workload, side = args[1], checkout.name
        if args[-1] == "1":
            return traced(5_905)
        if workload == "library-session":
            write_details(checkout, workload, {"distinct_queries": 3})
        else:
            write_details(checkout, workload,
                          {"cpu_ms": cpu[side][untraced[side]]})
            untraced[side] += 1
        return canned()[0][side == "change"]

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(tmp_path / "parent"),
                             str(tmp_path / "change"), "--workload",
                             "theorem-loops", "library-session",
                             "--pairs", "2", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("op CPU ms")] == [
        "op CPU ms, sum of per-op minima: parent 6.000, change 7.000",
        "op CPU ms, sum of per-op minima: not recorded"]
    theorem, library = json.loads(out.read_text(encoding="utf-8"))[
        "workloads"]
    assert theorem["op_cpu_ms"] == {"parent": {"op a": 2.0, "op b": 4.0},
                                    "change": {"op a": 1.5, "op b": 5.5}}
    assert library["workload"] == "library-session"
    assert library["op_cpu_ms"] is None


def test_main_traces_each_side_once_and_records_the_counts(
        tmp_path, monkeypatch, capsys):
    # two pairs of untraced runs, then one traced run per side, whose call
    # counts the record keeps and whose differences the summary prints
    seen = []

    def fake_run_once(checkout, command, args):
        seen.append((checkout.name, args[-1]))
        if args[-1] == "1":
            return traced(5_905 if checkout.name == "parent" else 5_906)
        write_details(checkout, "theorem-loops", {"cpu_ms": {"op": 1.0}})
        return canned()[0][checkout.name == "change"]

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(tmp_path / "parent"),
                             str(tmp_path / "change"), "--workload",
                             "theorem-loops", "--pairs", "2",
                             "--out", str(out)]) == 0
    assert seen == [("parent", "0"), ("change", "0"), ("change", "0"),
                    ("parent", "0"), ("parent", "1"), ("change", "1")]
    assert capsys.readouterr().out.splitlines()[-1] == (
        "layer call counts (2 names): normalform.canonical_form.calls: "
        "parent 5905, change 5906")
    (entry,) = json.loads(out.read_text(encoding="utf-8"))["workloads"]
    assert entry["layer_calls"]["change"] == {
        "linalg.nullspace.calls": 0, "normalform.canonical_form.calls": 5_906}
