"""``tools/byte_digest.py`` on canned results and on a one-spec corpus."""
from __future__ import annotations

import importlib.util
import json
import os
import shutil
from pathlib import Path

import pytest

from helpers import fixture_path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "byte_digest.py"
_spec = importlib.util.spec_from_file_location("byte_digest", TOOL)
byte_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(byte_digest)
ROOT = TOOL.parents[1]


def test_digest_ignores_order_and_sees_every_hash():
    runs = {"validate a.quiver": "1" * 64, "dot a.quiver": "2" * 64}
    same = dict(reversed(list(runs.items())))
    assert byte_digest.digest(runs) == byte_digest.digest(same)
    assert byte_digest.digest(runs) != byte_digest.digest(
        {**runs, "dot a.quiver": "3" * 64})
    assert byte_digest.digest(runs) != byte_digest.digest(
        {"validate a.quiver": "1" * 64})


def test_differing_names_changed_and_one_sided_runs():
    parent = {"a": "1", "b": "2", "c": "3"}
    change = {"a": "1", "b": "9", "d": "4"}
    assert byte_digest.differing(parent, change) == ["b", "c", "d"]
    assert byte_digest.differing(parent, dict(parent)) == []


def test_read_runs_takes_one_json_pair_per_line():
    lines = "".join(json.dumps([f"run {i}", f"{i:064x}"]) + "\n"
                    for i in range(3))
    assert byte_digest.read_runs(lines) == {
        f"run {i}": f"{i:064x}" for i in range(3)}


def test_main_prints_both_sides_and_every_differing_run(monkeypatch,
                                                        capsys):
    outputs = {"parent": {"x": "1", "y": "2"}, "change": {"x": "1", "y": "5"}}
    calls = []

    def fake_child(checkout, paths, script, corpus):
        calls.append((checkout.name, paths, script is byte_digest.CORPUS))
        if script is byte_digest.CORPUS:
            return ""
        return "".join(json.dumps(pair) + "\n"
                       for pair in outputs[checkout.name].items())

    monkeypatch.setattr(byte_digest, "child", fake_child)
    assert byte_digest.main(["parent", "change"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert calls == [("parent", ["src", "tests"], True),
                     ("parent", ["src"], False), ("change", ["src"], False)]
    assert out[0] == ("parent: 2 runs, sha256 "
                      + byte_digest.digest(outputs["parent"]))
    assert out[1].startswith("change: 2 runs, sha256 ")
    assert out[2:] == ["differs: y", "1 runs differ"]
    outputs["change"]["y"] = "2"
    assert byte_digest.main(["parent", "change"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "identical"


def test_runs_child_covers_every_command_mode_and_degree(tmp_path):
    # one fixture through the real child, twice: 10 commands, 2 modes and
    # 2 degree bounds, each run hashed the same way both times
    shutil.copy(fixture_path("comm_two_loops_arrow"), tmp_path)
    first, second = (byte_digest.read_runs(byte_digest.child(
        ROOT, ["src"], byte_digest.RUNS, str(tmp_path))) for _ in range(2))
    assert first == second
    assert len(first) == 40
    assert "center --graded comm_two_loops_arrow.quiver --json " \
        "--max-degree 6" in first
    assert all(len(h) == 64 for h in first.values())


def test_child_sets_its_path_and_writes_no_bytecode(tmp_path):
    script = ("import json, os, sys; print(json.dumps([os.environ["
              "'PYTHONDONTWRITEBYTECODE'], os.environ['PYTHONPATH'], "
              "sys.argv[1:]]))")
    got = json.loads(byte_digest.child(tmp_path, ["src", "tests"], script,
                                       "corpus"))
    assert got == ["1", os.pathsep.join([str(tmp_path / "src"),
                                         str(tmp_path / "tests")]),
                   ["corpus"]]
    with pytest.raises(SystemExit, match="child failed"):
        byte_digest.child(tmp_path, ["src"], "exit(3)", "corpus")


def test_corpus_child_writes_fixtures_and_three_streams(tmp_path):
    byte_digest.child(ROOT, ["src", "tests"], byte_digest.CORPUS,
                      str(tmp_path))
    names = sorted(p.stem for p in tmp_path.glob("*.quiver"))
    assert len(names) == 6 + 3 * byte_digest.PER_STREAM
    for stream in byte_digest.STREAMS:
        texts = [(tmp_path / f"{stream}-{i:02d}.quiver").read_text()
                 for i in range(byte_digest.PER_STREAM)]
        assert ["koszul: asserted" in t for t in texts] == \
            [i % 2 == 1 for i in range(byte_digest.PER_STREAM)]
    assert (tmp_path / "anti_four_loops_full.quiver").read_text() == \
        Path(fixture_path("anti_four_loops_full")).read_text()
