"""Byte identity of two checkouts' CLI output on one corpus of specs.

    python3 tools/byte_digest.py PARENT_DIR CHANGE_DIR

The corpus is the six fixtures plus 60 specs from each of the random
streams ``random_instance``, ``random_multi_vertex_instance`` and
``random_theorem_instance`` of the first checkout's ``tests/helpers.py``,
each stream seeded by its own name, every second spec carrying ``koszul:
asserted``.  It is written once with ``print_spec``, so both checkouts read
the same files.  For each checkout one child process, with that checkout's
``src/`` on the path and no bytecode written, runs on every spec the nine
commands and ``center --graded``, in text and ``--json``, at
``--max-degree`` 3 and 6, through ``pacqa.cli.run``, and hashes each run's
exit code, stdout and stderr.  The tool prints each side's run count and
the sha256 over all its runs, then every run that differs, and exits 1 when
any does.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

STREAMS = ("random_instance", "random_multi_vertex_instance",
           "random_theorem_instance")
PER_STREAM = 60
COMMANDS = (["validate"], ["admissible"], ["orthogonal"], ["center"],
            ["center", "--graded"], ["fingen"], ["dual"], ["hochschild"],
            ["oracle-check"], ["dot"])
MODES = ([], ["--json"])
DEGREES = (3, 6)

# Run in a child of the first checkout: argv is the corpus directory.
CORPUS = f"""
import random, sys
from pathlib import Path
import helpers
from pacqa.dsl import SpecDocument, print_spec
out = Path(sys.argv[1])
for name in helpers.FIXTURES:
    (out / f"{{name}}.quiver").write_text(helpers.fixture_text(name),
                                        encoding="utf-8")
for stream in {STREAMS!r}:
    rng = random.Random(stream)
    for i in range({PER_STREAM}):
        spec = getattr(helpers, stream)(rng)
        doc = SpecDocument("", spec.quiver, spec, i % 2 == 1, ())
        (out / f"{{stream}}-{{i:02d}}.quiver").write_text(print_spec(doc),
                                                       encoding="utf-8")
"""

# Run in a child of each checkout: argv is the corpus directory; prints one
# JSON line ``[run id, sha256 of [exit code, stdout, stderr]]`` per run.
RUNS = f"""
import contextlib, hashlib, io, json, sys
from pathlib import Path
from pacqa.cli import run
for spec in sorted(Path(sys.argv[1]).glob("*.quiver")):
    for command in {COMMANDS!r}:
        for mode in {MODES!r}:
            for degree in {DEGREES!r}:
                args = [*mode, "--max-degree", str(degree)]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \\
                        contextlib.redirect_stderr(err):
                    try:
                        code = run([*command, str(spec), *args])
                    except Exception as exc:
                        code = "raised " + type(exc).__name__
                run_id = " ".join([*command, spec.name, *args])
                blob = json.dumps([code, out.getvalue(), err.getvalue()])
                print(json.dumps(
                    [run_id, hashlib.sha256(blob.encode()).hexdigest()]))
"""


def child(checkout: Path, paths: list[str], script: str, corpus: str
          ) -> str:
    """Run ``script`` on ``corpus`` with ``paths`` of ``checkout`` first on
    the module path and no bytecode written; its stdout."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(str(checkout / p) for p in paths)}
    done = subprocess.run([sys.executable, "-c", script, corpus], env=env,
                          capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"child failed in {checkout} (exit "
                         f"{done.returncode}): {done.stderr[-2000:]}")
    return done.stdout


def read_runs(stdout: str) -> dict[str, str]:
    """Run id -> hash, from the lines the runs child prints."""
    return dict(json.loads(line) for line in stdout.splitlines())


def digest(runs: dict[str, str]) -> str:
    """One sha256 over every run, in run id order."""
    text = "".join(f"{run_id}\t{runs[run_id]}\n" for run_id in sorted(runs))
    return hashlib.sha256(text.encode()).hexdigest()


def differing(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    """The run ids whose hashes differ or that only one side ran."""
    return sorted(run_id for run_id in parent.keys() | change.keys()
                  if parent.get(run_id) != change.get(run_id))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="parent checkout")
    parser.add_argument("change", type=Path, help="changed checkout")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as corpus:
        child(args.parent, ["src", "tests"], CORPUS, corpus)
        sides = {side: read_runs(child(getattr(args, side), ["src"], RUNS,
                                       corpus))
                 for side in ("parent", "change")}
    for side, runs in sides.items():
        print(f"{side}: {len(runs)} runs, sha256 {digest(runs)}")
    found = differing(sides["parent"], sides["change"])
    for run_id in found:
        print(f"differs: {run_id}")
    print(f"{len(found)} runs differ" if found else "identical")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
