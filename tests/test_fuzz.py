"""Seeded fuzzing of the CLI: every input ends with a defined exit code.

The six fixture texts are mutated by seeded inserts, deletes and
replacements over an alphabet of DSL punctuation, names, digits and line
keywords, plus characters that look like them: a superscript two, an
Arabic-Indic three, a fullwidth one, a byte-order mark and the opposite
mark.  Each mutant is run in-process through :func:`pacqa.cli.run` under
every command, and under ``center --graded`` as text and ``--json``, at
``--max-degree 3``, with the output streams captured: no exception may
escape ``run``, and the exit code must be 0 (done), 1 (bad input or
budget) or 2 (engines disagree).

A scale probe runs ``oracle-check`` on one wide spec in a child process
under limits of address space and CPU time set in that child only.
"""
from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import pacqa
from helpers import FIXTURES, fixture_text, layered_text
from pacqa.cli import COMMANDS, run

ALPHABET = (*"abcxyz01235 ,:*->\n", "\u00b2", "\u0663", "\uff11", "\ufeff",
            "\u00b0", "\nchar: ", "\nzero: ", "\ncomm: ", "\nanti: ",
            "\nideal ", "\nkoszul: asserted", "\nvertices: ", "\narrows: ")
MUTANTS = 500
RUNS = ([(command,) for command in COMMANDS]
        + [("center", "--graded"), ("center", "--graded", "--json")])


def _mutate(rng: random.Random, text: str) -> str:
    """One to three edits: insert one to three alphabet items, delete one
    to four characters, or replace one character by an item."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        if op == 0:
            items = rng.choices(ALPHABET, k=rng.randint(1, 3))
            text = text[:at] + "".join(items) + text[at:]
        elif op == 1:
            text = text[:at] + text[at + rng.randint(1, 4):]
        else:
            text = text[:at] + rng.choice(ALPHABET) + text[at + 1:]
    return text


def test_mutated_fixtures_end_with_a_defined_exit_code(tmp_path, capsys):
    rng = random.Random(20151)
    spec = tmp_path / "mutant.quiver"
    codes = {0: 0, 1: 0, 2: 0}
    for i in range(MUTANTS):
        text = _mutate(rng, fixture_text(FIXTURES[i % len(FIXTURES)]))
        spec.write_text(text, encoding="utf-8")
        for command, *flags in RUNS:
            argv = [command, str(spec), *flags, "--max-degree", "3"]
            try:
                code = run(argv)
            except Exception as exc:  # an escape is the failure sought
                pytest.fail(f"{argv[0]} on {text!r} raised {exc!r}")
            capsys.readouterr()
            assert code in codes, (argv[0], text, code)
            codes[code] += 1
    # the mutants reach both the engines and the refusals
    assert codes[0] > 0 and codes[1] > 0, codes


def _bounded_child():
    """Runs in the child only: 256 MB of address space, 30 s of CPU."""
    resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
    resource.setrlimit(resource.RLIMIT_CPU, (30, 30))


def test_oracle_check_on_wide_layers_stays_bounded(tmp_path):
    # scale probe: three layers of 150 parallel arrows plus a 4-arrow path;
    # degree 3 has 3,375,002 paths and degree 4 one.  The self-check lifts
    # no level past its cap, so the run fits in 256 MB and 30 s of CPU
    spec = tmp_path / "layers.quiver"
    spec.write_text(layered_text(150), encoding="utf-8")
    src = str(Path(pacqa.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-m", "pacqa", "oracle-check", str(spec),
         "--max-degree", "4"], capture_output=True, text=True, env=env,
        preexec_fn=_bounded_child, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert "all engines agree" in done.stdout
