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
"""
from __future__ import annotations

import random

import pytest

from helpers import FIXTURES, fixture_text
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
