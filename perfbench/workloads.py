"""The three cold workloads: what they run and how each result is checked.

A cold workload builds a :class:`Round`: CLI ops over generated
``.quiver`` files, each with a check against a reference that does not come
from the op under test.  The runner executes each op in a fresh child
process (see ``run.py``).  ``library.py`` builds the fourth workload, a
stream of public-API queries answered in one warm process.

Each workload function receives a ``random.Random`` seeded from ``--seed``
and the directory to write inputs into; the program sees only those files.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import families as fam
from families import ANTI, COMM

FIXTURES = ("comm_two_loops_arrow", "monomial_two_loops_two_arrows",
            "anti_four_loops_free_pair", "anti_two_loops_arrow",
            "comm_four_loops_arrow_out", "anti_four_loops_full")

# Admissibility per the README fixture table (anti_two_loops_arrow and
# comm_four_loops_arrow_out keep loop powers alive, so they are not).
FIXTURE_ADMISSIBLE = {
    "comm_two_loops_arrow": True,
    "monomial_two_loops_two_arrows": True,
    "anti_four_loops_free_pair": False,
    "anti_two_loops_arrow": False,
    "comm_four_loops_arrow_out": False,
    "anti_four_loops_full": True,
}

# Fixtures with a square in the ideal: center and fingen leave theorem
# mode and fall back to the oracle.
NON_SQUARE_FREE = ("comm_two_loops_arrow", "monomial_two_loops_two_arrows",
                   "anti_four_loops_free_pair", "anti_four_loops_full")

Check = Callable[[dict], "str | None"]

# Ops that crash today: label -> the defect.  Each run executes them once,
# untimed and outside the op counts, and reports whether the defect is
# still there (see ``Round.probes``); a wrong answer makes the run
# incorrect.
KNOWN_DEFECTS = {
    "validate path-1500": "RecursionError in the recursive DFS of "
                          "graphs.has_directed_cycle (ROADMAP item 4)",
}


@dataclass
class Op:
    """One CLI invocation.  ``check`` receives the parsed ``--json`` report
    and returns a problem description, or ``None`` when the output is
    right.  ``label`` identifies the op: ops with equal labels must print
    byte-identical reports."""

    label: str
    argv: list[str]
    check: Check


@dataclass
class Round:
    """The ops of a workload.  A run executes all of them once, then
    repeats the ``hot`` ops (the tier that holds the median and the tail)
    until its time is up, so that their latency rests on many samples
    while the heavy ops run once.  Ops listed in
    ``KNOWN_DEFECTS`` go to ``probes`` instead: they run once per run,
    untimed, so that a known crash shows without counting as a failed
    op."""

    ops: list[Op] = field(default_factory=list)
    hot: list[Op] = field(default_factory=list)
    probes: list[Op] = field(default_factory=list)

    def add(self, label: str, argv: list[str], check: Check,
            hot: bool = False) -> None:
        op = Op(label, argv, check)
        if label in KNOWN_DEFECTS:
            self.probes.append(op)
            return
        self.ops.append(op)
        if hot:
            self.hot.append(op)


def _write(directory: Path, name: str, text: str) -> str:
    path = directory / f"{name}.quiver"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _expect(cond: bool, message: str) -> str | None:
    return None if cond else message


def _counts(report: dict) -> dict[int, int]:
    return {int(d): len(words)
            for d, words in report["result"]["by_degree"].items()}


def _check_center(expected: dict[int, int]) -> Check:
    want = {d: c for d, c in expected.items() if c}

    def check(report: dict) -> str | None:
        res = report["result"]
        if res["mode"] != "theorem":
            return f"mode {res['mode']}, expected theorem"
        got = _counts(report)
        return _expect(got == want, f"central counts {got} != {want}")
    return check


def _check_fingen(status: str, generators: list[str]) -> Check:
    def check(report: dict) -> str | None:
        res = report["result"]
        got = (res.get("status"), res.get("generators"))
        return _expect(got == (status, generators),
                       f"fingen {got} != {(status, generators)}")
    return check


# --------------------------------------------------------------------------
# theorem-loops


# (loops, flavor, dropped pairs, center degree, third op, hot).  Each slot
# runs center and center --graded on its family, plus fingen on it or
# hochschild on its squares-killed variant.  Slots come in tiers of one
# shape each, so that costs are flat inside a tier (best-of wall times on
# a 2-core machine):
#   light   fingen/hochschild ops, about 15 ms (14 ops)
#   middle  partial families at degree 8, 65-100 ms (14 ops, hot)
#   upper   6 commuting loops, one pair dropped, degree 7, 0.13-0.2 s
#           (8 ops, hot)
#   top     full families at their heaviest degrees, 0.3-0.8 s (6 ops)
# The median of the 42 ops then falls inside the middle tier and the tail
# (the eleventh slowest op) inside the upper tier, for every seed.
THEOREM_SLOTS = (
    (5, COMM, 1, 8, "fingen", True), (6, ANTI, 1, 8, "fingen", True),
    (5, COMM, 1, 8, "fingen", True), (6, ANTI, 1, 8, "fingen", True),
    (5, COMM, 1, 8, "fingen", True), (6, ANTI, 1, 8, "fingen", True),
    (4, ANTI, 0, 8, "hochschild", True),
    (6, COMM, 1, 7, "hochschild", True), (6, COMM, 1, 7, "hochschild", True),
    (6, COMM, 1, 7, "hochschild", True), (6, COMM, 1, 7, "hochschild", True),
    (4, COMM, 0, 8, "hochschild", False), (6, COMM, 0, 6, "fingen", False),
    (6, ANTI, 0, 8, "hochschild", False),
)


def theorem_loops(rng: random.Random, directory: Path,
                  fixture_dir: Path) -> Round:
    rnd = Round()
    for i, (k, flavor, drop, degree, third, hot) in enumerate(THEOREM_SLOTS):
        f = fam.loop_family(rng, k, flavor, drop)
        tag = f"loops{i}-{flavor[:4]}-k{k}-drop{drop}"
        path = _write(directory, tag, f.text)
        full = {d: fam.central_count(f, d) for d in range(1, degree + 1)}
        even = {d: c for d, c in full.items() if d % 2 == 0}
        rnd.add(f"center {tag} d{degree}",
                ["center", path, "--json", "--max-degree", str(degree)],
                _check_center(full), hot)
        rnd.add(f"center-graded {tag} d{degree}",
                ["center", path, "--json", "--graded", "--max-degree",
                 str(degree)],
                _check_center(even), hot)
        if third == "fingen":
            gens = fam.fingen_generators(f)
            rnd.add(f"fingen {tag}",
                    ["fingen", path, "--json", "--max-degree", str(degree)],
                    _check_fingen("finitely-generated" if gens else "trivial",
                                  gens))
            continue
        g = fam.loop_family(rng, k, flavor, drop, squares=True, koszul=True)
        gpath = _write(directory, tag + "-squares", g.text)
        dual = fam.fingen_generators(fam.dual_family(g))

        def check_hh(report: dict, dual=dual) -> str | None:
            res = report["result"]
            got = (res["status"], res["trivial"],
                   res["dual_center_generators"])
            want = ("finitely-generated", not dual, dual)
            return _expect(got == want, f"hochschild {got} != {want}")
        rnd.add(f"hochschild {tag}-squares",
                ["hochschild", gpath, "--json", "--max-degree", str(degree)],
                check_hh)
    return rnd


# --------------------------------------------------------------------------
# oracle-sweep


def _check_agree(admissible: bool | None = None) -> Check:
    def check(report: dict) -> str | None:
        res = report["result"]
        if not res["agree"]:
            return "oracle-check did not report agreement"
        if admissible is None:
            return None
        detail = next(c["detail"] for c in res["checks"]
                      if c["name"] == "admissibility")
        zero = detail.endswith("(0)")
        return _expect(zero == admissible,
                       f"admissibility {not admissible} by the oracle "
                       "dimension, fixture table says "
                       f"{admissible}: {detail}")
    return check


def _check_oracle_only(report: dict) -> str | None:
    return _expect(report["result"]["mode"] == "oracle-only",
                   "non-square-free input must fall back to the oracle")


# Random instances: (two vertices, flavor, characteristic, pair pattern,
# loops killing e, max degree).  The seed places the pattern; the slot fixes
# its shape, so the cost of a slot does not depend on the seed.  They run
# over prime fields, where each check takes 0.1-0.25 s on a 2-core machine,
# so they form the flat lower half of the round; the fixtures and the
# oracle fallbacks (0.3-5 s) form the upper half.
RANDOM_SLOTS = tuple(
    (two, flavor, char, pattern, kills, degree)
    for two, kills in ((False, 0), (True, 1))
    for flavor in (COMM, ANTI)
    for char, pattern, degree in ((3, (2, 1, 0), 7), (5, (1, 1, 1), 8),
                                  (3, (2, 0, 1), 6))
)

# Max degree per fixture op, fixed so that every seed runs the same work.
FIXTURE_DEGREE = dict(zip(FIXTURES, (6, 7, 8, 6, 7, 8)))


def oracle_sweep(rng: random.Random, directory: Path,
                 fixture_dir: Path) -> Round:
    rnd = Round()
    for name in FIXTURES:
        path = str(fixture_dir / f"{name}.quiver")
        degree = FIXTURE_DEGREE[name]
        rnd.add(f"oracle-check {name} d{degree}",
                ["oracle-check", path, "--json", "--max-degree", str(degree)],
                _check_agree(FIXTURE_ADMISSIBLE[name]))
    for i, (two, flavor, char, pattern, kills, degree) in enumerate(
            RANDOM_SLOTS):
        path = _write(directory, f"random-{i}", fam.random_small(
            rng, flavor, char, two, pattern, kills))
        rnd.add(f"oracle-check random-{i} d{degree}",
                ["oracle-check", path, "--json", "--max-degree", str(degree)],
                _check_agree(), hot=True)
    for j, name in enumerate(NON_SQUARE_FREE):
        path = str(fixture_dir / f"{name}.quiver")
        command = ("center", "fingen")[j % 2]
        degree = 6 + j % 3
        rnd.add(f"{command} {name} d{degree}",
                [command, path, "--json", "--max-degree", str(degree)],
                _check_oracle_only)
    return rnd


# --------------------------------------------------------------------------
# wide-quivers

# validate, admissible and center (the hot tier, which holds the median and
# the tail) run on every chain size; fingen, whose cost grows with the cube
# of the size (0.65 s at 20 vertices, 3.5 s at 40, 11 s at 60 on a 2-core
# machine), only on the two smallest, so that a round stays short enough to
# repeat.
CHAIN_SIZES = (20, 30, 40, 60)
FINGEN_SIZES = (20, 25)
PATH_SIZES = (300, 1500)


def _check_validate(vertices: int, arrows: int, monomials: int,
                    relations: int) -> Check:
    def check(report: dict) -> str | None:
        res = report["result"]
        got = (len(res["vertices"]), len(res["arrows"]),
               len(res["monomials"]), len(res["relations"]))
        want = (vertices, arrows, monomials, relations)
        return _expect(got == want, f"validate echo {got} != {want}")
    return check


def _check_not_admissible(report: dict) -> str | None:
    res = report["result"]
    return _expect(res["admissible"] is False and bool(res["cycle"]),
                   "commuting loops with live squares must be "
                   "not admissible, with a cycle witness")


def wide_quivers(rng: random.Random, directory: Path,
                 fixture_dir: Path) -> Round:
    rnd = Round()
    for n in CHAIN_SIZES:
        for back in (False, True):
            ch = fam.chain(rng, n, back)
            tag = f"chain-{n}" + ("-back" if back else "")
            path = _write(directory, tag, ch.text)
            rnd.add(f"validate {tag}", ["validate", path, "--json"],
                    _check_validate(n, ch.arrow_count, ch.monomial_count, n),
                    hot=True)
            rnd.add(f"admissible {tag}", ["admissible", path, "--json"],
                    _check_not_admissible, hot=True)
            rnd.add(f"center {tag} d4",
                    ["center", path, "--json", "--max-degree", "4"],
                    _check_center({d: fam.chain_center_count(ch, d)
                                   for d in range(1, 5)}), hot=True)
    for n in FINGEN_SIZES:
        for back in (False, True):
            ch = fam.chain(rng, n, back)
            tag = f"chain-{n}" + ("-back" if back else "")
            path = _write(directory, tag + "-fg", ch.text)
            rnd.add(f"fingen {tag}", ["fingen", path, "--json"],
                    _check_fingen("finitely-generated",
                                  fam.chain_generators(ch)))
    for n in PATH_SIZES:
        path = _write(directory, f"path-{n}", fam.path_quiver(n))
        rnd.add(f"validate path-{n}", ["validate", path, "--json"],
                _check_validate(n, n - 1, 0, 0))
    return rnd


COLD_WORKLOADS = {
    "theorem-loops": theorem_loops,
    "oracle-sweep": oracle_sweep,
    "wide-quivers": wide_quivers,
}


def build_round(name: str, seed: int, directory: Path,
                fixture_dir: Path) -> Round:
    rng = random.Random(f"{name}:{seed}")
    os.makedirs(directory, exist_ok=True)
    return COLD_WORKLOADS[name](rng, directory, fixture_dir)


def check_report(op: Op, code: int, stdout: str) -> str | None:
    """Problem with an op's output, or ``None``."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "output is not a JSON report"
    return op.check(report)
