"""Acceptance suite: one test per criterion, printing a pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
from __future__ import annotations

import json
import random
import time
from collections import Counter

import pytest

from helpers import (FIXTURES, fixture_doc, fixture_ideal, fixture_path,
                     random_instance, random_surviving_word)
from pacqa.center import (central_monomials_upto, hypothesis_report)
from pacqa.cli import run
from pacqa.errors import BudgetError
from pacqa.fingen import (INFINITELY_GENERATED, center_finitely_generated,
                          necessary_condition_s)
from pacqa.graphs import is_admissible
from pacqa.ideal import COMMUTATIVE, composable_pairs, is_square_free, orthogonal
from pacqa.koszul import HH_FG, HH_INF, hochschild_fg
from pacqa.normalform import monomial_in_ideal
from pacqa.oracle import (oracle_center_upto, oracle_fg_evidence,
                          oracle_nilpotence_check, quotient_basis_upto)
from raw_rows_reference import count_paths

OP = "°"


def test_criterion_1_admissibility_fixtures():
    expectations = {
        "comm_two_loops_arrow": (True, None),
        "monomial_two_loops_two_arrows": (True, None),
        "anti_four_loops_free_pair": (False, ("c", "d", "c")),
    }
    timings = {}
    for name, (admissible, cycle) in expectations.items():
        spec = fixture_ideal(name)
        is_admissible(spec)  # warm caches
        start = time.perf_counter()
        verdict = is_admissible(spec)
        timings[name] = time.perf_counter() - start
        assert verdict.admissible == admissible, name
        if cycle is None:
            assert verdict.cycle is None
            assert verdict.nilpotency_bound == len(spec.quiver.arrows) + 1
        else:
            assert verdict.cycle == cycle, name
        assert timings[name] < 0.010, (name, timings[name])
    print(f"ACCEPTANCE 1 PASS: admissibility verdicts exact, slowest "
          f"{max(timings.values()) * 1000:.2f} ms")


def test_criterion_2_orthogonal_ideals():
    orth1 = orthogonal(fixture_ideal("comm_two_loops_arrow"))
    assert set(orth1.monomials) == {("b", "c")}
    assert set(orth1.relations) == {("a", "b")}
    assert orth1.flavor == "anticommutative"

    orth2 = orthogonal(fixture_ideal("monomial_two_loops_two_arrows"))
    assert set(orth2.monomials) == {("a", "c"), ("d", "b"), ("d", "c")}
    assert orth2.relations == ()

    orth3 = orthogonal(fixture_ideal("anti_four_loops_free_pair"))
    assert set(orth3.monomials) == {("c", "d"), ("d", "c")}
    assert set(orth3.relations) == {("a", "b"), ("a", "c"), ("a", "d"),
                                    ("b", "c"), ("b", "d")}
    assert orth3.flavor == "commutative"
    print("ACCEPTANCE 2 PASS: orthogonal generator sets match on all three "
          "fixtures")


def test_criterion_3_counterexample_algebra():
    from pacqa.center import is_central_monomial

    spec = fixture_ideal("comm_four_loops_arrow_out")
    cond = necessary_condition_s(spec, "x")
    assert cond.status == "S" and cond.arrows == ("a",)
    assert is_central_monomial(spec, ("c", "d")).central
    assert not is_central_monomial(spec, ("c",)).central
    assert not is_central_monomial(spec, ("d",)).central
    verdict = center_finitely_generated(spec)
    assert verdict.status == INFINITELY_GENERATED
    assert set(verdict.witness.clique) <= {"a", "c", "d"}
    evidence = oracle_fg_evidence(spec, 6)
    assert {2, 4, 6} <= set(evidence.new_generator_degrees)
    print("ACCEPTANCE 3 PASS: S={a}, cd central, c/d not, infinitely "
          f"generated with witness {{{','.join(verdict.witness.clique)}}}, "
          f"new generators at degrees {evidence.new_generator_degrees}")


def test_criterion_4_hochschild_verdicts():
    v1 = hochschild_fg(fixture_doc("comm_two_loops_arrow").presentation)
    assert v1.status == HH_INF and not v1.trivial

    v2 = hochschild_fg(
        fixture_doc("monomial_two_loops_two_arrows").presentation)
    assert v2.status == HH_FG and v2.trivial
    assert v2.koszul == "auto-certified-monomial"

    v3 = hochschild_fg(fixture_doc("anti_four_loops_full").presentation)
    assert v3.status == HH_FG and not v3.trivial
    base_names = {w[0].rstrip(OP) for w in v3.dual_center_generators}
    assert base_names == {"a", "b"}
    print("ACCEPTANCE 4 PASS: hochschild verdicts (infinite; finite+trivial "
          "with auto-certified Koszul flag; finite with generators {a,b})")


def _check_involution_and_trichotomy(spec):
    orth = orthogonal(spec)
    assert orthogonal(orth) == spec
    for a, b in composable_pairs(spec.quiver):
        hits = sum([(a, b) in spec.monomial_set,
                    (a, b) in orth.monomial_set,
                    spec.related(a, b)])
        assert hits == 1, (a, b)


def _check_admissibility_agreement(spec, stats):
    verdict = is_admissible(spec)
    n = len(spec.quiver.arrows) + 1
    if verdict.admissible:
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("pacqa.oracle.BASIS_BUDGET", 60_000)
                algebra = quotient_basis_upto(spec, n)
        except BudgetError:
            stats["a_budget_skip"] += 1
            return
        assert algebra.dimensions[n] == 0, "graph says admissible but a " \
            f"degree-{n} word survives"
        stats["a_admissible"] += 1
    else:
        cycle_arrows = verdict.cycle[:-1]
        word = tuple(cycle_arrows[i % len(cycle_arrows)] for i in range(n))
        assert not monomial_in_ideal(spec, word), \
            "graph says non-admissible but the cycle word dies"
        stats["a_not_admissible"] += 1


def _check_center_agreement(spec, stats):
    hypo = hypothesis_report(spec)
    if not (hypo["square_free"] and hypo["orthogonal_admissible"]
            and hypo["loop_supported"]):
        stats["b_hypotheses_fail"] += 1
        return None
    degree = 6
    while degree >= 3 and count_paths(spec, degree + 1) > 2500:
        degree -= 1
    if degree < 3:
        stats["b_budget_skip"] += 1
        return None
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("pacqa.oracle.BASIS_BUDGET", 20_000)
            algebra = quotient_basis_upto(spec, degree + 1)
    except BudgetError:
        stats["b_budget_skip"] += 1
        return None
    theorem = central_monomials_upto(spec, degree)
    oracle = oracle_center_upto(spec, degree, algebra=algebra)
    assert oracle.is_monomial
    for d in range(1, degree + 1):
        assert theorem.words_at(d) == oracle.words_at(d), \
            f"degree {d}: clique engine and oracle disagree"
    stats["b_checked"] += 1
    if degree == 6:
        stats["b_full_degree"] += 1
    return oracle, degree


def _check_square_central_lemma(spec, oracle, degree, stats):
    words = set(oracle.all_monomial_words())
    for loop in spec.quiver.loops:
        if spec.flavor == COMMUTATIVE:
            if any((loop,) * k in words for k in range(1, degree + 1)):
                assert (loop,) in words, \
                    f"{loop}^k central but {loop} is not"
                stats["e_hits"] += 1
        else:
            if any((loop,) * k in words for k in range(2, degree + 1, 2)):
                assert (loop, loop) in words, \
                    f"{loop}^2k central but {loop}^2 is not"
                stats["e_hits"] += 1
    stats["e_checked"] += 1


def _check_shortcut_edges(spec, rng, stats, per_instance=6):
    """What the deletion argument actually establishes: around every
    undirected edge of a surviving word there are skip edges (directed or
    undirected) in the orthogonal generator graph."""
    if not spec.relations:
        return
    orth = orthogonal(spec)

    def has_edge(a, b):
        return (a, b) in orth.monomial_set or spec.related(a, b)

    for _ in range(per_instance):
        word = random_surviving_word(rng, spec)
        if word is None:
            return
        for i in range(len(word) - 1):
            if not spec.related(word[i], word[i + 1]):
                continue
            if i > 0:
                assert has_edge(word[i - 1], word[i + 1]), (word, i)
            if i + 2 < len(word):
                assert has_edge(word[i], word[i + 2]), (word, i)
            stats["shortcut_edges"] += 1


def test_criterion_5_oracle_equivalence_property_suite():
    """Parts (a), (b), (c) and (e); part (d) is the separate test below."""
    rng = random.Random(20260810)
    stats = Counter()
    instances = 0
    while instances < 205:
        spec = random_instance(rng)
        instances += 1
        _check_involution_and_trichotomy(spec)
        _check_admissibility_agreement(spec, stats)
        outcome = _check_center_agreement(spec, stats)
        if outcome is not None:
            _check_square_central_lemma(spec, *outcome, stats)
        _check_shortcut_edges(spec, rng, stats)
    assert instances >= 200
    assert stats["b_checked"] >= 30, stats
    assert stats["b_full_degree"] >= 10, stats
    assert stats["a_admissible"] >= 20, stats
    assert stats["a_not_admissible"] >= 20, stats
    assert stats["e_checked"] >= 20, stats
    print(f"ACCEPTANCE 5(a)(b)(c)(e) PASS: {instances} instances, zero "
          f"disagreements ({dict(stats)})")


def _refuting_deletion_instance():
    """A counterexample to the deletion property, originally produced by
    this suite's own random-instance stream: the word survives (the two
    copies of l1 can never meet past the rigid l2), but deleting the l2 of
    the undirected pair (l2, l0) lets the rewrite l0*l0*l2*l1*l1 expose the
    generator l1*l1.  Both membership engines agree on every step."""
    from helpers import build

    spec = build(["x"], [("l0", "x", "x"), ("l1", "x", "x"),
                         ("l2", "x", "x")],
                 COMMUTATIVE,
                 monomials=[("l1", "l1"), ("l2", "l2")],
                 relations=[("l0", "l1"), ("l0", "l2")])
    word = ("l2", "l1", "l0", "l2", "l0", "l1")
    return spec, word, 3


def test_criterion_5d_shorter_path_as_stated():
    """Criterion 5(d) implemented exactly as stated: for surviving words
    with an undirected edge between positions i, i+1 of the orthogonal
    generator graph, the word with position i deleted stays outside the
    ideal.

    The population of checked words always includes the refuting instance
    this suite discovered, so the outcome does not depend on the sampling
    stream.  The claim is false: deleting the edge member can make two
    copies of another arrow adjacent after rewriting, exposing a generator
    the original word never exposes.  See the decisions ledger.
    """
    rng = random.Random(20260810)
    failures = []
    words_checked = 0

    def check(spec, word, i):
        nonlocal words_checked
        assert not monomial_in_ideal(spec, word)
        assert spec.related(word[i], word[i + 1])
        deleted = word[:i] + word[i + 1:]
        words_checked += 1
        if monomial_in_ideal(spec, deleted):
            failures.append((spec, word, i, deleted))

    check(*_refuting_deletion_instance())
    while words_checked < 1000:
        spec = random_instance(rng)
        if not spec.relations:
            continue
        for _ in range(20):
            word = random_surviving_word(rng, spec)
            if word is None:
                break
            positions = [i for i in range(len(word) - 1)
                         if spec.related(word[i], word[i + 1])]
            if not positions:
                continue
            check(spec, word, rng.choice(positions))
    if failures:
        spec, word, i, deleted = failures[0]
        print("ACCEPTANCE 5(d) FAIL: deletion property refuted "
              f"({len(failures)} of {words_checked} words)")
        raise AssertionError(
            "shorter-path deletion property refuted: over the ideal "
            f"<{', '.join(spec.generator_strings())}> the word "
            f"{'*'.join(word)} survives, positions {i},{i + 1} carry an "
            f"undirected edge, but the deletion word {'*'.join(deleted)} "
            "lies in the ideal (both membership engines agree; see the "
            "decisions ledger)")
    print("ACCEPTANCE 5(d) PASS: 1000 deletion words survived")


def test_criterion_5d_counterexample_by_both_membership_routes(monkeypatch):
    """The refuting instance of 5(d), decided by the normal forms and by
    the raw quotient alone: the deletion word lies in the ideal, the word
    does not.  Degree 5 has 3^5 = 243 paths, under the raw route's cap;
    degree 6 has 729, so the cap is raised for the word."""
    from pacqa import oracle

    spec, word, i = _refuting_deletion_instance()
    deleted = word[:i] + word[i + 1:]
    assert deleted == ("l2", "l1", "l0", "l0", "l1")
    assert monomial_in_ideal(spec, deleted)
    assert oracle.raw_monomial_in_ideal(spec, deleted)
    assert not monomial_in_ideal(spec, word)
    monkeypatch.setattr(oracle, "SELF_CHECK_PATH_CAP", 3 ** 6)
    assert not oracle.raw_monomial_in_ideal(spec, word)


def test_criterion_6_nilpotence_on_square_free_fixtures():
    checked = []
    for name in FIXTURES:
        spec = fixture_ideal(name)
        if not is_square_free(spec):
            continue
        basis = oracle_center_upto(spec, 8)
        report = oracle_nilpotence_check(spec, basis, 8)
        assert report.all_nonzero, name
        assert report.checks, name
        checked.append((name, len(report.checks)))
    assert len(checked) == 2  # the two square-free fixtures
    print(f"ACCEPTANCE 6 PASS: no vanishing central powers up to degree 8 "
          f"on {checked}")


# frozen from the oracle run (exact nullspace over the rationals)
ERRATUM_CENTER_SNAPSHOT = {
    "2": ["b*b"],
    "4": ["a*a*b*b", "b*b*b*b"],
    "6": ["a*a*a*a*b*b", "a*a*b*b*b*b", "b*b*b*b*b*b"],
}


def test_criterion_7_erratum_handling(capsys):
    spec = fixture_ideal("anti_two_loops_arrow")
    oracle = oracle_center_upto(spec, 6)
    oracle_snapshot = {
        str(d): ["*".join(e.word) for e in elements]
        for d, elements in oracle.by_degree
    }
    assert oracle_snapshot == ERRATUM_CENTER_SNAPSHOT

    code = run(["center", "--json", "--max-degree", "6",
                fixture_path("anti_two_loops_arrow")])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    notes = " ".join(report["result"]["notes"])
    assert "odd-degree-exclusion" in notes
    assert report["result"]["by_degree"] == ERRATUM_CENTER_SNAPSHOT
    print("ACCEPTANCE 7 PASS: discrepancy notice present; report matches "
          "the oracle snapshot, not the erroneous printed basis")


def test_criterion_8_byte_identical_outputs(capsys):
    for args in (
        ["center", "--json", "--max-degree", "5",
         fixture_path("anti_two_loops_arrow")],
        ["hochschild", "--json", fixture_path("anti_four_loops_full")],
        ["admissible", "--json", fixture_path("anti_four_loops_free_pair")],
        ["dot", "--graph", "rel", fixture_path("comm_four_loops_arrow_out")],
    ):
        assert run(list(args)) == 0
        first = capsys.readouterr().out.encode()
        assert run(list(args)) == 0
        second = capsys.readouterr().out.encode()
        assert first == second, args
    print("ACCEPTANCE 8 PASS: JSON and DOT outputs byte-identical across "
          "consecutive runs")
