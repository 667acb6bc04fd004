from __future__ import annotations

import random
from collections import Counter

import pytest

import clique_reference as reference
from helpers import (FIXTURES, build, fixture_ideal, random_instance,
                     random_multi_vertex_instance, two_loop_polynomial)
from pacqa.errors import HypothesisError, PacqaError
from pacqa.fingen import (FINITELY_GENERATED, INFINITELY_GENERATED, TRIVIAL,
                          SCondition, center_finitely_generated,
                          degree_generators, loop_supported_verdict,
                          necessary_condition_s)
from pacqa.ideal import ANTICOMMUTATIVE, COMMUTATIVE, validate_ideal
from pacqa.koszul import dual_ideal
from pacqa.quiver import build_quiver

OP = "°"


class TestCenterFinitelyGenerated:
    def test_counterexample_infinite_with_witness(self):
        verdict = center_finitely_generated(
            fixture_ideal("comm_four_loops_arrow_out"))
        assert verdict.status == INFINITELY_GENERATED
        witness = verdict.witness
        assert set(witness.clique) <= {"a", "c", "d"}
        assert witness.failing_member in ("c", "d")
        assert witness.blocking_vertex == "b"

    def test_polynomial_pair_finite(self):
        verdict = center_finitely_generated(two_loop_polynomial())
        assert verdict.status == FINITELY_GENERATED
        assert verdict.generators == (("a",), ("b",))

    def test_dual_of_two_loops_arrow_infinite(self):
        dual = dual_ideal(fixture_ideal("comm_two_loops_arrow"))
        verdict = center_finitely_generated(dual)
        assert verdict.status == INFINITELY_GENERATED
        assert verdict.witness.clique == ("a" + OP, "b" + OP)
        assert verdict.witness.failing_member == "a" + OP
        assert verdict.witness.blocking_vertex == "c" + OP

    def test_trivial_status(self):
        spec = build(["x"], [("a", "x", "x"), ("b", "x", "x")], COMMUTATIVE)
        verdict = center_finitely_generated(spec)
        assert verdict.status == TRIVIAL
        assert verdict.generators == ()

    def test_trivial_loop_part_of_multi_vertex_dual(self):
        # the dual quiver has a two-vertex cycle, so the full engine defers;
        # the loop-supported scan still reports a trivial loop part
        from pacqa.fingen import loop_supported_verdict
        dual = dual_ideal(fixture_ideal("monomial_two_loops_two_arrows"))
        with pytest.raises(HypothesisError):
            center_finitely_generated(dual)
        verdict = loop_supported_verdict(dual)
        assert verdict.status == TRIVIAL

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisError):
            center_finitely_generated(fixture_ideal("comm_two_loops_arrow"))


class TestNecessaryConditionS:
    def test_counterexample(self):
        spec = fixture_ideal("comm_four_loops_arrow_out")
        assert necessary_condition_s(spec, "x").arrows == ("a",)
        assert necessary_condition_s(spec, "y").status == "trivial"

    def test_polynomial_pair(self):
        cond = necessary_condition_s(two_loop_polynomial(), "x")
        assert cond.status == "S"
        assert cond.arrows == ("a", "b")

    def test_fail_marker_when_center_nontrivial_but_no_s(self):
        # c*d is central (the outsiders b and e are annihilated) but no
        # single loop relates to every co-based loop
        spec = build(
            ["x", "y"],
            [("b", "x", "x"), ("c", "x", "x"), ("d", "x", "x"),
             ("e", "x", "y")],
            COMMUTATIVE,
            monomials=[("b", "c"), ("d", "b"), ("c", "e")],
            relations=[("c", "d")])
        cond = necessary_condition_s(spec, "x")
        assert cond.status == "fail"

    def test_consistency_with_finite_generation(self):
        # finitely generated and nontrivial at a vertex forces a nonempty S
        for spec in (two_loop_polynomial(),
                     dual_ideal(fixture_ideal("anti_four_loops_full"))):
            verdict = center_finitely_generated(spec)
            if verdict.status != FINITELY_GENERATED:
                continue
            for vertex, cond in verdict.s_sets:
                assert cond.status in ("S", "trivial")
                if cond.status == "S":
                    assert cond.arrows


def _s_outcome(fn, spec, vertex):
    try:
        return fn(spec, vertex)
    except PacqaError as exc:
        return type(exc), str(exc)


def _s_family(rng: random.Random, k: int, flavor: str):
    """``k`` loops at ``x`` with an arrow ``e`` out of ``x`` and an arrow
    ``g`` into it, declared in seeded order; each loop pair is related,
    killed one way or free, and seeded loops annihilate ``e`` and ``g``."""
    names = [f"l{i}" for i in range(k)]
    arrows = [(a, "x", "x") for a in names]
    arrows += [("e", "x", "y"), ("g", "z", "x")]
    rng.shuffle(arrows)
    quiver = build_quiver(["x", "y", "z"], arrows)
    monomials, relations = set(), set()
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            kind = rng.random()
            if kind < 0.8:
                relations.add((a, b))
            elif kind < 0.95:
                monomials.add((a, b) if rng.random() < 0.5 else (b, a))
        if rng.random() < 0.5:
            monomials.add((a, "e"))
        if rng.random() < 0.5:
            monomials.add(("g", a))
    return validate_ideal(quiver, flavor, sorted(monomials),
                          sorted(relations))


def test_loop_verdicts_skip_the_cycle_search(monkeypatch):
    def refuse(quiver):
        raise AssertionError("multi-vertex cycle search ran")

    monkeypatch.setattr("pacqa.center.multi_vertex_cycles", refuse)
    fixtures = [fixture_ideal(name) for name in FIXTURES]
    answered = 0
    for spec in fixtures + [dual_ideal(spec) for spec in fixtures]:
        try:
            verdict = loop_supported_verdict(spec)
        except HypothesisError:
            continue
        for vertex, cond in verdict.s_sets:
            assert necessary_condition_s(spec, vertex) == cond
        answered += 1
    assert answered >= 5


class TestSConditionAgainstReference:
    """S read off the clique statuses against the direct generator-list
    scan it replaced (``tests/clique_reference.py``): the same condition,
    or the same error, at every vertex and at an unknown one."""

    def _compare(self, specs) -> Counter:
        seen = Counter()
        for spec in specs:
            try:
                s_sets = dict(loop_supported_verdict(spec).s_sets)
            except HypothesisError:
                s_sets = {}
            for vertex in (*spec.quiver.vertices, "nowhere"):
                got = _s_outcome(necessary_condition_s, spec, vertex)
                assert got == _s_outcome(reference.necessary_condition_s,
                                         spec, vertex), (
                    spec.generator_strings(), vertex)
                if isinstance(got, SCondition):
                    assert s_sets[vertex] == got
                    seen[got.status] += 1
        return seen

    def test_fixtures(self):
        seen = self._compare(fixture_ideal(name) for name in FIXTURES)
        assert seen["S"] and seen["trivial"]

    def test_random_instances(self):
        seen = self._compare(random_instance(random.Random(seed))
                             for seed in range(2_000))
        assert seen["S"] >= 50 and seen["fail"] and seen["trivial"] >= 50

    def test_multi_vertex_instances(self):
        rng = random.Random("s-condition-multi-vertex")
        seen = self._compare(random_multi_vertex_instance(rng)
                             for _ in range(2_000))
        # few of these fall inside the loop hypotheses; no vertex fails here
        assert seen["S"] >= 20 and seen["trivial"] >= 1_000, seen

    @pytest.mark.parametrize("flavor", [COMMUTATIVE, ANTICOMMUTATIVE])
    def test_loop_families(self, flavor):
        rng = random.Random(17)
        seen = self._compare(_s_family(rng, k, flavor)
                             for k in range(1, 7) for _ in range(120))
        assert min(seen[s] for s in ("S", "fail", "trivial")) >= 50, seen


class TestDegreeGenerators:
    def test_polynomial_pair(self):
        assert degree_generators(two_loop_polynomial()) == (("a",), ("b",))

    def test_dual_of_full_anti_fixture(self):
        dual = dual_ideal(fixture_ideal("anti_four_loops_full"))
        gens = degree_generators(dual)
        assert gens == (("a" + OP,), ("b" + OP,))

    def test_raises_on_infinite(self):
        with pytest.raises(HypothesisError):
            degree_generators(fixture_ideal("comm_four_loops_arrow_out"))

    def test_trivial_center_empty(self):
        spec = build(["x"], [("a", "x", "x"), ("b", "x", "x")], COMMUTATIVE)
        assert degree_generators(spec) == ()

    def test_anti_squares(self):
        spec = build(["x"], [("a", "x", "x"), ("b", "x", "x")],
                     ANTICOMMUTATIVE, relations=[("a", "b")])
        assert degree_generators(spec) == (("a", "a"), ("b", "b"))

    def test_anti_outsider_free_odd_block(self):
        # three pairwise anti-commuting loops with no other arrows: the
        # triple product is central of odd degree and must be a generator
        spec = build(["x"], [("a", "x", "x"), ("b", "x", "x"),
                             ("c", "x", "x")], ANTICOMMUTATIVE,
                     relations=[("a", "b"), ("a", "c"), ("b", "c")])
        gens = degree_generators(spec)
        assert ("a", "b", "c") in gens
        assert ("a", "a") in gens

    def test_single_free_loop_anti(self):
        # K[a] with the anticommutative flavor: a itself is central
        spec = build(["x"], [("a", "x", "x")], ANTICOMMUTATIVE)
        gens = degree_generators(spec)
        assert ("a",) in gens
