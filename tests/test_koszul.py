from __future__ import annotations

import sys

import pytest

from helpers import FIXTURES, build, fixture_doc, fixture_ideal
from pacqa.center import (center_is_trivial_at, cycle_survivors,
                          hypothesis_report)
from pacqa.errors import HypothesisError
from pacqa.graphs import is_admissible
from pacqa.ideal import (ANTICOMMUTATIVE, COMMUTATIVE, KOSZUL_ASSERTED,
                         KOSZUL_AUTO, KOSZUL_UNKNOWN, AlgebraPresentation,
                         make_presentation)
from pacqa.koszul import HH_FG, HH_INF, HH_UNDECIDED, hochschild_fg, koszul_dual
from pacqa.oracle import quotient_basis_upto
from pacqa.quiver import multi_vertex_cycles

OP = "°"


def _mk(name: str) -> AlgebraPresentation:
    return fixture_doc(name).presentation


class TestKoszulDual:
    def test_two_loops_arrow(self):
        dual = koszul_dual(_mk("comm_two_loops_arrow"))
        assert dual.ideal.flavor == ANTICOMMUTATIVE
        assert dual.ideal.monomials == (("c" + OP, "b" + OP),)
        assert dual.ideal.relations == (("a" + OP, "b" + OP),)
        assert dual.koszul == KOSZUL_ASSERTED

    def test_monomial_fixture_dual_is_complement(self):
        pres = _mk("monomial_two_loops_two_arrows")
        assert pres.koszul == KOSZUL_AUTO
        dual = koszul_dual(pres)
        assert dual.ideal.monomials == (("b" + OP, "d" + OP),
                                        ("c" + OP, "a" + OP),
                                        ("c" + OP, "d" + OP))
        assert dual.ideal.relations == ()
        assert dual.koszul == KOSZUL_AUTO
        # dimension cross-check (each degree re-verified by raw elimination)
        primal = quotient_basis_upto(pres.ideal, 6)
        dual_alg = quotient_basis_upto(dual.ideal, 6)
        assert primal.dimensions == (2, 4, 3, 0, 0, 0, 0)
        assert primal.self_checked == (1, 2, 3, 4, 5)
        assert dual_alg.dimensions == (2, 4, 7, 14, 30, 64, 135)

    def test_full_anti_fixture_dual_relations(self):
        dual = koszul_dual(_mk("anti_four_loops_full"))
        assert dual.ideal.flavor == COMMUTATIVE
        assert dual.ideal.monomials == ()
        assert len(dual.ideal.relations) == 5

    def test_not_admissible_rejected(self):
        with pytest.raises(HypothesisError):
            koszul_dual(_mk("anti_four_loops_free_pair"))

    def test_round_trip_of_the_construction(self):
        # the dual of an admissible ideal is square-free, hence not itself
        # admissible; the round trip is a property of the raw construction
        from helpers import FIXTURES
        from pacqa.koszul import dual_ideal
        for name in FIXTURES:
            spec = fixture_ideal(name)
            assert dual_ideal(dual_ideal(spec)) == spec

    def test_gate_refuses_the_dual_itself(self):
        dual = koszul_dual(_mk("comm_two_loops_arrow"))
        with pytest.raises(HypothesisError):
            koszul_dual(dual)


class TestHochschild:
    def test_two_loops_arrow_infinitely_generated(self):
        verdict = hochschild_fg(_mk("comm_two_loops_arrow"))
        assert verdict.status == HH_INF
        assert not verdict.trivial
        assert verdict.render() == "infinitely generated"

    def test_monomial_fixture_trivial(self):
        verdict = hochschild_fg(_mk("monomial_two_loops_two_arrows"))
        assert verdict.status == HH_FG
        assert verdict.trivial
        assert verdict.koszul == KOSZUL_AUTO
        assert verdict.render() == "finitely generated; HH*/N is trivial"

    def test_full_anti_fixture_finitely_generated(self):
        verdict = hochschild_fg(_mk("anti_four_loops_full"))
        assert verdict.status == HH_FG
        assert not verdict.trivial
        assert verdict.dual_center_generators == (("a" + OP,), ("b" + OP,))

    def test_unknown_koszulity_undecided(self):
        spec = fixture_ideal("comm_two_loops_arrow")
        pres = AlgebraPresentation(spec, KOSZUL_UNKNOWN)
        verdict = hochschild_fg(pres)
        assert verdict.status == HH_UNDECIDED
        assert verdict.dual.ideal.relations  # dual still carried

    def test_char_two_routes_through_commutative(self):
        spec = build(["x"], [("a", "x", "x"), ("b", "x", "x")],
                     ANTICOMMUTATIVE,
                     monomials=[("a", "a"), ("b", "b"),
                                ("a", "b"), ("b", "a")],
                     char=2)
        assert spec.flavor == COMMUTATIVE
        verdict = hochschild_fg(make_presentation(spec))
        assert verdict.koszul == KOSZUL_AUTO
        assert verdict.dual.ideal.field_char == 2
        assert verdict.dual.ideal.flavor == COMMUTATIVE
        assert verdict.status in (HH_FG, HH_INF)

    def test_wrap_alive_cycle_skips_the_oracle_sweep(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("oracle sweep ran")

        monkeypatch.setattr("pacqa.oracle.oracle_center_upto", refuse)
        spec = build(["x", "y"], [("c", "x", "y"), ("d", "y", "x")],
                     monomials=[("c", "d"), ("d", "c")])
        verdict = hochschild_fg(make_presentation(spec))
        assert (verdict.status, verdict.trivial) == (HH_FG, False)
        assert verdict.notes == (
            f"the cycle d{OP}*c{OP} survives with all its rotation pairs: "
            "its rotation sums are non-nilpotent central elements, so HH*/N "
            "is not trivial; each such family is generated by its first "
            "necklace",)

    def test_one_cycle_search_per_ideal(self, monkeypatch):
        searched = []

        def counted(quiver):
            searched.append(quiver)
            return multi_vertex_cycles(quiver)

        for name, module in list(sys.modules.items()):
            if name.startswith("pacqa") \
                    and hasattr(module, "multi_vertex_cycles"):
                monkeypatch.setattr(module, "multi_vertex_cycles", counted)
        spec = build(["x", "y"], [("c", "x", "y"), ("d", "y", "x")],
                     monomials=[("c", "d"), ("d", "c")])
        dual = hochschild_fg(make_presentation(spec)).dual.ideal
        # the dual's surviving and wrap-alive cycles come from one search,
        # which the hypotheses and the oracle's guard read again
        assert not hypothesis_report(dual)["loop_supported"]
        assert cycle_survivors(dual)[0] == (f"d{OP}", f"c{OP}")
        assert searched == [dual.quiver]

    def test_verdict_always_carries_dual(self):
        for name in ("comm_two_loops_arrow", "monomial_two_loops_two_arrows",
                     "anti_four_loops_full"):
            verdict = hochschild_fg(_mk(name))
            assert verdict.dual.ideal.quiver.vertices


def _squares_killed_family(k: int, flavor: str, zero_pairs: str
                           ) -> AlgebraPresentation:
    """``k`` loops at one vertex with every square zero; each pair commutes,
    or with ``zero_pairs`` "one" / "both" has ab (and ba) zero instead."""
    names = [f"l{i}" for i in range(k)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    monomials = [(a, a) for a in names]
    if zero_pairs == "none":
        relations = pairs
    else:
        relations = []
        monomials += pairs
        if zero_pairs == "both":
            monomials += [(b, a) for a, b in pairs]
    spec = build(["x"], [(a, "x", "x") for a in names], flavor,
                 monomials=sorted(monomials), relations=relations)
    return make_presentation(spec, koszul_asserted=True)


class TestDualTrivialityIsLocal:
    """A trivial dual center is trivial at every vertex of the dual: both
    sides read the dual's loop-clique statuses, and a trivial verdict means
    none of them is central."""

    def test_fixtures_and_squares_killed_families(self):
        presentations = [
            make_presentation(fixture_ideal(name), koszul_asserted=True)
            for name in FIXTURES
            if is_admissible(fixture_ideal(name)).admissible]
        presentations += [
            _squares_killed_family(k, flavor, zero_pairs)
            for k in range(2, 6)
            for flavor in (COMMUTATIVE, ANTICOMMUTATIVE)
            for zero_pairs in ("none", "one", "both")]
        outcomes = set()
        for pres in presentations:
            verdict = hochschild_fg(pres)
            dual = verdict.dual.ideal
            if verdict.trivial:
                assert all(center_is_trivial_at(dual, v).trivial
                           for v in dual.quiver.vertices), pres
            outcomes.add(verdict.trivial)
        assert outcomes == {True, False}
