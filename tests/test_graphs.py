from __future__ import annotations

import random

from helpers import (build, fixture_ideal, random_instance,
                     random_multi_vertex_instance)
from pacqa.graphs import (GENERATOR_KIND, MixedGraph, enumerate_cliques,
                          generator_graph, has_directed_cycle, is_admissible,
                          relation_graph, to_dot)
from pacqa.ideal import COMMUTATIVE, orthogonal
from pacqa.koszul import dual_ideal

OP = "°"


class TestGeneratorGraph:
    def test_two_loops_arrow(self):
        g = generator_graph(fixture_ideal("comm_two_loops_arrow"))
        assert g.vertices == ("a", "b", "c")
        assert set(g.directed) == {("a", "a"), ("b", "b"), ("a", "c")}
        assert g.undirected == (("a", "b"),)

    def test_zero_ideal_edgeless(self):
        spec = build(["x"], [("a", "x", "x"), ("b", "x", "x")], COMMUTATIVE)
        g = generator_graph(spec)
        assert g.directed == () and g.undirected == ()

    def test_orthogonal_of_free_pair(self):
        orth = orthogonal(fixture_ideal("anti_four_loops_free_pair"))
        g = generator_graph(orth)
        assert set(g.directed) == {("c", "d"), ("d", "c")}
        assert len(g.undirected) == 5


class TestRelationGraph:
    def test_counterexample_matches_expected_edges(self):
        g = relation_graph(fixture_ideal("comm_four_loops_arrow_out"))
        expected_directed = {
            ("b", "c"), ("d", "b"), ("a", "e"), ("c", "e"),  # generators
            ("e", "a"), ("e", "b"), ("e", "c"), ("e", "d"),  # trivial zeros
        }
        assert set(g.directed) == expected_directed
        assert set(g.undirected) == {("a", "b"), ("a", "c"), ("a", "d"),
                                     ("c", "d")}

    def test_single_free_loop_has_no_edges(self):
        spec = build(["x"], [("a", "x", "x")], COMMUTATIVE)
        g = relation_graph(spec)
        assert g.directed == () and g.undirected == ()

    def test_koszul_dual_of_two_loops_arrow(self):
        dual = dual_ideal(fixture_ideal("comm_two_loops_arrow"))
        g = relation_graph(dual)
        a, b, c = "a" + OP, "b" + OP, "c" + OP
        assert set(g.directed) == {(a, c), (b, c), (c, b)}
        assert g.undirected == ((a, b),)


class TestDirectedCycles:
    def test_free_pair_cycle_witness(self):
        orth = orthogonal(fixture_ideal("anti_four_loops_free_pair"))
        found, cycle = has_directed_cycle(generator_graph(orth))
        assert found and cycle == ("c", "d", "c")

    def test_admissible_fixture_has_none(self):
        orth = orthogonal(fixture_ideal("comm_two_loops_arrow"))
        found, cycle = has_directed_cycle(generator_graph(orth))
        assert not found and cycle is None

    def test_self_loop_is_a_cycle(self):
        spec = build(["x"], [("a", "x", "x")], COMMUTATIVE,
                     monomials=[("a", "a")])
        found, cycle = has_directed_cycle(generator_graph(spec))
        assert found and cycle == ("a", "a")

    def test_witness_follows_sorted_adjacency(self):
        # from a the search tries b before c, backs out of the dead end d
        # and closes the cycle through e, whatever the edge listing order
        g = MixedGraph(("a", "b", "c", "d", "e"),
                       (("c", "a"), ("a", "c"), ("b", "e"), ("e", "a"),
                        ("b", "d"), ("a", "b")), (), GENERATOR_KIND)
        assert has_directed_cycle(g) == (True, ("a", "b", "e", "a"))


class TestAdmissibility:
    def test_fixture_verdicts(self):
        assert is_admissible(fixture_ideal("comm_two_loops_arrow")).admissible
        assert is_admissible(
            fixture_ideal("monomial_two_loops_two_arrows")).admissible
        verdict = is_admissible(fixture_ideal("anti_four_loops_free_pair"))
        assert not verdict.admissible
        assert verdict.cycle == ("c", "d", "c")

    def test_free_loop_not_admissible(self):
        spec = build(["x"], [("a", "x", "x")], COMMUTATIVE)
        verdict = is_admissible(spec)
        assert not verdict.admissible
        assert verdict.cycle == ("a", "a")

    def test_nilpotency_bound(self):
        verdict = is_admissible(fixture_ideal("comm_two_loops_arrow"))
        assert verdict.nilpotency_bound == 4  # |arrows| + 1

    def test_long_path_is_admissible(self):
        # the orthogonal's generator graph is a 1,499-arrow chain, deeper
        # than the interpreter's recursion limit
        vertices = [f"v{i}" for i in range(1500)]
        spec = build(vertices, [(f"a{i}", vertices[i], vertices[i + 1])
                                for i in range(1499)])
        verdict = is_admissible(spec)
        assert verdict.admissible
        assert verdict.nilpotency_bound == 1500

    def test_long_free_cycle_witness(self):
        vertices = [f"v{i}" for i in range(1500)]
        spec = build(vertices, [(f"a{i}", vertices[i],
                                 vertices[(i + 1) % 1500])
                                for i in range(1500)])
        verdict = is_admissible(spec)
        assert not verdict.admissible
        assert len(verdict.cycle) == 1501
        assert verdict.cycle == tuple(f"a{i}" for i in range(1500)) + ("a0",)


class TestCliques:
    def test_counterexample_loop_cliques(self):
        g = relation_graph(fixture_ideal("comm_four_loops_arrow_out"))
        cliques = enumerate_cliques(g, loops_only=True)
        names = [c.vertices for c in cliques]
        assert names == [("a",), ("b",), ("c",), ("d",),
                         ("a", "b"), ("a", "c"), ("a", "d"), ("c", "d"),
                         ("a", "c", "d")]
        maximal = [c.vertices for c in cliques if c.maximal]
        assert maximal == [("a", "b"), ("a", "c", "d")]
        assert all(c.all_loops for c in cliques)

    def test_without_loop_restriction_singletons_appear(self):
        g = relation_graph(fixture_ideal("comm_four_loops_arrow_out"))
        cliques = enumerate_cliques(g, loops_only=False)
        assert ("e",) in [c.vertices for c in cliques]

    def test_no_undirected_edges_gives_singletons(self):
        g = relation_graph(fixture_ideal("monomial_two_loops_two_arrows"))
        cliques = enumerate_cliques(g)
        assert [c.vertices for c in cliques] == [("a",), ("b",), ("c",),
                                                 ("d",)]
        assert all(c.maximal for c in cliques)

    def test_dual_of_full_anti_fixture(self):
        dual = dual_ideal(fixture_ideal("anti_four_loops_full"))
        g = relation_graph(dual)
        cliques = enumerate_cliques(g, loops_only=True)
        names = [c.vertices for c in cliques]
        a, b, c, d = (x + OP for x in "abcd")
        assert (a, b) in names
        # c and d each join the pair, but do not join each other
        assert (a, b, c) in names and (a, b, d) in names
        maximal = [cl.vertices for cl in cliques if cl.maximal]
        assert maximal == [(a, b, c), (a, b, d)]


def test_relation_graph_edges_come_in_arrow_order():
    # the edges are generated by origin, then target, in declaration order
    rng = random.Random("relation-graph-order")
    specs = [random_instance(rng) for _ in range(100)]
    specs += [random_multi_vertex_instance(rng) for _ in range(100)]
    for spec in specs:
        index = spec.quiver.arrow_index
        keys = [(index(a), index(b)) for a, b in relation_graph(spec).directed]
        assert keys == sorted(set(keys)), spec.generator_strings()
    assert sum(len(relation_graph(s).directed) > 1 for s in specs) >= 150


class TestDot:
    def test_edgeless_single_vertex_body_is_two_lines(self):
        spec = build(["x"], [("a", "x", "x")], COMMUTATIVE)
        text = to_dot(generator_graph(spec))
        lines = text.strip().splitlines()
        assert lines[0].startswith("digraph")
        assert lines[-1] == "}"
        assert len(lines[1:-1]) == 2

    def test_two_loops_arrow_counts(self):
        text = to_dot(generator_graph(fixture_ideal("comm_two_loops_arrow")))
        node_lines = [line for line in text.splitlines()
                      if line.count('"') == 2]
        assert len(node_lines) == 3
        assert text.count('"a" -> "a";') == 1
        assert text.count('"b" -> "b";') == 1
        assert text.count('"a" -> "c";') == 1
        assert text.count("[dir=none]") == 1

    def test_equal_graphs_equal_bytes(self):
        spec = fixture_ideal("comm_four_loops_arrow_out")
        assert to_dot(relation_graph(spec)) == to_dot(relation_graph(spec))
