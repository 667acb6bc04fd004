from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fixture_ideal
from pacqa.center import is_central_monomial
from pacqa.dsl import parse_spec
from pacqa.errors import QuiverError
from pacqa.ideal import restrict
from pacqa.normalform import (canonical_form, equivalence_class,
                              monomial_in_ideal)
from pacqa.oracle import raw_monomial_in_ideal
from pacqa.quiver import (Path, build_quiver, compose, opposite,
                          vertex_subquiver)

EX1_VERTICES = ["x", "y"]
EX1_ARROWS = [("a", "x", "x"), ("b", "x", "x"), ("c", "x", "y")]


def ex1_quiver():
    return build_quiver(EX1_VERTICES, EX1_ARROWS)


class TestBuildQuiver:
    def test_two_loops_and_arrow(self):
        q = ex1_quiver()
        assert len(q.vertices) == 2
        assert len(q.arrows) == 3
        assert q.loops == ("a", "b")
        assert q.origin("c") == "x" and q.target("c") == "y"

    def test_one_vertex_no_arrows(self):
        q = build_quiver(["x"], [])
        assert q.vertices == ("x",)
        assert q.arrows == ()

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(QuiverError):
            build_quiver(["x", "y"], [("c", "x", "z")])

    def test_duplicate_names_rejected(self):
        with pytest.raises(QuiverError):
            build_quiver(["x", "x"], [])
        with pytest.raises(QuiverError):
            build_quiver(["x"], [("a", "x", "x"), ("a", "x", "x")])

    def test_connectivity(self):
        assert ex1_quiver().is_connected()
        q = build_quiver(["x", "y"], [("a", "x", "x")])
        assert not q.is_connected()
        assert q.connected_components == (("x",), ("y",))
        q = build_quiver(["w", "x", "y", "z"],
                         [("a", "z", "x"), ("b", "y", "w")])
        assert q.connected_components == (("w", "y"), ("x", "z"))

    def test_long_path_parses_in_linear_time(self):
        # parse_spec reads the components for its disconnected-quiver
        # notice; sorting each by a list lookup was quadratic in vertices
        n = 30_000
        text = ("vertices: " + ", ".join(f"v{i}" for i in range(n))
                + "\narrows: " + ", ".join(f"a{i}: v{i}->v{i + 1}"
                                           for i in range(n - 1))
                + "\nideal commutative\n")
        start = time.process_time()
        doc = parse_spec(text)
        assert time.process_time() - start < 2.0
        assert doc.quiver.connected_components == (doc.quiver.vertices,)


class TestWordGate:
    """Every engine that takes a word accepts and refuses the same words,
    through ``Quiver.word``."""

    @pytest.mark.parametrize("engine", [
        canonical_form, monomial_in_ideal, equivalence_class,
        is_central_monomial, raw_monomial_in_ideal],
        ids=lambda engine: engine.__name__)
    def test_engines_share_one_gate(self, engine):
        spec = fixture_ideal("anti_two_loops_arrow")  # inside the hypotheses
        other = restrict(spec, "y").quiver
        assert other != spec.quiver
        refused = [
            (("c", "a"), "non-composable junction 'c' -> 'a'"),  # y, then x
            (("zz",), "unknown arrow 'zz'"),
            (("a", "zz", "b"), "unknown arrow 'zz'"),
            (Path(other, ("c",)), "different quivers"),
        ]
        for word, message in refused:
            # a QuiverError is neither a FalsificationError nor a TypeError
            with pytest.raises(QuiverError, match=message):
                engine(spec, word)
        for word in (("c",), ("a", "b"), ("b", "a", "c")):
            assert engine(spec, Path(spec.quiver, word)) \
                == engine(spec, word)

    def test_path_names_arrows_of_its_quiver(self):
        q = ex1_quiver()
        for arrows in (("zz",), ("a", "zz")):
            with pytest.raises(QuiverError, match="unknown arrow 'zz'"):
                Path(q, arrows)
        with pytest.raises(QuiverError, match="non-composable"):
            Path(q, ("c", "a"))
        assert q.word(("a", "c")) == ("a", "c")


class TestCompose:
    def test_loop_then_arrow(self):
        q = ex1_quiver()
        p = compose(Path.from_arrows(q, "a"), Path.from_arrows(q, "c"))
        assert p is not None and p.arrows == ("a", "c")

    def test_non_composable_is_zero(self):
        q = ex1_quiver()
        assert compose(Path.from_arrows(q, "c"), Path.from_arrows(q, "a")) \
            is None

    def test_vertex_identity(self):
        q = ex1_quiver()
        a = Path.from_arrows(q, "a")
        assert compose(Path.vertex_path(q, "x"), a) == a
        assert compose(a, Path.vertex_path(q, "x")) == a
        assert compose(Path.vertex_path(q, "y"), a) is None

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3),
           st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3),
           st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3))
    def test_associative(self, w1, w2, w3):
        q = ex1_quiver()

        def path(w):
            try:
                return Path.from_arrows(q, w)
            except QuiverError:
                return None

        p1, p2, p3 = path(w1), path(w2), path(w3)
        if None in (p1, p2, p3):
            return
        left = compose(p1, p2)
        right = compose(p2, p3)
        lhs = compose(left, p3) if left else None
        rhs = compose(p1, right) if right else None
        assert lhs == rhs


class TestOpposite:
    def test_reverses_endpoints(self):
        op = opposite(ex1_quiver())
        assert op.vertices == ("x", "y")
        assert op.arrow_names == ("a°", "b°", "c°")
        assert op.origin("c°") == "y" and op.target("c°") == "x"
        assert op.is_loop("a°") and op.is_loop("b°")

    def test_involution(self):
        q = ex1_quiver()
        assert opposite(opposite(q)) == q

    def test_single_loop(self):
        q = build_quiver(["x"], [("a", "x", "x")])
        op = opposite(q)
        assert op.is_loop("a°")
        assert opposite(op) == q


class TestMultiVertexCycles:
    def test_none_without_a_way_back(self):
        from pacqa.quiver import multi_vertex_cycles
        assert multi_vertex_cycles(ex1_quiver()) == ()

    def test_two_cycle_found_once(self):
        from pacqa.quiver import multi_vertex_cycles
        q = build_quiver(["x", "y"], [("u", "x", "y"), ("v", "y", "x")])
        assert multi_vertex_cycles(q) == (("u", "v"),)

    def test_parallel_arrows_give_separate_cycles(self):
        from pacqa.quiver import multi_vertex_cycles
        q = build_quiver(["x", "y"], [("u", "x", "y"), ("w", "x", "y"),
                                      ("v", "y", "x")])
        assert multi_vertex_cycles(q) == (("u", "v"), ("w", "v"))

    def test_three_cycle_ignores_loops(self):
        from pacqa.quiver import multi_vertex_cycles
        q = build_quiver(
            ["x", "y", "z"],
            [("l", "x", "x"), ("u", "x", "y"), ("v", "y", "z"),
             ("w", "z", "x")])
        assert multi_vertex_cycles(q) == (("u", "v", "w"),)


class TestVertexSubquiver:
    def test_at_x_everything_incident(self):
        sub = vertex_subquiver(ex1_quiver(), "x")
        assert sub.vertices == ("x", "y")
        assert sub.arrow_names == ("a", "b", "c")

    def test_at_y_only_connecting_arrow(self):
        sub = vertex_subquiver(ex1_quiver(), "y")
        assert sub.vertices == ("x", "y")
        assert sub.arrow_names == ("c",)

    def test_isolated_vertex(self):
        q = build_quiver(["x", "y"], [("a", "x", "x")])
        sub = vertex_subquiver(q, "y")
        assert sub.vertices == ("y",)
        assert sub.arrows == ()

    def test_unknown_vertex(self):
        with pytest.raises(QuiverError):
            vertex_subquiver(ex1_quiver(), "z")

    def test_all_arrows_touch_basepoint(self):
        for name in ("comm_four_loops_arrow_out", "comm_two_loops_arrow"):
            quiver = fixture_ideal(name).quiver
            for vertex in quiver.vertices:
                sub = vertex_subquiver(quiver, vertex)
                for arrow in sub.arrow_names:
                    assert vertex in (sub.origin(arrow), sub.target(arrow))
