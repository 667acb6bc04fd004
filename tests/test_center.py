from __future__ import annotations

import random
from dataclasses import replace
from itertools import combinations_with_replacement

import pytest

import clique_reference as reference
import cycle_reference
from helpers import (FIXTURES, build, fixture_ideal, random_instance,
                     random_multi_vertex_instance, random_theorem_instance,
                     two_loop_polynomial)
from pacqa.center import (Centrality, center_is_trivial_at,
                          central_monomials_upto, cycle_survivors,
                          even_center_upto, graded_center_upto,
                          hypothesis_report, is_central_monomial,
                          loop_clique_statuses, require_hypotheses)
from pacqa.errors import HypothesisError, PacqaError
from pacqa.fingen import center_finitely_generated
from pacqa.graphs import is_admissible, relation_graph
from pacqa.ideal import (ANTICOMMUTATIVE, COMMUTATIVE, IdealSpec,
                         is_square_free, orthogonal, restrict, validate_ideal)
from pacqa.koszul import dual_ideal
from pacqa.normalform import canonical_form
from pacqa.oracle import oracle_center_upto
from pacqa.quiver import build_quiver


def w(text: str) -> tuple[str, ...]:
    return tuple(text)


def degree_words(basis):
    return [(d, ["".join(e.word) for e in els]) for d, els in basis.by_degree]


class TestIsCentralMonomial:
    def test_counterexample_pair_is_central(self):
        spec = fixture_ideal("comm_four_loops_arrow_out")
        assert is_central_monomial(spec, w("cd")).central

    def test_counterexample_single_factors_are_not(self):
        spec = fixture_ideal("comm_four_loops_arrow_out")
        assert not is_central_monomial(spec, w("c")).central
        assert not is_central_monomial(spec, w("d")).central

    def test_anti_odd_multiplicities_blocked(self):
        spec = fixture_ideal("anti_two_loops_arrow")
        result = is_central_monomial(spec, w("ab"))
        assert not result.central
        assert "odd multiplicity" in result.reason

    def test_hypothesis_violation_raises(self):
        spec = fixture_ideal("comm_two_loops_arrow")  # contains squares
        with pytest.raises(HypothesisError):
            is_central_monomial(spec, w("a"))

    def test_surviving_two_vertex_cycle_refused(self):
        # cd + dc is central over the free back-and-forth quiver but is not
        # a product of loops: theorem mode must defer to the oracle
        spec = build(["x", "y"], [("c", "x", "y"), ("d", "y", "x")],
                     COMMUTATIVE)
        with pytest.raises(HypothesisError):
            central_monomials_upto(spec, 4)

    def test_surviving_single_rotation_refused(self):
        # killing one rotation leaves c*d itself central (everything else
        # annihilates it); still outside the loop machinery
        spec = build(["x", "y"], [("c", "x", "y"), ("d", "y", "x")],
                     COMMUTATIVE, monomials=[("d", "c")])
        with pytest.raises(HypothesisError):
            central_monomials_upto(spec, 4)
        from pacqa.oracle import oracle_center_upto
        basis = oracle_center_upto(spec, 2)
        assert degree_words(basis) == [(2, ["cd"])]

    def test_one_way_connection_passes_the_gate(self):
        # no way back from y: every cycle word is a loop word
        spec = fixture_ideal("comm_four_loops_arrow_out")
        basis = central_monomials_upto(spec, 2)
        assert basis.provenance == "theorem"


class TestCentralMonomialsUpto:
    def test_counterexample_up_to_degree_two(self):
        spec = fixture_ideal("comm_four_loops_arrow_out")
        basis = central_monomials_upto(spec, 2)
        assert degree_words(basis) == [(1, ["a"]), (2, ["aa", "cd"])]

    def test_anti_two_loops_up_to_four(self):
        spec = fixture_ideal("anti_two_loops_arrow")
        basis = central_monomials_upto(spec, 4)
        assert degree_words(basis) == [(2, ["bb"]), (4, ["aabb", "bbbb"])]

    def test_polynomial_pair_up_to_two(self):
        basis = central_monomials_upto(two_loop_polynomial(), 2)
        assert degree_words(basis) == [(1, ["a", "b"]),
                                       (2, ["aa", "ab", "bb"])]

    def test_basepoints_recorded(self):
        spec = fixture_ideal("comm_four_loops_arrow_out")
        basis = central_monomials_upto(spec, 2)
        for _, elements in basis.by_degree:
            for element in elements:
                assert element.basepoint == "x"

    def test_permutation_homogeneous_uniqueness(self):
        # no two listed monomials of one degree share an arrow multiset
        for name in ("comm_four_loops_arrow_out", "anti_two_loops_arrow"):
            basis = central_monomials_upto(fixture_ideal(name), 6)
            for _, elements in basis.by_degree:
                multisets = [tuple(sorted(e.word)) for e in elements]
                assert len(multisets) == len(set(multisets))

    def test_decomposes_over_basepoints(self):
        # central monomials based at x coincide with those of the
        # restriction to the subquiver at x
        for name in ("comm_four_loops_arrow_out", "anti_two_loops_arrow"):
            spec = fixture_ideal(name)
            full = central_monomials_upto(spec, 5)
            for vertex in spec.quiver.vertices:
                local = central_monomials_upto(restrict(spec, vertex), 5)
                for d in range(1, 6):
                    at_vertex = tuple(
                        e.word for e in full.degree_slice(d)
                        if e.basepoint == vertex)
                    assert at_vertex == local.words_at(d)


class TestTriviality:
    def test_dual_of_monomial_fixture_trivial_everywhere(self):
        dual = dual_ideal(fixture_ideal("monomial_two_loops_two_arrows"))
        for vertex in dual.quiver.vertices:
            assert center_is_trivial_at(dual, vertex).trivial

    def test_counterexample_nontrivial_with_block_witness(self):
        spec = fixture_ideal("comm_four_loops_arrow_out")
        result = center_is_trivial_at(spec, "x")
        assert not result.trivial
        assert "a" in result.block

    def test_vertex_without_loops_is_trivial(self):
        spec = fixture_ideal("comm_four_loops_arrow_out")
        assert center_is_trivial_at(spec, "y").trivial

    def test_free_pair_of_loops_is_trivial(self):
        spec = build(["x"], [("a", "x", "x"), ("b", "x", "x")], COMMUTATIVE)
        result = center_is_trivial_at(spec, "x")
        assert result.trivial
        assert result.scanned  # exhaustion evidence

    def test_commuting_outsider_extends_block(self):
        # relations {a,b} and {a,c} only: a is central although no block
        # annihilates b or c
        spec = build(["x"], [("a", "x", "x"), ("b", "x", "x"),
                             ("c", "x", "x")], COMMUTATIVE,
                     relations=[("a", "b"), ("a", "c")])
        result = center_is_trivial_at(spec, "x")
        assert not result.trivial
        assert result.block == ("a",)


class TestEvenAndGradedCenter:
    def test_polynomial_pair_graded_slice(self):
        spec = two_loop_polynomial()
        full = central_monomials_upto(spec, 3)
        assert [d for d, _ in full.by_degree] == [1, 2, 3]
        graded = graded_center_upto(spec, 3)
        even = even_center_upto(spec, 3)
        assert degree_words(graded) == degree_words(even)
        assert [d for d, _ in graded.by_degree] == [2]

    def test_anti_two_loops_graded_equals_full(self):
        spec = fixture_ideal("anti_two_loops_arrow")
        graded = graded_center_upto(spec, 4)
        full = central_monomials_upto(spec, 4)
        assert degree_words(graded) == degree_words(full)
        assert any("even-degree center equals the full center" in n
                   for n in graded.notes)

    def test_empty_center_empty_slices(self):
        spec = build(["x"], [("a", "x", "x"), ("b", "x", "x")], COMMUTATIVE)
        assert degree_words(graded_center_upto(spec, 4)) == []
        assert degree_words(even_center_upto(spec, 4)) == []

    def test_char_two_graded_is_the_center(self):
        # the sign (-1)^d is 1 in characteristic 2, odd degrees included
        spec = build(["x"], [("a", "x", "x"), ("b", "x", "x")],
                     ANTICOMMUTATIVE, relations=[("a", "b")], char=2)
        graded = graded_center_upto(spec, 4)
        assert graded == central_monomials_upto(spec, 4)
        assert [d for d, _ in graded.by_degree] == [1, 2, 3, 4]

    def test_theorem_graded_center_matches_graded_oracle(self):
        compared = []
        for name in FIXTURES:
            spec = fixture_ideal(name)
            try:
                theorem = graded_center_upto(spec, 6)
            except HypothesisError:
                continue
            oracle = oracle_center_upto(spec, 6, graded=True)
            assert oracle.is_monomial, name
            assert [theorem.words_at(d) for d in range(1, 7)] == \
                [oracle.words_at(d) for d in range(1, 7)], name
            compared.append(name)
        # the other four fixtures lie outside the theorem hypotheses
        assert compared == ["anti_two_loops_arrow", "comm_four_loops_arrow_out"]

    def test_even_degree_builds_match_the_even_slice(self):
        """Both slices build even degrees only.  They must equal the even
        slice of the full basis, and the graded center carries its
        no-odd-degree note iff that slice is the whole basis; in
        characteristic 2 the graded center is the full basis."""
        rng = random.Random("even-slices")
        wide = random.Random("even-slices-multi-vertex")
        specs = [fixture_ideal(name) for name in FIXTURES]
        specs += [random_instance(rng) for _ in range(1_500)]
        specs += [random_multi_vertex_instance(wide) for _ in range(1_500)]
        theorem = random.Random("even-slices-theorem")
        specs += [random_theorem_instance(theorem) for _ in range(500)]
        compared = noted = 0
        for spec in specs:
            for d in range(1, 7):
                try:
                    full = central_monomials_upto(spec, d)
                except HypothesisError:
                    with pytest.raises(HypothesisError):
                        even_center_upto(spec, d)
                    with pytest.raises(HypothesisError):
                        graded_center_upto(spec, d)
                    continue
                even = replace(full, by_degree=tuple(
                    (e, els) for e, els in full.by_degree if e % 2 == 0))
                assert even_center_upto(spec, d) == even
                if spec.field_char == 2:  # the graded center is the center
                    assert graded_center_upto(spec, d) == full
                    continue
                if even.by_degree == full.by_degree:
                    even = replace(even, notes=even.notes + (
                        f"no odd-degree central monomials up to degree {d}: "
                        "the even-degree center equals the full center in "
                        "this range",))
                    noted += 1
                assert graded_center_upto(spec, d) == even, (spec, d)
                compared += 1
        # both sides of the note, many times over
        print(f"even slices: {compared} compared, {noted} noted")
        assert compared >= 2_500 and 1_000 <= noted <= compared - 1_000, (
            compared, noted)


def _chain(rng: random.Random, n: int) -> IdealSpec:
    """``n`` vertices with two or three loops each and forward arrows, some
    back arrows closing killed triangles, and seeded kills between the
    loops off the triangles and the arrows next to them; inside the theorem
    hypotheses."""
    vertices = [f"v{i}" for i in range(n)]
    arrows, loops = [], []
    for i, v in enumerate(vertices):
        here = [f"l{i}{j}" for j in range(rng.choice([2, 3]))]
        rng.shuffle(here)
        loops.append(here)
        arrows += [(a, v, v) for a in here]
    arrows += [(f"f{i}", vertices[i], vertices[i + 1]) for i in range(n - 1)]
    back = [i for i in range(0, n - 2, 3) if rng.random() < 0.5]
    arrows += [(f"h{i}", vertices[i + 2], vertices[i]) for i in back]
    rng.shuffle(arrows)
    quiver = build_quiver(vertices, arrows)
    monomials, relations = set(), set()
    for i in back:
        monomials |= {(f"f{i + 1}", f"h{i}"), (f"h{i}", f"f{i}")}
    on_cycle = {vertices[i + j] for i in back for j in range(3)}
    for here in loops:
        for x, a in enumerate(here):
            for b in here[x + 1:]:
                if rng.random() < 0.7:
                    relations.add((a, b))
                elif rng.random() < 0.5:
                    monomials.add((a, b) if rng.random() < 0.5 else (b, a))
    for v in quiver.vertices:
        if v in on_cycle:
            continue
        rate = rng.choice([1.0, 0.5])
        for a in quiver.loops_at(v):
            for b in quiver.incidence[v]:
                if quiver.origin(b) != v and rng.random() < rate:
                    monomials.add((b, a))
                if quiver.target(b) != v and rng.random() < rate:
                    monomials.add((a, b))
    return validate_ideal(quiver, COMMUTATIVE if rng.random() < 0.5
                          else ANTICOMMUTATIVE, sorted(monomials),
                          sorted(relations))


def _loop_family(rng: random.Random, k: int, flavor: str) -> IdealSpec:
    """``k`` loops at ``x``, every pair related but a few, and arrows out of
    and into ``x`` that seeded loops annihilate."""
    names = [f"l{i}" for i in range(k)]
    arrows = [(a, "x", "x") for a in names]
    arrows += [("e", "x", "y"), ("g", "z", "x"), ("w", "y", "y")][
        :rng.choice([0, 1, 3])]
    rng.shuffle(arrows)
    quiver = build_quiver(["x", "y", "z"], arrows)
    monomials, relations = set(), set()
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if rng.random() < 0.85:
                relations.add((a, b))
            elif rng.random() < 0.5:
                monomials.add((a, b))
    for a in names:
        if "e" in quiver.arrow_names and rng.random() < 0.7:
            monomials.add((a, "e"))
        if "g" in quiver.arrow_names and rng.random() < 0.7:
            monomials.add(("g", a))
    return validate_ideal(quiver, flavor, sorted(monomials), sorted(relations))


def _probe_words(rng: random.Random, spec: IdealSpec, statuses):
    """Words over sampled cliques, random loop words at one vertex and
    random paths."""
    q = spec.quiver
    for st in rng.sample(statuses, min(len(statuses), 25)):
        word = [a for a in st.clique for _ in range(rng.randint(1, 3))]
        rng.shuffle(word)
        yield tuple(word)
    for v in q.vertices:
        if q.loops_at(v):
            yield tuple(rng.choice(q.loops_at(v))
                        for _ in range(rng.randint(1, 5)))
    for _ in range(5):
        word = [rng.choice(q.arrow_names)]
        for _ in range(rng.randint(0, 3)):
            nxt = [b for b in q.arrow_names if q.composable(word[-1], b)]
            if not nxt:
                break
            word.append(rng.choice(nxt))
        yield tuple(word)


def _outcome(fn, spec, word):
    try:
        return fn(spec, word)
    except PacqaError as exc:
        return type(exc), str(exc)


def test_theorem_instances_meet_the_first_two_hypotheses():
    """Every draw is square-free with an admissible orthogonal; most are
    loop-supported too, so they reach theorem mode."""
    rng = random.Random("theorem-instances")
    supported = 0
    for _ in range(1_000):
        report = hypothesis_report(random_theorem_instance(rng))
        assert report["square_free"] and report["orthogonal_admissible"]
        supported += report["loop_supported"]
    print(f"theorem instances: {supported} of 1000 loop-supported")
    assert supported >= 600, supported


def test_listing_matches_the_per_word_decision():
    """For every D up to 6, the central words that the listing gives up to
    D are the canonical forms of the words of degree <= D that
    :func:`is_central_monomial` calls central.  The candidates are every
    multiset of one vertex's loops, which knows nothing of cliques or
    parity."""
    specs = [fixture_ideal(name) for name in FIXTURES]
    rng = random.Random("listing-vs-decision-theorem")
    specs += [random_theorem_instance(rng) for _ in range(800)]
    wide = random.Random("listing-vs-decision-multi-vertex")
    specs += [random_multi_vertex_instance(wide) for _ in range(600)]
    inside = listed = 0
    for spec in specs:
        try:
            require_hypotheses(spec)
        except HypothesisError:
            continue
        inside += 1
        central = set()
        for v in spec.quiver.vertices:
            loops = spec.quiver.loops_at(v)
            for d in range(1, 7):
                for word in combinations_with_replacement(loops, d):
                    if is_central_monomial(spec, word).central:
                        central.add((d, canonical_form(spec, word)[1]))
        for top in range(1, 7):
            got = {(d, e.word)
                   for d, els in central_monomials_upto(spec, top).by_degree
                   for e in els}
            assert got == {(d, w) for d, w in central if d <= top}, (
                spec.generator_strings(), top)
        listed += len(central)
    print(f"listing vs decision: {inside} specs, {listed} central words")
    assert inside >= 550 and listed >= 4_000, (inside, listed)


class TestCliqueStatusAgainstReference:
    """The per-vertex bitmask scan against the all-pairs scan it replaced
    (``tests/clique_reference.py``): every status field, and the verdict
    and reason of ``is_central_monomial``."""

    def _compare(self, spec, rng) -> int:
        """The number of words given a verdict rather than an error."""
        statuses = loop_clique_statuses(spec)
        assert statuses == reference.loop_clique_statuses(spec)
        decided = 0
        for word in _probe_words(rng, spec, statuses):
            got = _outcome(is_central_monomial, spec, word)
            assert got == _outcome(reference.is_central_monomial, spec, word)
            decided += isinstance(got, Centrality)
        return decided

    def test_fixtures(self):
        rng = random.Random(7)
        assert sum(self._compare(fixture_ideal(name), rng)
                   for name in FIXTURES) >= 20

    def test_random_instances(self):
        decided = sum(self._compare(random_instance(random.Random(seed)),
                                    random.Random(seed))
                      for seed in range(500))
        assert decided >= 1_000

    def test_multi_vertex_instances(self):
        rng = random.Random("clique-statuses-multi-vertex")
        decided = sum(self._compare(random_multi_vertex_instance(rng), rng)
                      for _ in range(500))
        assert decided >= 80, decided

    def test_chains(self):
        rng = random.Random(11)
        decided = blocked = 0
        for _ in range(60):
            spec = _chain(rng, rng.randint(3, 8))
            decided += self._compare(spec, rng)
            blocked += sum(st.blocker is not None
                           for st in loop_clique_statuses(spec))
        assert decided >= 1_000 and blocked >= 100

    @pytest.mark.parametrize("flavor", [COMMUTATIVE, ANTICOMMUTATIVE])
    def test_loop_families(self, flavor):
        rng = random.Random(13)
        kinds = set()
        for k in range(4, 11):
            for _ in range(3):
                spec = _loop_family(rng, k, flavor)
                assert self._compare(spec, rng)
                kinds |= {(st.central_ok, st.kill_only,
                           st.extender is not None)
                          for st in loop_clique_statuses(spec)}
        assert len(kinds) >= 3


def test_hypothesis_report_reads_each_condition_from_its_source():
    specs = [fixture_ideal(name) for name in FIXTURES]
    specs += [random_instance(random.Random(seed)) for seed in range(200)]
    outcomes = set()
    for spec in specs:
        report = hypothesis_report(spec)
        assert report == {
            "square_free": is_square_free(spec),
            "orthogonal_admissible":
                is_admissible(orthogonal(spec)).admissible,
            "loop_supported": cycle_survivors(spec)[0] is None,
        }
        outcomes.add(tuple(report.values()))
    assert len(outcomes) >= 4


def test_center_and_fingen_build_no_relation_graph():
    def graphs(spec):
        return [key for key in spec.__dict__ if "relation_graph" in key]

    spec = _chain(random.Random(5), 12)
    assert central_monomials_upto(spec, 3).by_degree
    assert center_finitely_generated(spec).status
    for st in loop_clique_statuses(spec):
        is_central_monomial(spec, st.clique)
    assert not graphs(spec)
    relation_graph(spec)  # still built on request, for dot and the API
    assert graphs(spec)


class TestCyclePairRuleAgainstReference:
    """Surviving rotations and wrap-alive cycles read off the cycles'
    monomial pairs, against the rotation-by-rotation normal-form search
    (``tests/cycle_reference.py``)."""

    def test_fixtures_random_instances_chains_and_duals(self):
        specs = [fixture_ideal(name) for name in FIXTURES]
        rng = random.Random("cycle-pairs")
        specs += [random_instance(rng) for _ in range(400)]
        specs += [_chain(rng, rng.randint(6, 12)) for _ in range(6)]
        wide = random.Random("cycle-pairs-multi-vertex")
        specs += [random_multi_vertex_instance(wide) for _ in range(600)]
        theorem = random.Random("cycle-pairs-theorem")
        specs += [random_theorem_instance(theorem) for _ in range(300)]
        specs += [dual_ideal(spec) for spec in specs
                  if is_admissible(spec).admissible]
        surviving = wrap_alive = single_rotation = 0
        for spec in specs:
            got, alive = cycle_survivors(spec)
            assert got == cycle_reference.surviving_multi_vertex_cycle(spec)
            assert alive == cycle_reference.wrap_alive_cycle(spec)
            surviving += got is not None
            wrap_alive += alive is not None
            single_rotation += got is not None and alive is None
        assert len(specs) >= 1_200
        assert surviving >= 600 and wrap_alive >= 300 \
            and single_rotation >= 100, (surviving, wrap_alive,
                                         single_rotation)

    @pytest.mark.parametrize("decide", [
        hypothesis_report, require_hypotheses, center_finitely_generated])
    def test_gate_builds_no_normal_form_tables(self, decide):
        # c*d is killed, so only the rotation d*c survives
        spec = build(["x", "y"], [("c", "x", "y"), ("d", "y", "x")],
                     monomials=[("c", "d")])
        try:
            decide(spec)
        except HypothesisError as exc:
            assert "(d*c)" in str(exc)
        assert cycle_survivors(spec)[0] == ("d", "c")
        assert not [key for key in spec.__dict__ if "context_for" in key]
