from __future__ import annotations

import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_linalg
from helpers import (DIFFERENTIAL_PATH_CAP, FIXTURES, build,
                     differential_cases, fixture_ideal, fixture_path,
                     layered_text, random_instance,
                     random_multi_vertex_instance, two_loop_polynomial)
from pacqa.errors import BudgetError
from pacqa.ideal import ANTICOMMUTATIVE, COMMUTATIVE
from pacqa.dsl import parse_spec
from pacqa.koszul import dual_ideal
from pacqa.linalg import Field, SpanBasis
from pacqa.normalform import canonical_form, context_for
from pacqa.oracle import (SELF_CHECK_PATH_CAP, oracle_center_upto,
                          oracle_fg_evidence, oracle_nilpotence_check,
                          quotient_basis_upto)
from raw_rows_reference import (count_paths, enumerate_paths, generator_rows,
                                quotient_contains)
from trace_reference import trace


ANTI_FIXTURES = ("anti_two_loops_arrow", "anti_four_loops_free_pair",
                 "anti_four_loops_full")


def degree_words(basis):
    return [(d, ["".join(e.word) for e in els]) for d, els in basis.by_degree]


class TestQuotientBasis:
    def test_two_loops_arrow_dimensions(self):
        alg = quotient_basis_upto(fixture_ideal("comm_two_loops_arrow"), 3)
        assert alg.dimensions == (2, 3, 2, 0)
        assert alg.basis[2] == (("a", "b"), ("b", "c"))
        assert alg.self_checked == (1, 2, 3)

    def test_free_loop_polynomial_ring(self):
        spec = build(["x"], [("a", "x", "x")], COMMUTATIVE)
        alg = quotient_basis_upto(spec, 5)
        assert alg.dimensions == (1, 1, 1, 1, 1, 1)

    def test_free_pair_fixture_degree_two(self):
        # 16 words, 4 squares die, relations glue 5 pairs, c*d and d*c
        # survive separately: dimension 7
        alg = quotient_basis_upto(fixture_ideal("anti_four_loops_free_pair"),
                                  2)
        assert alg.dimensions == (1, 4, 7)
        assert tuple("".join(w) for w in alg.basis[2]) == (
            "ab", "ac", "ad", "bc", "bd", "cd", "dc")
        assert 2 in alg.self_checked

    def test_raw_self_check_runs_on_fixtures(self):
        for name in ("comm_two_loops_arrow", "monomial_two_loops_two_arrows"):
            alg = quotient_basis_upto(fixture_ideal(name), 4)
            assert alg.self_checked

    @pytest.mark.parametrize("wrong", ["ba", "aa"],
                             ids=["class-taken-twice", "zero-word"])
    def test_self_check_matches_words_to_classes(self, monkeypatch, wrong):
        # swap the degree-2 word b*c for a word of the same degree that
        # repeats a*b's class or is zero: the count still agrees, so only
        # the class-by-class check sees it
        from pacqa import oracle
        from pacqa.errors import FalsificationError

        spec = fixture_ideal("comm_two_loops_arrow")
        original = oracle._extend

        def swapped(ctx, frontier):
            grown = original(ctx, frontier)
            state = grown.pop(ctx.encode(("b", "c")))
            grown[ctx.encode(tuple(wrong))] = state
            return grown

        monkeypatch.setattr(oracle, "_extend", swapped)
        assert oracle._raw_span(spec, 2).dimension == 2
        with pytest.raises(FalsificationError, match="raw classes"):
            quotient_basis_upto(spec, 2)
        ctx = oracle.context_for(spec)
        grown = oracle._extend(ctx, oracle._frontier_start(ctx))
        assert {ctx.decode(w) for w in grown} == {("a", "b"), tuple(wrong)}

    @pytest.mark.parametrize("name", ANTI_FIXTURES)
    def test_self_check_sees_a_flipped_raw_sign(self, monkeypatch, name):
        # relation rows joined with the wrong sign leave every dimension
        # and every class partition as it was at degree 2: only the signs
        # of the paths in their classes show the error
        from pacqa import oracle
        from pacqa.errors import FalsificationError

        join = oracle._SignedQuotient.join
        monkeypatch.setattr(oracle._SignedQuotient, "join",
                            lambda self, c, d, odd: join(self, c, d, not odd))
        with pytest.raises(FalsificationError, match="degree 2: .*raw classes"):
            quotient_basis_upto(fixture_ideal(name), 2)

    @pytest.mark.parametrize("name", ANTI_FIXTURES)
    def test_self_check_sees_a_flipped_memo_sign(self, monkeypatch, name):
        # the frontier memoises each extension with a wrong sign wherever
        # the new letter moves left of the end; the center's products read
        # those signs, so the oracle center would come out wrong
        from pacqa import oracle
        from pacqa.errors import FalsificationError

        extend = oracle._extend

        def flipped(ctx, frontier):
            grown = extend(ctx, frontier)
            for word in frontier:
                for y in ctx.after[word[-1]]:
                    form = ctx.forms[word + (y,)]
                    if form and form[1] != word + (y,):
                        ctx.forms[word + (y,)] = (-form[0], form[1])
            return grown

        monkeypatch.setattr(oracle, "_extend", flipped)
        with pytest.raises(FalsificationError, match="degree 2: .*raw classes"):
            quotient_basis_upto(fixture_ideal(name), 2)

    def test_budget_guard(self, monkeypatch):
        from pacqa import oracle

        monkeypatch.setattr(oracle, "BASIS_BUDGET", 10)
        spec = build(["x"], [("a", "x", "x"), ("b", "x", "x")], COMMUTATIVE)
        with pytest.raises(BudgetError, match="budget of 10 words"):
            quotient_basis_upto(spec, 6)


class TestOracleCenter:
    def test_counterexample(self):
        basis = oracle_center_upto(fixture_ideal("comm_four_loops_arrow_out"),
                                   2)
        assert degree_words(basis) == [(1, ["a"]), (2, ["aa", "cd"])]

    def test_anti_two_loops(self):
        basis = oracle_center_upto(fixture_ideal("anti_two_loops_arrow"), 2)
        assert degree_words(basis) == [(2, ["bb"])]

    def test_no_loops_no_positive_center(self):
        # no cycles at all: nothing can be central in positive degrees
        spec = build(["x", "y"], [("c", "x", "y")], COMMUTATIVE)
        assert degree_words(oracle_center_upto(spec, 4)) == []
        # a back-and-forth pair with both compositions killed behaves the
        # same way (the surviving-cycle case is different, see below)
        spec = build(["x", "y"], [("c", "x", "y"), ("d", "y", "x")],
                     COMMUTATIVE, monomials=[("c", "d"), ("d", "c")])
        assert degree_words(oracle_center_upto(spec, 4)) == []

    def test_monomial_basis_under_square_free(self):
        for name in ("anti_two_loops_arrow", "comm_four_loops_arrow_out"):
            basis = oracle_center_upto(fixture_ideal(name), 4)
            assert basis.is_monomial

    def test_cycle_through_two_vertices_allowed(self):
        # cd is a cycle at x even though c and d are not loops
        spec = build(["x", "y"], [("c", "x", "y"), ("d", "y", "x")],
                     COMMUTATIVE)
        basis = oracle_center_upto(spec, 2)
        # cd + dc is central in the free algebra on this cycle quiver
        elements = basis.degree_slice(2)
        assert len(elements) == 1
        assert not elements[0].is_monomial
        assert [(c, "".join(w)) for c, w in elements[0].terms] == \
            [(1, "cd"), (1, "dc")]


class TestNilpotence:
    def test_anti_two_loops_powers(self):
        spec = fixture_ideal("anti_two_loops_arrow")
        basis = oracle_center_upto(spec, 8)
        report = oracle_nilpotence_check(spec, basis, 8)
        assert report.all_nonzero
        assert (("b", "b"), 4, True) in report.checks

    def test_polynomial_pair_all_powers(self):
        spec = two_loop_polynomial()
        basis = oracle_center_upto(spec, 8)
        report = oracle_nilpotence_check(spec, basis, 8)
        assert report.all_nonzero

    def test_vacuous_on_empty_center(self):
        dual = dual_ideal(fixture_ideal("monomial_two_loops_two_arrows"))
        basis = oracle_center_upto(dual, 4)
        report = oracle_nilpotence_check(dual, basis, 4)
        assert report.checks == ()
        assert report.all_nonzero


class TestCharacteristicTwo:
    def test_center_over_prime_field(self):
        # in characteristic 2 the anticommutative relation folds into the
        # commutative one; the oracle works over GF(2) and must agree with
        # the clique engine
        from pacqa.center import central_monomials_upto

        spec = build(["x"], [("a", "x", "x"), ("b", "x", "x")],
                     "anticommutative", relations=[("a", "b")], char=2)
        assert spec.flavor == COMMUTATIVE
        theorem = central_monomials_upto(spec, 4)
        oracle = oracle_center_upto(spec, 4)
        for d in range(1, 5):
            assert theorem.words_at(d) == oracle.words_at(d)

    def test_membership_over_prime_field(self):
        from pacqa.normalform import monomial_in_ideal
        from pacqa.oracle import raw_monomial_in_ideal

        spec = build(["x"], [("a", "x", "x"), ("b", "x", "x")],
                     "anticommutative",
                     monomials=[("a", "a")], relations=[("a", "b")], char=2)
        word = ("b", "a", "a")  # rewrites to a*a*b, killed by the square
        assert monomial_in_ideal(spec, word)
        assert raw_monomial_in_ideal(spec, word)


class TestGenerationConsistency:
    """Finite generation verdicts against the oracle's saturation."""

    def test_finite_verdicts_saturate(self):
        from pacqa.fingen import center_finitely_generated, degree_generators
        specs = [two_loop_polynomial(),
                 dual_ideal(fixture_ideal("anti_four_loops_full")),
                 build(["x"], [("a", "x", "x"), ("b", "x", "x"),
                               ("c", "x", "x")], "anticommutative",
                       relations=[("a", "b"), ("a", "c"), ("b", "c")])]
        for spec in specs:
            verdict = center_finitely_generated(spec)
            if verdict.status != "finitely-generated":
                continue
            max_gen = max(len(w) for w in degree_generators(spec))
            evidence = oracle_fg_evidence(spec, 6)
            assert all(d <= max_gen for d in evidence.new_generator_degrees), \
                (spec.generator_strings(), evidence.rows)

    def test_infinite_verdicts_keep_generating(self):
        evidence = oracle_fg_evidence(
            fixture_ideal("comm_four_loops_arrow_out"), 6)
        flagged = set(evidence.new_generator_degrees)
        assert {2, 4, 6} <= flagged
        dual = dual_ideal(fixture_ideal("comm_two_loops_arrow"))
        evidence = oracle_fg_evidence(dual, 6)
        assert max(evidence.new_generator_degrees) >= 5


class TestFgEvidence:
    def test_counterexample_keeps_generating(self):
        evidence = oracle_fg_evidence(
            fixture_ideal("comm_four_loops_arrow_out"), 6)
        assert evidence.rows == ((1, 1, 1), (2, 2, 1), (3, 4, 2),
                                 (4, 7, 2), (5, 11, 2), (6, 16, 2))
        assert {2, 4, 6} <= set(evidence.new_generator_degrees)

    def test_polynomial_pair_saturates_after_degree_one(self):
        evidence = oracle_fg_evidence(two_loop_polynomial(), 6)
        assert evidence.new_generator_degrees == (1,)

    def test_trivial_center_no_generators(self):
        dual = dual_ideal(fixture_ideal("monomial_two_loops_two_arrows"))
        evidence = oracle_fg_evidence(dual, 4)
        assert evidence.new_generator_degrees == ()

    def test_saturation_matches_dense_reference(self):
        # the sparse saturation on index words against the same saturation
        # recomputed densely over the basis columns, on the fixtures and
        # random specs; only a spec past a budget is skipped
        rng, wide = random.Random(2525), random.Random("fg-multi-vertex")
        specs = [fixture_ideal(name) for name in FIXTURES]
        specs += [random_instance(rng) for _ in range(100)]
        specs += [random_multi_vertex_instance(wide) for _ in range(100)]
        compared = 0
        for spec in specs:
            try:
                evidence = oracle_fg_evidence(spec, 5)
            except BudgetError:
                continue
            assert evidence.rows == dense_saturation(spec, 5), \
                spec.generator_strings()
            compared += 1
        assert compared >= 150


def dense_saturation(spec, max_degree):
    """The rows of :func:`oracle_fg_evidence`, with every element a dense
    vector over the basis columns of its degree and products taken through
    :func:`canonical_form` on arrow names."""
    field = Field(spec.field_char)
    basis = quotient_basis_upto(spec, max_degree + 1).basis
    center = oracle_center_upto(spec, max_degree)

    def dense(d, terms):
        vec = [field.of(0)] * len(basis[d])
        for c, w in terms:
            i = basis[d].index(w)
            vec[i] = field.of(vec[i] + c)
        return vec

    def multiply(d, left, e, right):
        products = [(x * y, basis[d][i] + basis[e][j])
                    for i, x in enumerate(left) if x
                    for j, y in enumerate(right) if y]
        return dense(d + e, [
            (c * cf[0], cf[1]) for c, w in products
            if spec.quiver.composable(w[d - 1], w[d])
            and (cf := canonical_form(spec, w)) is not None])

    central = {d: [dense(d, z.terms) for z in center.degree_slice(d)]
               for d in range(1, max_degree + 1)}
    generated, rows = {}, []
    for d in range(1, max_degree + 1):
        span, kept = dense_linalg.SpanBasis(len(basis[d]), field), []
        for e in range(1, d):
            for z in central[e]:
                for h in generated[d - e]:
                    prod = multiply(e, z, d - e, h)
                    if span.add(prod):
                        kept.append(prod)
        new = [z for z in central[d] if span.add(z)]
        rows.append((d, len(central[d]), len(new)))
        generated[d] = kept + new
    return tuple(rows)


class TestCenterDenseReference:
    def test_centers_match_dense_reference(self):
        # the oracle's centralizer blocks on index words, ordinary and
        # graded, against one dense system per degree over all cycle words,
        # its products read off the reference trace; only a spec past a
        # budget is skipped
        rng = random.Random("center-dense")
        wide = random.Random("center-dense-multi-vertex")
        specs = [fixture_ideal(name) for name in FIXTURES]
        specs += [random_instance(rng) for _ in range(100)]
        specs += [random_multi_vertex_instance(wide) for _ in range(100)]
        compared, odd = 0, [0, 0]
        for spec in specs:
            try:
                centers = [oracle_center_upto(spec, 5, graded=graded)
                           for graded in (False, True)]
            except BudgetError:
                continue
            for d, columns, spans in dense_centers(spec, 5):
                for i, (center, span) in enumerate(zip(centers, spans)):
                    got = [[span.field.of(0)] * len(columns)
                           for _ in center.degree_slice(d)]
                    for vec, element in zip(got, center.degree_slice(d)):
                        for c, w in element.terms:
                            vec[columns.index(w)] = c
                    # independent, as many as the reference, inside it
                    mine = dense_linalg.SpanBasis(len(columns), span.field)
                    assert all(map(mine.add, got)) and all(
                        map(span.contains, got)) and \
                        len(got) == span.dimension, \
                        (spec.generator_strings(), d, i)
                    odd[i] += bool(got) and d % 2
            compared += 1
        # both signs meet odd-degree solutions
        print(f"centers: {compared} specs, odd-degree solutions {odd}")
        assert compared >= 200 and min(odd) >= 30, (compared, odd)


def dense_centers(spec, max_degree):
    """For each degree d: the cycle words of degree d in basis order, and
    the spans of the solutions of ``a z = s z a`` over them for s = 1 (the
    center) and s = (-1)^d (the graded center), one dense row per arrow a
    and word of degree d + 1; every product is normalised by the reference
    trace."""
    field, ctx, q = Field(spec.field_char), context_for(spec), spec.quiver
    basis = quotient_basis_upto(spec, max_degree + 1).basis
    for d in range(1, max_degree + 1):
        columns = [w for w in basis[d] if q.origin(w[0]) == q.target(w[-1])]
        products = []  # (column, row key, sign, whether a right product)
        for j, w in enumerate(columns):
            for a in q.arrow_names:
                for word, right in (((a,) + w, False), (w + (a,), True)):
                    if all(map(q.composable, word, word[1:])):
                        zero, sign, canonical = trace(ctx, ctx.encode(word))
                        if not zero:
                            products.append((j, (a, canonical), sign, right))
        spans = {}
        for s in {1, (-1) ** d}:
            rows: dict = {}
            for j, key, sign, right in products:
                row = rows.setdefault(key, [field.of(0)] * len(columns))
                row[j] = field.of(row[j] + (-s if right else 1) * sign)
            spans[s] = dense_linalg.SpanBasis(len(columns), field)
            for vec in dense_linalg.nullspace(list(rows.values()),
                                              len(columns), field):
                spans[s].add(vec)
        yield d, columns, (spans[1], spans[(-1) ** d])


class TestRawSpanMemo:
    def test_oracle_check_builds_each_degree_once(self, monkeypatch):
        # oracle-check self-checks every affordable degree and then samples
        # words for the raw membership route; both read one quotient per
        # degree, and each degree's level is lifted once from the one below
        from collections import Counter

        from pacqa import oracle
        from pacqa.cli import run

        original = oracle._lift
        for name in FIXTURES:
            built: Counter = Counter()

            def counting(spec, low, degree):
                built[degree] += 1
                return original(spec, low, degree)

            monkeypatch.setattr(oracle, "_lift", counting)
            assert run(["oracle-check", fixture_path(name),
                        "--max-degree", "6"]) == 0
            assert built, name
            assert max(built.values()) == 1, (name, built)

    def test_reads_leave_the_shared_quotient_unchanged(self, monkeypatch):
        # the memo hands every thread the same quotient, so a read may write
        # nothing: a path compression in one thread could pair a new parent
        # with a parity another thread read before.  This spec's build
        # leaves live paths two and three links below their root, with odd
        # parities between; its degree 6 has 4^6 paths
        from pacqa import oracle

        monkeypatch.setattr(oracle, "SELF_CHECK_PATH_CAP", 4 ** 6)
        spec = build(["x"], [(a, "x", "x") for a in "abce"], ANTICOMMUTATIVE,
                     relations=[("a", "b"), ("a", "e"), ("b", "c"),
                                ("c", "e")])
        quotient = oracle._raw_span(spec, 6)
        parent, odd = quotient._parent, quotient._odd
        deep = [c for c in range(len(parent))
                if parent[parent[c]] != parent[c]]
        assert deep and any(odd[c] for c in deep)
        assert any(parent[parent[parent[c]]] != parent[parent[c]]
                   for c in deep)
        before = (list(parent), list(odd))
        for c in range(len(parent)):
            quotient.signed_class(c)
            assert not quotient_contains(quotient, {c: 1})
        assert (quotient._parent, quotient._odd) == before

    def test_concurrent_first_use_gives_equal_results(self, monkeypatch):
        # eight threads race to build the same spec's levels from nothing;
        # a level is published only when complete and the first one stored
        # wins, so each thread reads a whole quotient: the dimension, the
        # zero classes and the partition of a fresh single-threaded build,
        # and the same degrees stored, with None where the levels stop
        from pacqa import oracle

        def digest(spec, degree):
            quotient = oracle._raw_span(spec, degree)
            stored = [(d, level is None)
                      for d, level in sorted(oracle._raw_levels(spec).items())]
            if quotient is None:
                return stored, None
            named = {}  # signed class -> its first column
            classes = [named.setdefault(quotient.signed_class(c), c)
                       for c in range(len(quotient._parent))]
            return stored, quotient.dimension, classes

        def loops():  # degree 7 has 5 * 4^6 paths: the cap is raised
            return build(["x", "y"], [("a", "x", "x"), ("b", "x", "x"),
                                      ("c", "x", "x"), ("d", "x", "x"),
                                      ("u", "x", "y")],
                         ANTICOMMUTATIVE, monomials=[("a", "a"), ("c", "u")],
                         relations=[("a", "b"), ("b", "c"), ("c", "d")],
                         char=3)

        def layers():  # 803 paths at degree 2: the levels stop there
            return parse_spec(layered_text(20)).ideal

        for make, degree, cap in ((loops, 7, 5 * 4 ** 6),
                                  (layers, 4, SELF_CHECK_PATH_CAP)):
            monkeypatch.setattr(oracle, "SELF_CHECK_PATH_CAP", cap)
            expected = digest(make(), degree)
            spec = make()
            results = []
            start = threading.Barrier(8, timeout=60)

            def work():
                start.wait()
                results.append(digest(spec, degree))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=work) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert results == [expected] * 8, make.__name__
        assert expected == ([(1, False), (2, True)], None)


class TestGeneratorRows:
    # raw dimensions at degrees 2..6, recorded before duplicate unit rows
    # were dropped
    RAW_DIMENSIONS = {
        "comm_two_loops_arrow": [2, 0, 0, 0, 0],
        "monomial_two_loops_two_arrows": [3, 0, 0, 0, 0],
        "anti_four_loops_free_pair": [7, 8, 8, 8, 8],
        "anti_two_loops_arrow": [4, 5, 6, 7, 8],
        "comm_four_loops_arrow_out": [12, 24, 42, 67, 100],
        "anti_four_loops_full": [5, 2, 0, 0, 0],
    }

    def test_rows_are_distinct(self):
        for name in FIXTURES:
            spec = fixture_ideal(name)
            for degree in range(2, 7):
                _, rows = generator_rows(spec, degree,
                                         Field(spec.field_char))
                keys = {frozenset(row.items()) for row in rows}
                assert len(keys) == len(rows), (name, degree)

    def test_raw_dimension_unchanged(self, monkeypatch):
        from pacqa import oracle

        # comm_four_loops_arrow_out has 4^6 + 4^5 paths at degree 6
        monkeypatch.setattr(oracle, "SELF_CHECK_PATH_CAP", 5 * 4 ** 5)
        for name in FIXTURES:
            spec = fixture_ideal(name)
            dims = [oracle._raw_span(spec, d).dimension for d in range(2, 7)]
            assert dims == self.RAW_DIMENSIONS[name], name
            algebra = quotient_basis_upto(spec, 6)
            assert dims == list(algebra.dimensions[2:]), name

    def test_quotient_matches_reference_elimination(self, monkeypatch):
        # the generator rows through generic elimination span the same
        # slice as the signed quotient: equal dimension, and equal
        # membership of every unit vector, of binomials and of sparse
        # vectors with random coefficients, on columns walked to
        from pacqa import oracle
        from pacqa.oracle import _raw_column, _raw_span

        monkeypatch.setattr(oracle, "SELF_CHECK_PATH_CAP",
                            DIFFERENTIAL_PATH_CAP)
        compared = members = 0
        for rng, spec, degree in differential_cases(5150, 60, 60):
            field = Field(spec.field_char)
            col, rows = generator_rows(spec, degree, field)
            span = SpanBasis(field)
            for row in sorted(rows, key=len):  # units first: fewer updates
                span.add(row)
            quotient = _raw_span(spec, degree)
            assert len(quotient._parent) == len(col)
            assert all(_raw_column(spec, w) == c for w, c in col.items())
            assert quotient.dimension == len(col) - span.dimension
            paths = list(col)
            vectors = [{c: field.of(1)} for c in range(len(paths))]
            for _ in range(40 if paths else 0):
                # w against an adjacent swap of itself (often a path of its
                # class) and against a random path, with both signs
                w = rng.choice(paths)
                k = rng.randrange(degree - 1)
                near = w[:k] + w[k:k + 2][::-1] + w[k + 2:]
                for other in (near, rng.choice(paths)):
                    if other in col and other != w:
                        vectors += [{col[w]: field.of(1),
                                     col[other]: field.of(sign)}
                                    for sign in (1, -1)]
                picked = rng.sample(range(len(paths)),
                                    min(len(paths), rng.randint(1, 6)))
                vectors.append({c: field.of(rng.randint(-3, 3))
                                for c in picked})
            for vec in vectors:
                member = span.contains(vec)
                assert quotient_contains(quotient, vec) == member, \
                    (spec, degree, vec)
                members += member
                compared += 1
        assert members >= 50_000 and compared - members >= 20_000, \
            (members, compared)


class TestSignedQuotient:
    @settings(max_examples=300, deadline=None)
    @given(char=st.sampled_from([0, 2, 3, 5]), size=st.integers(1, 7),
           data=st.data())
    def test_matches_elimination_on_random_rows(self, char, size, data):
        # rows x_c (d is None) or x_c - s * x_d with s = +-1, c == d
        # allowed; the quotient's dimension and the membership of every
        # unit vector and of random vectors agree with generic elimination
        from pacqa.oracle import _SignedQuotient

        field = Field(char)
        column = st.integers(0, size - 1)
        rows = data.draw(st.lists(
            st.tuples(column, st.none() | column, st.booleans()),
            max_size=2 * size))
        span = SpanBasis(field)
        quotient = _SignedQuotient(size, char)
        for c, d, odd in rows:
            vec = {c: field.of(1)}
            if d is None:
                quotient.kill(c)
            else:
                quotient.join(c, d, odd)
                vec[d] = field.of(vec.get(d, 0) + (1 if odd else -1))
            span.add(vec)
        assert quotient.dimension == size - span.dimension
        vectors = [{c: field.of(1)} for c in range(size)]
        vectors += data.draw(st.lists(st.dictionaries(
            column, st.integers(-3, 3).map(field.of)), max_size=4))
        for vec in vectors:
            assert quotient_contains(quotient, vec) == span.contains(vec), \
                vec


class TestPathCounts:
    # the raw levels gate themselves: degree d is lifted, and so
    # self-checked, iff it and every degree below it have at most
    # SELF_CHECK_PATH_CAP paths; the first degree over it is stored as None

    @staticmethod
    def lifted(spec, d):
        return all(count_paths(spec, e) <= SELF_CHECK_PATH_CAP
                   for e in range(1, d + 1))

    def test_successor_walks_match_brute_force(self):
        # random quivers on a few vertices plus an isolated one, so parallel
        # arrows, loops, sources and sinks all occur across the batch; the
        # reference list and count, the lifted levels' column walk and the
        # cap rule all follow the brute-force path list
        from pacqa.oracle import _raw_column, _raw_span

        rng = random.Random(11)
        inner = ["v0", "v1", "v2"]
        seen = set()
        walked = 0
        for _ in range(30):
            arrows = [(f"a{i}", rng.choice(inner), rng.choice(inner))
                      for i in range(rng.randint(1, 6))]
            ends = [(s, t) for _, s, t in arrows]
            starts, stops = {s for s, _ in ends}, {t for _, t in ends}
            if len(set(ends)) < len(ends):
                seen.add("parallel")
            if any(s == t for s, t in ends):
                seen.add("loop")
            if starts - stops:
                seen.add("source")
            if stops - starts:
                seen.add("sink")
            spec = build(inner + ["iso"], arrows)
            for d in range(1, 6):
                brute = [w for w in itertools.product(range(len(arrows)),
                                                      repeat=d)
                         if all(arrows[i][2] == arrows[j][1]
                                for i, j in zip(w, w[1:]))]
                assert enumerate_paths(spec, d) == brute, (arrows, d)
                assert count_paths(spec, d) == len(brute), (arrows, d)
                quotient = _raw_span(spec, d)
                assert (quotient is not None) == self.lifted(spec, d), \
                    (arrows, d)
                if quotient is None:
                    continue
                walked += 1
                assert len(quotient._parent) == len(brute)
                for c, w in enumerate(brute):
                    assert _raw_column(spec, w) == c, (arrows, w)
                for w in itertools.product(range(len(arrows)), repeat=d):
                    if w not in brute:
                        assert _raw_column(spec, w) is None, (arrows, w)
        assert seen == {"parallel", "loop", "source", "sink"}
        assert walked >= 140, walked  # of 150 (spec, degree) pairs

    def test_counts_are_computed_once_per_degree(self, monkeypatch):
        from pacqa import oracle

        spec = fixture_ideal("comm_four_loops_arrow_out")
        first = [oracle._raw_span(spec, d) for d in range(1, 7)]
        # the second pass reads the memo: with the lift out of reach, a
        # rebuild or a recount would raise
        monkeypatch.setattr(oracle, "_lift", None)
        assert [oracle._raw_span(spec, d) for d in range(1, 7)] == first
        # 5, 20, 80, 320, 1,280 and 5,120 paths against a cap of 320: the
        # levels stop at degree 5, and degree 6 is never looked at
        assert [q is not None for q in first] == [True] * 4 + [False] * 2
        levels = oracle._raw_levels(spec)
        assert sorted(levels) == [1, 2, 3, 4, 5] and levels[5] is None

    def test_saturated_decisions_match_exact_counts(self):
        # path counts may fall again past a degree over the cap: 20 * 20
        # paths x0 -> x2 die at a sink while one path a -> e runs on, so
        # degree 2 is over the cap and degree 3 under it.  The levels stop
        # at degree 2 all the same; on every spec the rule follows the
        # exact counts, asked in any order
        from pacqa.oracle import _raw_span

        arrows = [(f"p{i}", "x0", "x1") for i in range(20)]
        arrows += [(f"q{i}", "x1", "x2") for i in range(20)]
        arrows += [("r", "a", "b"), ("s", "b", "c"), ("t", "c", "e")]
        specs = [build(["x0", "x1", "x2", "a", "b", "c", "e"], arrows),
                 fixture_ideal("comm_four_loops_arrow_out")]
        rng = random.Random(12)
        specs += [random_multi_vertex_instance(rng) for _ in range(40)]
        for spec in specs:
            degrees = list(range(1, 13))
            rng.shuffle(degrees)
            for d in degrees:
                assert (_raw_span(spec, d) is not None) == \
                    self.lifted(spec, d), d
        assert [_raw_span(specs[0], d) is not None for d in (1, 2, 3, 4)] \
            == [True, False, False, False]
        assert [count_paths(specs[0], d) for d in (1, 2, 3, 4)] == \
            [43, 402, 1, 0]

    def test_deep_counts_extend_the_last_degree(self, monkeypatch):
        # four loops give 4^d paths at degree d; a basis to degree 5,000
        # lifts levels only up to the first degree over the cap, so no
        # exact path count past a million is ever summed, and nothing
        # above degree 5 is stored
        from pacqa import oracle

        def small_sum(values, start=0):
            total = sum(values, start)
            if total > 10**6:
                raise AssertionError(f"exact path count {total:.3e}")
            return total

        monkeypatch.setattr(oracle, "sum", small_sum, raising=False)
        spec = fixture_ideal("anti_four_loops_full")
        algebra = quotient_basis_upto(spec, 5000)
        assert algebra.self_checked == (1, 2, 3, 4)
        assert algebra.dimensions[:5] == (1, 4, 5, 2, 0)
        levels = oracle._raw_levels(spec)
        assert sorted(levels) == [1, 2, 3, 4, 5] and levels[5] is None

    def test_wide_layers_build_no_level_over_the_cap(self):
        # three layers of 20 parallel arrows plus a 4-arrow path: 64, 803,
        # 8,002 and 1 paths at degrees 1..4.  Degree 4 alone is small, but
        # lifting it would need the 8,002-column level below, so only
        # degree 1 is self-checked and no stored level passes the cap
        from pacqa import oracle

        spec = parse_spec(layered_text(20)).ideal
        algebra = quotient_basis_upto(spec, 4)
        assert algebra.self_checked == (1,)
        assert algebra.dimensions == (9, 64, 3, 2, 1)
        columns = [len(level[1]) for level in
                   oracle._raw_levels(spec).values() if level is not None]
        assert columns and max(columns) <= SELF_CHECK_PATH_CAP
