from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

from helpers import build, fixture_ideal, two_loop_polynomial
from pacqa.errors import IdealError
from pacqa.ideal import (ANTICOMMUTATIVE, COMMUTATIVE,
                         composable_pairs, contains_all_nonzero_squares,
                         is_square_free, opposite_ideal, orthogonal, restrict)
from pacqa.oracle import quotient_basis_upto

EX1_ARROWS = [("a", "x", "x"), ("b", "x", "x"), ("c", "x", "y")]


class TestValidate:
    def test_two_loops_arrow_fixture(self):
        spec = fixture_ideal("comm_two_loops_arrow")
        assert spec.flavor == COMMUTATIVE
        assert spec.monomials == (("a", "a"), ("a", "c"), ("b", "b"))
        assert spec.relations == (("a", "b"),)

    def test_redundant_pair_normalized(self):
        literal = build(["x", "y"], EX1_ARROWS, COMMUTATIVE,
                        monomials=[("a", "b")], relations=[("a", "b")])
        assert literal.relations == ()
        assert literal.monomials == (("a", "b"), ("b", "a"))
        assert literal.normalization_notes
        # same ideal degreewise as writing both monomials directly
        direct = build(["x", "y"], EX1_ARROWS, COMMUTATIVE,
                       monomials=[("a", "b"), ("b", "a")])
        lit_alg = quotient_basis_upto(literal, 4)
        dir_alg = quotient_basis_upto(direct, 4)
        assert lit_alg.basis == dir_alg.basis

    def test_dropped_relation_noted_once(self):
        # both monomials hit the relation; the note names the pair once
        spec = build(["x", "y"], EX1_ARROWS, COMMUTATIVE,
                     monomials=[("a", "b"), ("b", "a")],
                     relations=[("a", "b")])
        assert spec.relations == ()
        assert spec.normalization_notes == (
            "relation a--b dropped: both a*b and b*a are monomial "
            "generators",)

    def test_relation_needs_co_based_loops(self):
        with pytest.raises(IdealError):
            build(["x", "y"], EX1_ARROWS, COMMUTATIVE,
                  relations=[("a", "c")])

    def test_relation_with_itself_rejected(self):
        with pytest.raises(IdealError):
            build(["x", "y"], EX1_ARROWS, COMMUTATIVE,
                  relations=[("a", "a")])

    def test_non_composable_monomial_rejected(self):
        with pytest.raises(IdealError):
            build(["x", "y"], EX1_ARROWS, COMMUTATIVE,
                  monomials=[("c", "a")])

    def test_char_must_be_prime_or_zero(self):
        with pytest.raises(IdealError):
            build(["x"], [("a", "x", "x")], COMMUTATIVE, char=4)

    def test_primality_is_exact_below_the_bound(self):
        from pacqa.ideal import MAX_FIELD_CHAR, _is_prime
        sieve = [True] * 5000
        sieve[0] = sieve[1] = False
        for i in range(2, 5000):
            if sieve[i]:
                sieve[i * i::i] = [False] * len(sieve[i * i::i])
        assert [_is_prime(n) for n in range(5000)] == sieve
        # the least strong pseudoprime to the bases 2..37, a product of two
        # primes, and the 25-digit prime 10^24 + 7
        assert not _is_prime(318665857834031151167461)
        assert not _is_prime(999999999989 * 1000000000039)
        assert _is_prime(10**24 + 7)
        with pytest.raises(IdealError, match="below"):
            build(["x"], [("a", "x", "x")], COMMUTATIVE, char=MAX_FIELD_CHAR)

    def test_char_two_folds_flavor(self):
        spec = build(["x"], [("a", "x", "x"), ("b", "x", "x")],
                     ANTICOMMUTATIVE, relations=[("a", "b")], char=2)
        assert spec.flavor == COMMUTATIVE
        assert any("characteristic 2" in n for n in spec.normalization_notes)


class TestOrthogonal:
    def test_two_loops_arrow(self):
        orth = orthogonal(fixture_ideal("comm_two_loops_arrow"))
        assert orth.flavor == ANTICOMMUTATIVE
        assert orth.monomials == (("b", "c"),)
        assert orth.relations == (("a", "b"),)
        assert orth.convention_squares == ()

    def test_monomial_fixture(self):
        orth = orthogonal(fixture_ideal("monomial_two_loops_two_arrows"))
        assert orth.monomials == (("a", "c"), ("d", "b"), ("d", "c"))
        assert orth.relations == ()

    def test_free_pair_fixture(self):
        orth = orthogonal(fixture_ideal("anti_four_loops_free_pair"))
        assert orth.flavor == COMMUTATIVE
        assert orth.monomials == (("c", "d"), ("d", "c"))
        assert orth.relations == (("a", "b"), ("a", "c"), ("a", "d"),
                                  ("b", "c"), ("b", "d"))

    def test_square_free_anti_dualizes_back(self):
        # orthogonal of <ab+ba, bc> recovers <a*a, b*b, ab-ba, a*c>
        cen = fixture_ideal("anti_two_loops_arrow")
        orth = orthogonal(cen)
        assert orth == fixture_ideal("comm_two_loops_arrow")
        assert orth.convention_squares == ("a", "b")

    def test_involution_on_fixtures(self):
        from helpers import FIXTURES
        for name in FIXTURES:
            spec = fixture_ideal(name)
            assert orthogonal(orthogonal(spec)) == spec

    def test_length_two_trichotomy(self):
        from helpers import FIXTURES
        for name in FIXTURES:
            spec = fixture_ideal(name)
            orth = orthogonal(spec)
            for a, b in composable_pairs(spec.quiver):
                hits = [(a, b) in spec.monomial_set,
                        (a, b) in orth.monomial_set,
                        spec.related(a, b)]
                assert sum(hits) == 1, (name, a, b, hits)

    def test_free_loop_square_convention(self):
        spec = build(["x"], [("a", "x", "x")], COMMUTATIVE)
        orth = orthogonal(spec)
        assert orth.monomials == (("a", "a"),)
        assert orth.convention_squares == ("a",)


class TestRestrict:
    def test_everything_touches_x(self):
        spec = fixture_ideal("comm_two_loops_arrow")
        at_x = restrict(spec, "x")
        assert at_x.monomials == spec.monomials
        assert at_x.relations == spec.relations

    def test_only_connecting_arrow_at_y(self):
        spec = fixture_ideal("comm_two_loops_arrow")
        at_y = restrict(spec, "y")
        assert at_y.monomials == ()
        assert at_y.relations == ()
        assert at_y.quiver.arrow_names == ("c",)

    def test_counterexample_at_y_empty(self):
        spec = fixture_ideal("comm_four_loops_arrow_out")
        at_y = restrict(spec, "y")
        assert at_y.monomials == () and at_y.relations == ()


class TestOppositeIdeal:
    def test_words_reversed(self):
        op = opposite_ideal(fixture_ideal("comm_two_loops_arrow"))
        assert op.monomials == (("a°", "a°"),
                                ("b°", "b°"),
                                ("c°", "a°"))
        assert op.relations == (("a°", "b°"),)

    def test_relation_only(self):
        spec = two_loop_polynomial()
        op = opposite_ideal(spec)
        assert op.monomials == ()
        assert op.relations == (("a°", "b°"),)

    def test_monomial_fixture_reversed(self):
        spec = fixture_ideal("monomial_two_loops_two_arrows")
        op = opposite_ideal(spec)
        expected = sorted(
            (b + "°", a + "°") for a, b in spec.monomials)
        assert sorted(op.monomials) == expected


class TestSquarePredicates:
    def test_is_square_free(self):
        assert not is_square_free(fixture_ideal("comm_two_loops_arrow"))
        assert is_square_free(fixture_ideal("anti_two_loops_arrow"))
        assert is_square_free(fixture_ideal("comm_four_loops_arrow_out"))

    def test_contains_all_nonzero_squares(self):
        assert contains_all_nonzero_squares(
            fixture_ideal("anti_four_loops_free_pair"))
        assert not contains_all_nonzero_squares(
            fixture_ideal("comm_four_loops_arrow_out"))
        no_loops = build(["x", "y"], [("c", "x", "y")], COMMUTATIVE)
        assert contains_all_nonzero_squares(no_loops)

    def test_admissible_implies_orthogonal_square_free(self):
        from helpers import FIXTURES
        from pacqa.graphs import is_admissible
        for name in FIXTURES:
            spec = fixture_ideal(name)
            if is_admissible(spec).admissible:
                assert is_square_free(orthogonal(spec)), name


class TestPerIdealMemo:
    def test_computes_once_per_spec_and_none_is_a_hit(self):
        from pacqa.ideal import _per_ideal
        calls = []

        @_per_ideal
        def probe(spec):
            calls.append(spec)
            return None

        spec = fixture_ideal("comm_two_loops_arrow")
        assert probe(spec) is None
        assert probe(spec) is None
        assert len(calls) == 1
        # an equal but distinct spec has a memo of its own
        probe(fixture_ideal("comm_two_loops_arrow"))
        assert len(calls) == 2
        assert orthogonal(spec) is orthogonal(spec)

    def test_memo_is_freed_with_the_spec(self):
        from pacqa.center import central_monomials_upto
        from pacqa.normalform import canonical_form
        spec = fixture_ideal("anti_two_loops_arrow")
        ref = weakref.ref(spec)
        central_monomials_upto(spec, 4)
        canonical_form(spec, ("a", "b"))
        del spec
        gc.collect()
        assert ref() is None

    def test_concurrent_first_use_gives_equal_results(self):
        from pacqa.center import central_monomials_upto
        expected = central_monomials_upto(
            fixture_ideal("anti_two_loops_arrow"), 6)
        spec = fixture_ideal("anti_two_loops_arrow")
        results = []

        def work():
            results.append(central_monomials_upto(spec, 6))

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
        assert results == [expected] * 8
