from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (FIXTURES, fixture_ideal, random_instance,
                     random_surviving_word)
from pacqa.errors import IdealError
from pacqa.normalform import (canonical_form, equivalence_class,
                              monomial_in_ideal)
from pacqa.oracle import (SELF_CHECK_PATH_CAP, count_paths,
                          quotient_basis_upto, raw_monomial_in_ideal)


def w(text: str) -> tuple[str, ...]:
    return tuple(text)


class TestEquivalenceClass:
    def test_commutative_pair(self):
        spec = fixture_ideal("comm_two_loops_arrow")
        cls = equivalence_class(spec, w("ab"))
        assert cls.as_dict() == {w("ab"): 1, w("ba"): 1}
        assert cls.representative == w("ab")
        assert not cls.zero

    def test_anticommutative_pair(self):
        spec = fixture_ideal("anti_two_loops_arrow")
        cls = equivalence_class(spec, w("ab"))
        assert cls.as_dict() == {w("ab"): 1, w("ba"): -1}

    def test_monomial_ideal_singleton(self):
        spec = fixture_ideal("monomial_two_loops_two_arrows")
        cls = equivalence_class(spec, w("ab"))
        assert cls.as_dict() == {w("ab"): 1}
        assert cls.zero  # a*b is a generator there

    def test_degree_zero_rejected(self):
        spec = fixture_ideal("comm_two_loops_arrow")
        with pytest.raises(IdealError):
            equivalence_class(spec, ())

    def test_members_share_arrow_multiset(self):
        spec = fixture_ideal("comm_four_loops_arrow_out")
        cls = equivalence_class(spec, w("acdab"))
        multiset = sorted(w("acdab"))
        for member in cls.words:
            assert sorted(member) == multiset


class TestMembership:
    def test_rewrite_reaches_square(self):
        spec = fixture_ideal("comm_two_loops_arrow")
        assert monomial_in_ideal(spec, w("bab"))  # bab ~ abb, b*b kills it

    def test_direct_factor(self):
        spec = fixture_ideal("comm_two_loops_arrow")
        assert monomial_in_ideal(spec, w("bac"))  # factor a*c

    def test_square_free_survivor(self):
        spec = fixture_ideal("anti_two_loops_arrow")
        assert not monomial_in_ideal(spec, w("aab"))

    def test_vertex_path_never_in_ideal(self):
        spec = fixture_ideal("comm_two_loops_arrow")
        assert not monomial_in_ideal(spec, ())


class TestCanonicalForm:
    def test_commutative_sign(self):
        spec = fixture_ideal("comm_two_loops_arrow")
        assert canonical_form(spec, w("ba")) == (1, w("ab"))

    def test_anticommutative_sign(self):
        spec = fixture_ideal("anti_two_loops_arrow")
        assert canonical_form(spec, w("ba")) == (-1, w("ab"))

    def test_two_transpositions_net_sign(self):
        spec = fixture_ideal("anti_two_loops_arrow")
        assert canonical_form(spec, w("abab")) == (-1, w("aabb"))

    def test_zero_class(self):
        spec = fixture_ideal("comm_two_loops_arrow")
        assert canonical_form(spec, w("bab")) is None

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=6))
    def test_canonical_is_idempotent(self, letters):
        spec = fixture_ideal("comm_four_loops_arrow_out")
        word = tuple(letters)
        cf = canonical_form(spec, word)
        if cf is None:
            return
        sign, rep = cf
        again = canonical_form(spec, rep)
        assert again == (1, rep)
        assert sign in (1, -1)


class TestBinomialMembership:
    """b - c lies in the ideal iff b ~ c (with matching sign in the
    anticommutative flavor), cross-checked against the raw span route."""

    def test_on_random_instances(self):
        rng = random.Random(1105)
        done = 0
        for _ in range(50):
            spec = random_instance(rng)
            if count_paths(spec, 3) > 300:
                continue
            from pacqa.normalform import context_for
            from pacqa.oracle import enumerate_paths
            ctx = context_for(spec)
            survivors = [ctx.decode(p) for p in enumerate_paths(spec, 3)
                         if not monomial_in_ideal(spec, ctx.decode(p))]
            if len(survivors) < 2:
                continue
            for _ in range(4):
                b = rng.choice(survivors)
                c = rng.choice(survivors)
                expected = canonical_form(spec, b) == canonical_form(spec, c)
                assert _binomial_in_ideal(spec, b, c) == expected
                done += 1
        assert done >= 20

    def test_equal_words_minus_each_other(self):
        spec = fixture_ideal("comm_four_loops_arrow_out")
        assert _binomial_in_ideal(spec, w("acd"), w("cda"))
        assert not _binomial_in_ideal(spec, w("ccd"), w("cdd"))


def _raw_contains(spec, terms) -> bool:
    """Raw span membership of ``sum coeff * word`` over ``(coeff, word)``
    terms of one degree, read from the oracle's shared per-degree span, at
    any path count."""
    from pacqa.normalform import context_for
    from pacqa.oracle import _raw_span

    ctx = context_for(spec)
    degree, = {len(word) for _, word in terms}
    col, span = _raw_span(spec, degree)
    vec: dict[int, object] = {}
    for coeff, word in terms:
        c = col[ctx.encode(word)]
        vec[c] = span.field.add(vec.get(c, span.field.of(0)),
                                span.field.of(coeff))
    return span.contains(vec)


def _binomial_in_ideal(spec, b, c) -> bool:
    """Raw span membership of the binomial b - c at its degree."""
    assert len(b) == len(c)
    return _raw_contains(spec, [(1, b), (-1, c)])


class TestSquareReduction:
    """If a^2 * rest is in the ideal while a * rest is not, the square
    itself must be a generator."""

    def test_on_random_instances(self):
        rng = random.Random(7021)
        checked = 0
        for _ in range(80):
            spec = random_instance(rng)
            loops = spec.quiver.loops
            if not loops:
                continue
            word = random_surviving_word(rng, spec, max_len=4)
            if word is None:
                continue
            a = word[0]
            if not spec.quiver.is_loop(a):
                continue
            doubled = (a,) + word
            if monomial_in_ideal(spec, doubled) \
                    and not monomial_in_ideal(spec, word):
                assert (a, a) in spec.monomial_set
                checked += 1
        assert checked >= 1


# Differential sizes: every degree 2..5 slice of up to this many paths.
# The raw route's own cap (SELF_CHECK_PATH_CAP) is lower; these tests read
# the shared span directly.
DIFFERENTIAL_PATH_CAP = 1_300


def _differential_cases(seed: int, instances: int):
    """(rng, spec, degree) over the fixtures and random instances, for every
    degree slice within the cap."""
    rng = random.Random(seed)
    specs = [fixture_ideal(name) for name in FIXTURES]
    specs += [random_instance(rng) for _ in range(instances)]
    for spec in specs:
        for degree in range(2, 6):
            if count_paths(spec, degree) <= DIFFERENTIAL_PATH_CAP:
                yield rng, spec, degree


class TestTwoRouteAgreement:
    def test_normal_form_matches_raw_span(self):
        from pacqa.normalform import context_for
        from pacqa.oracle import enumerate_paths

        agreements = 0
        largest = 0
        for rng, spec, degree in _differential_cases(90, 100):
            ctx = context_for(spec)
            paths = enumerate_paths(spec, degree)
            largest = max(largest, len(paths))
            rng.shuffle(paths)
            for word in paths[:6]:
                named = ctx.decode(word)
                expected = monomial_in_ideal(spec, named)
                assert _raw_contains(spec, [(1, named)]) == expected
                if len(paths) <= SELF_CHECK_PATH_CAP:
                    assert raw_monomial_in_ideal(spec, named) == expected
                agreements += 1
        assert agreements >= 1_000
        assert largest > 1_000

    def test_raw_dimension_matches_class_dimension(self):
        from pacqa.oracle import _raw_dimension

        compared = 0
        for _, spec, degree in _differential_cases(4242, 100):
            algebra = quotient_basis_upto(spec, degree, self_check=False)
            assert _raw_dimension(spec, degree) == algebra.dimensions[degree]
            compared += 1
        assert compared >= 300
