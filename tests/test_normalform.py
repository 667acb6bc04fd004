from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfs_reference import BfsReference, ClassTooLarge
from helpers import (DIFFERENTIAL_PATH_CAP, FIXTURES, build,
                     differential_cases, fixture_ideal, random_instance,
                     random_multi_vertex_instance, random_surviving_word)
from pacqa.errors import BudgetError, IdealError
from pacqa.ideal import ANTICOMMUTATIVE, COMMUTATIVE
from pacqa.normalform import (CLASS_MEMBER_CAP, _extend, _frontier_start,
                              canonical_form, canonical_index_form,
                              context_for, equivalence_class,
                              monomial_in_ideal)
from pacqa.oracle import quotient_basis_upto, raw_monomial_in_ideal
from raw_rows_reference import count_paths, enumerate_paths, quotient_contains
from trace_reference import trace


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

    def test_members_canonicalize_to_representative(self):
        rng = random.Random(3303)
        specs = [fixture_ideal(name) for name in FIXTURES]
        specs += [random_instance(rng) for _ in range(30)]
        checked = 0
        for spec in specs:
            for _ in range(25):
                word = random_surviving_word(rng, spec, max_len=7)
                if word is None:
                    continue
                cls = equivalence_class(spec, word)
                assert not cls.zero
                for member, sign in cls.members:
                    assert canonical_form(spec, member) == (
                        sign, cls.representative)
                    checked += 1
        assert checked >= 1_000

    def test_zero_class_signs_match_reference(self):
        # the members and signs of every class, zero or not, against the
        # breadth-first closure
        rng = random.Random("zero-class-signs")
        specs = [fixture_ideal(name) for name in FIXTURES]
        specs += [random_instance(rng) for _ in range(120)]
        specs += [random_multi_vertex_instance(rng) for _ in range(60)]
        zero = negative = 0
        for spec in specs:
            ctx, ref = context_for(spec), BfsReference(spec, limit=500)
            for _ in range(30):
                word = random_index_word(rng, ctx, rng.randint(2, 7))
                if word is None:
                    continue
                try:
                    rep, signs, is_zero = ref.closure(word)
                except ClassTooLarge:
                    continue
                cls = equivalence_class(spec, ctx.decode(word))
                assert (cls.zero, cls.representative) == (
                    is_zero, ctx.decode(rep)), (spec, ctx.decode(word))
                assert cls.as_dict() == {ctx.decode(v): sign
                                         for v, sign in signs.items()}
                zero += is_zero
                negative += is_zero and -1 in signs.values()
        assert zero >= 2_500 and negative >= 150


class TestClassBudget:
    def test_huge_class_raises_promptly(self):
        names = [f"l{i}" for i in range(8)]
        spec = build(["x"], [(a, "x", "x") for a in names], COMMUTATIVE,
                     relations=[(a, b) for i, a in enumerate(names)
                                for b in names[i + 1:]])
        # 10!/(2!2!) = 907,200 members
        big = tuple(reversed(names)) + ("l7", "l6")
        start = time.process_time()
        with pytest.raises(BudgetError):
            equivalence_class(spec, big)
        assert time.process_time() - start < 5.0
        # the cap itself is reachable: 8! = 40,320 members
        assert len(equivalence_class(spec, names).members) == 40_320
        assert 40_320 <= CLASS_MEMBER_CAP


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
    terms of one degree, read from the oracle's shared per-degree raw
    quotient; past ``SELF_CHECK_PATH_CAP`` paths the caller raises it."""
    from pacqa.linalg import Field
    from pacqa.normalform import context_for
    from pacqa.oracle import _raw_column, _raw_span

    ctx = context_for(spec)
    degree, = {len(word) for _, word in terms}
    span = _raw_span(spec, degree)
    field = Field(span.char)
    vec: dict[int, object] = {}
    for coeff, word in terms:
        c = _raw_column(spec, ctx.encode(word))
        vec[c] = field.of(vec.get(c, 0) + coeff)
    return quotient_contains(span, vec)


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


class TestTwoRouteAgreement:
    # both tests read raw quotients of up to DIFFERENTIAL_PATH_CAP paths at
    # every degree they lift, so they raise the oracle's own cap to it

    def test_normal_form_matches_raw_span(self, monkeypatch):
        from pacqa import oracle
        from pacqa.normalform import context_for

        monkeypatch.setattr(oracle, "SELF_CHECK_PATH_CAP",
                            DIFFERENTIAL_PATH_CAP)
        agreements = 0
        largest = 0
        for rng, spec, degree in differential_cases(90, 100, 100):
            ctx = context_for(spec)
            paths = enumerate_paths(spec, degree)
            largest = max(largest, len(paths))
            rng.shuffle(paths)
            for word in paths[:6]:
                named = ctx.decode(word)
                expected = monomial_in_ideal(spec, named)
                assert _raw_contains(spec, [(1, named)]) == expected
                assert raw_monomial_in_ideal(spec, named) == expected
                agreements += 1
        assert agreements >= 1_000
        assert largest > 1_000
        assert largest > 4_000  # degree 6 on four loops: 4,096 paths

    def test_raw_dimension_matches_class_dimension(self, monkeypatch):
        from pacqa import oracle

        monkeypatch.setattr(oracle, "SELF_CHECK_PATH_CAP",
                            DIFFERENTIAL_PATH_CAP)
        compared = 0
        for _, spec, degree in differential_cases(4242, 100, 100):
            algebra = quotient_basis_upto(spec, degree)
            assert (oracle._raw_span(spec, degree).dimension
                    == algebra.dimensions[degree])
            compared += 1
        assert compared >= 300


def loop_family(rng: random.Random, k: int, flavor: str):
    """``k`` loops at one vertex, every pair related except a seeded set of
    dropped pairs that carry one or both monomials instead; some squares
    are generators."""
    names = [f"l{i}" for i in range(k)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    rng.shuffle(pairs)
    drop = rng.randint(0, k)
    monomials = {(a, a) for a in names if rng.random() < 0.3}
    for a, b in pairs[:drop]:
        monomials.add((a, b) if rng.random() < 0.5 else (b, a))
        if rng.random() < 0.3:
            monomials |= {(a, b), (b, a)}
    return build(["x"], [(a, "x", "x") for a in names], flavor,
                 monomials=sorted(monomials), relations=pairs[drop:])


def random_index_word(rng: random.Random, ctx, degree: int):
    """A random composable index word of ``degree``, drawn mostly from a
    random sub-alphabet so classes of every size occur; None on a dead
    end."""
    n = len(ctx.names)
    alphabet = rng.sample(range(n), rng.randint(1, n))
    word = [rng.choice(alphabet)]
    while len(word) < degree:
        nxt = ctx.after[word[-1]]
        if not nxt:
            return None
        inside = [j for j in nxt if j in alphabet]
        word.append(rng.choice(inside or nxt))
    return tuple(word)


class TestTraceAgainstBfsReference:
    """The trace normal form against the breadth-first class closure, on
    random words of degree 1-12: zero test, canonical word and sign."""

    def test_random_words(self):
        rng = random.Random(2024)
        specs = [fixture_ideal(name) for name in FIXTURES]
        specs += [random_instance(rng) for _ in range(40)]
        specs += [loop_family(rng, k, flavor) for k in range(4, 9)
                  for flavor in (COMMUTATIVE, ANTICOMMUTATIVE)
                  for _ in range(3)]
        per_degree, zero, negative, too_large = compare_random_words(
            rng, specs, 12_000)
        assert sum(per_degree) >= 10_000
        assert min(per_degree[1:]) >= 500
        assert zero >= 2_000 and negative >= 200
        assert too_large <= 1_000

    def test_multi_vertex_words(self):
        rng = random.Random("trace-vs-bfs-multi-vertex")
        specs = [random_multi_vertex_instance(rng) for _ in range(200)]
        per_degree, zero, _, too_large = compare_random_words(
            rng, specs, 12_000)
        # few of these words repeat a related loop pair, so signs are
        # almost all +1 here; the loop families above carry the signs
        assert sum(per_degree) >= 10_000
        assert min(per_degree[1:]) >= 800
        assert zero >= 5_000 and sum(per_degree) - zero >= 3_000
        assert too_large <= 100


def compare_random_words(rng, specs, draws):
    """Check ``draws`` random words of degree 1-12 over ``specs`` against
    the breadth-first closure; return ``(words per degree, zero, negative,
    classes too large for the reference)``."""
    refs = [BfsReference(spec, limit=500) for spec in specs]
    per_degree = [0] * 13
    zero = negative = too_large = 0
    for _ in range(draws):
        pick = rng.randrange(len(specs))
        spec, ctx = specs[pick], context_for(specs[pick])
        degree = rng.randint(1, 12)
        word = random_index_word(rng, ctx, degree)
        if word is None:
            continue
        try:
            expected = refs[pick].form(word)
        except ClassTooLarge:
            too_large += 1
            continue
        assert canonical_index_form(ctx, word) == expected, \
            (spec, ctx.decode(word))
        assert monomial_in_ideal(spec, ctx.decode(word)) == (
            expected is None)
        per_degree[degree] += 1
        zero += expected is None
        negative += expected is not None and expected[0] == -1
    return per_degree, zero, negative, too_large


def trace_state(ctx, word):
    """``(below, at)`` of ``word``, built position by position from scratch
    as :func:`trace_reference.trace` does, with ``at`` over the arrows the
    word contains only."""
    at = {}
    below = []
    for j, y in enumerate(word):
        free = 0
        for x in ctx.indep[y]:
            free |= at.get(x, 0)
        p = ((1 << j) - 1) & ~free
        under = 0
        while p:
            i = p.bit_length() - 1
            under |= below[i] | (1 << i)
            p &= ~under
        below.append(under)
        at[y] = at.get(y, 0) | 1 << j
    return below, at


# Frontier words per degree past which a spec stops growing in the test.
APPEND_FRONTIER_CAP = 400


class TestAppendRuleAgainstTrace:
    """Every frontier extension ``w + (y,)`` that the append rule writes
    into the memo against a full :func:`trace_reference.trace` of the same
    word (zero flag, canonical word and sign), and every carried state
    against one rebuilt from the canonical word, at degrees up to 10."""

    def test_every_frontier_extension(self):
        rng = random.Random(5150)
        specs = [fixture_ideal(name) for name in FIXTURES]
        specs += [random_instance(rng) for _ in range(220)]
        specs += [loop_family(rng, k, flavor) for k in range(4, 9)
                  for flavor in (COMMUTATIVE, ANTICOMMUTATIVE)
                  for _ in range(2)]
        wide = random.Random("append-rule-multi-vertex")
        specs += [random_multi_vertex_instance(wide) for _ in range(100)]
        extensions = zero = negative = moved = 0
        deepest = 0
        for spec in specs:
            ctx = context_for(spec)
            frontier = _frontier_start(ctx)
            for degree in range(2, 11):
                if not frontier or len(frontier) > APPEND_FRONTIER_CAP:
                    break
                grown = _extend(ctx, frontier)
                expected = set()
                for word in frontier:
                    for y in ctx.after[word[-1]]:
                        key = word + (y,)
                        is_zero, sign, canonical = trace(ctx, key)
                        assert ctx.forms[key] == (
                            None if is_zero else (sign, canonical)), \
                            (spec, ctx.decode(key))
                        if not is_zero:
                            expected.add(canonical)
                        extensions += 1
                        zero += is_zero
                        negative += not is_zero and sign == -1
                        moved += not is_zero and canonical != key
                assert set(grown) == expected
                for word, state in grown.items():
                    assert state == trace_state(ctx, word), ctx.decode(word)
                deepest = max(deepest, degree)
                frontier = grown
        assert extensions >= 100_000
        assert zero >= 10_000 and negative >= 5_000 and moved >= 10_000
        assert deepest == 10


class TestFormMemo:
    """The memo keeps one entry per distinct queried word, whatever the
    size of its class."""

    def test_one_entry_per_queried_word(self):
        names = [f"l{i}" for i in range(8)]
        spec = build(["x"], [(a, "x", "x") for a in names], COMMUTATIVE,
                     relations=[(a, b) for i, a in enumerate(names)
                                for b in names[i + 1:]])
        forms = context_for(spec).forms
        # 8 distinct letters, two of them twice: 10!/(2!2!) = 907,200
        # members in the class
        big = tuple(reversed(names)) + ("l7", "l6")
        assert canonical_form(spec, big) == (1, tuple(sorted(big)))
        assert not monomial_in_ideal(spec, big)
        assert len(forms) == 1
        rng = random.Random(40)
        long = [a for a in names for _ in range(5)]
        rng.shuffle(long)
        long = tuple(long)
        assert canonical_form(spec, long) == (1, tuple(sorted(long)))
        assert canonical_form(spec, long) == (1, tuple(sorted(long)))
        assert len(forms) == 2
        assert canonical_form(spec, sorted(long)) == (1, tuple(sorted(long)))
        assert len(forms) == 3
