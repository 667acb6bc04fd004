"""The sparse elimination engine against the dense reference it replaced.

Matrices have small integer entries, so pivots over Q are often not units;
each is tried over Q, GF(2), GF(3) and GF(5).  The dense reference takes
each row as a list, the sparse engine as a ``{column: coefficient}`` dict.
:class:`TestField` checks the field arithmetic both engines use.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_linalg
from pacqa.linalg import Field, SpanBasis, nullspace

CHARS = (0, 2, 3, 5)

matrices = st.integers(1, 7).flatmap(
    lambda ncols: st.tuples(
        st.just(ncols),
        st.lists(st.lists(st.integers(-3, 3), min_size=ncols,
                          max_size=ncols), max_size=9),
        st.lists(st.lists(st.integers(-3, 3), min_size=ncols,
                          max_size=ncols), max_size=4)))


def _in_field(field, matrix):
    return [[field.of(x) for x in row] for row in matrix]


def _sparse(row):
    return {c: x for c, x in enumerate(row) if x}


def _dense_rows(span, ncols, field):
    """The sparse engine's reduced rows (its RREF), densified, by pivot."""
    rref = span.reduced()
    return [[rref[pc].get(c, field.of(0)) for c in range(ncols)]
            for pc in sorted(rref)]


@settings(max_examples=150, deadline=None)
@given(matrices, st.sampled_from(CHARS))
def test_span_basis_matches_dense_reference(case, char):
    ncols, matrix, queries = case
    field = Field(char)
    rows = _in_field(field, matrix)
    dense = dense_linalg.SpanBasis(ncols, field)
    sparse = SpanBasis(field)
    added = [dense.add(row) for row in rows]
    assert [sparse.add(_sparse(row)) for row in rows] == added
    assert sparse.dimension == dense.dimension
    assert _dense_rows(sparse, ncols, field) == dense.rows
    # queries: arbitrary vectors, and sums of inserted rows (in the span)
    probes = _in_field(field, queries)
    for i in range(len(rows) - 1):
        probes.append([field.of(x + y) for x, y in zip(rows[i], rows[i + 1])])
    for vec in probes:
        assert sparse.contains(_sparse(vec)) == dense.contains(vec)


@settings(max_examples=150, deadline=None)
@given(matrices, st.sampled_from(CHARS), st.randoms(use_true_random=False))
def test_nullspace_matches_dense_reference(case, char, rng):
    # the basis is read off the unique RREF, so the order of the rows
    # cannot change it
    ncols, matrix, _ = case
    field = Field(char)
    rows = _in_field(field, matrix)
    shuffled = rng.sample(rows, len(rows))
    expected = dense_linalg.nullspace(rows, ncols, field)
    for order in (rows, shuffled):
        assert nullspace([_sparse(r) for r in order], ncols, field) \
            == expected


def test_wide_binomial_chain_stays_sparse():
    # e_0 - e_1, e_1 - e_2, ...: every RREF row keeps two entries, pivot
    # and the last column, however many rows precede it
    field = Field(0)
    ncols = 2_000
    span = SpanBasis(field)
    for c in range(ncols - 1):
        assert span.add({c + 1: field.of(-1), c: field.of(1)})
    assert span.dimension == ncols - 1
    assert all(len(row) == 2 for row in span.rows.values())
    assert span.contains({0: field.of(1), ncols - 1: field.of(-1)})
    assert not span.contains({0: field.of(1)})


class TestField:
    @pytest.mark.parametrize("p", [2, 3, 5, 101, 2**61 - 1])
    def test_prime_field_inverses_and_residues(self, p):
        field = Field(p)
        rng = random.Random(p)
        for a in [1, p - 1] + [rng.randrange(1, p) for _ in range(50)]:
            assert field.of(field.inv(a) * a) == 1
        for n in [-1, -p, -p - 1, -2 * p + 1] + [
                rng.randrange(-3 * p, 0) for _ in range(50)]:
            assert 0 <= field.of(n) < p
            assert field.of(field.of(n) - n) == 0

    def test_rationals(self):
        field = Field(0)
        assert all(type(field.of(n)) is Fraction for n in (-3, 0, 7))
        assert type(field.of(field.of(2) * field.of(3))) is Fraction
        assert field.inv(Fraction(-2, 3)) == Fraction(-3, 2)
