"""Reference for the oracle's raw quotient: the full path list, exact path
counts, and the generator rows the raw self-check fed to generic
elimination before it became a signed union-find.

One ``{column: coefficient}`` row of at most two entries per product
``p * generator * q`` over the full path list, where a path holding several
monomial generators gets its unit row once.  Fed through
:class:`pacqa.linalg.SpanBasis`, the rows span the ideal's degree slice;
the differential tests compare that span with the quotient, whose columns
follow :func:`enumerate_paths`.  Kept only for those tests; nothing in the
package imports it.
"""
from __future__ import annotations

from pacqa.ideal import IdealSpec
from pacqa.linalg import Field
from pacqa.normalform import context_for


def enumerate_paths(spec: IdealSpec, degree: int) -> list[tuple[int, ...]]:
    """All paths of the given degree as index words, lexicographically."""
    if degree == 0:
        return []
    after = context_for(spec).after
    words = [(i,) for i in range(len(after))]
    for _ in range(degree - 1):
        words = [w + (j,) for w in words for j in after[w[-1]]]
    return words


def quotient_contains(quotient, vec: dict[int, object]) -> bool:
    """Membership in the span of a raw quotient's rows: the signed sum of
    ``vec`` on every live class is zero (see ``_SignedQuotient``)."""
    field = Field(quotient.char)
    sums: dict[int, object] = {}
    for c, x in vec.items():
        root, parity = quotient._find(c)
        if not quotient._dead[root]:
            sums[root] = field.of(sums.get(root, 0) + (-x if parity else x))
    return not any(sums.values())


def count_paths(spec: IdealSpec, degree: int) -> int:
    """The exact number of paths of the given degree, by successor walks."""
    if degree == 0:
        return len(spec.quiver.vertices)
    before = context_for(spec).before
    ending = [1] * len(before)
    for _ in range(degree - 1):
        ending = [sum(ending[i] for i in into) for into in before]
    return sum(ending)


def generator_rows(spec: IdealSpec, degree: int, field
                   ) -> tuple[dict[tuple[int, ...], int], list[dict]]:
    """(column of each path, rows); the path order defines the columns."""
    ctx = context_for(spec)
    col = {w: i for i, w in enumerate(enumerate_paths(spec, degree))}
    one = field.of(1)
    minus_eps = field.of(-ctx.eps)
    pairs = ([(ctx.index[a], ctx.index[b], False) for a, b in spec.monomials]
             + [(ctx.index[a], ctx.index[b], True) for a, b in spec.relations])
    # length -> the paths of that length, with the empty word at 0
    walks = [[()]] + [enumerate_paths(spec, k) for k in range(1, degree - 1)]

    rows = []
    units = set()  # columns whose unit row is already emitted
    for i in range(degree - 1):
        for u, v, is_rel in pairs:
            for p in walks[i]:
                if p and u not in ctx.after[p[-1]]:
                    continue
                for q in walks[degree - 2 - i]:
                    if q and q[0] not in ctx.after[v]:
                        continue
                    c = col[p + (u, v) + q]
                    if is_rel:
                        # relation generator uv - eps*vu
                        rows.append({c: one, col[p + (v, u) + q]: minus_eps})
                    elif c not in units:
                        units.add(c)
                        rows.append({c: one})
    return col, rows
