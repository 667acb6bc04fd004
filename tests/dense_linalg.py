"""Dense reference for :mod:`pacqa.linalg`: the list-of-lists elimination
the oracle used before its engine became sparse.

Kept only so the property tests can compare the sparse engine against it;
nothing in the package imports it.
"""
from __future__ import annotations

from typing import Sequence


def rref(rows: list[list], field) -> tuple[list[list], list[int]]:
    """In-place reduced row echelon form; returns (nonzero rows, pivot
    columns).  Deterministic: pivots scan columns left to right."""
    rows = [row for row in rows if any(row)]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        if pv != 1:
            inv = field.inv(pv)
            rows[r] = [field.of(x * inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [field.of(x - factor * y) if y else x
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def nullspace(rows: list[list], ncols: int, field) -> list[list]:
    """Basis of {x : M x = 0}, one vector per free column, in column order;
    each vector has a 1 in its free column (canonical)."""
    reduced, pivots = rref([list(r) for r in rows], field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    one = field.of(1)
    zero = field.of(0)
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for row, pc in zip(reduced, pivots):
            vec[pc] = field.of(-row[fc])
        basis.append(vec)
    return basis


class SpanBasis:
    """Row space maintained in reduced form for membership tests."""

    def __init__(self, ncols: int, field):
        self.ncols = ncols
        self.field = field
        self.rows: list[list] = []
        self.pivots: list[int] = []

    def _reduce(self, vec: Sequence) -> list:
        field = self.field
        vec = list(vec)
        for row, pc in zip(self.rows, self.pivots):
            factor = vec[pc]
            if factor:
                vec = [field.of(x - factor * y) for x, y in zip(vec, row)]
        return vec

    def add(self, vec: Sequence) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        field = self.field
        vec = self._reduce(vec)
        for c in range(self.ncols):
            if vec[c]:
                pv = vec[c]
                if pv != 1:
                    inv = field.inv(pv)
                    vec = [field.of(x * inv) for x in vec]
                for i, row in enumerate(self.rows):
                    factor = row[c]
                    if factor:
                        self.rows[i] = [field.of(x - factor * y)
                                        for x, y in zip(row, vec)]
                at = 0
                while at < len(self.pivots) and self.pivots[at] < c:
                    at += 1
                self.rows.insert(at, vec)
                self.pivots.insert(at, c)
                return True
        return False

    def contains(self, vec: Sequence) -> bool:
        return not any(self._reduce(vec))

    @property
    def dimension(self) -> int:
        return len(self.rows)
