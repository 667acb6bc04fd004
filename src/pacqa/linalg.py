"""Small sparse exact linear algebra over Q or a prime field.

A row space kept in row echelon form for span-membership queries, reduced
once when a nullspace reads it: the oracle's centralizer blocks and its
finite-generation evidence, whose rows have many terms (the raw self-check's
rows have at most two, and it uses a signed union-find instead).  Rows are
``{column: coefficient}`` dicts; columns are ints or, in the evidence,
canonical index words of one degree, ordered as the basis orders them.
One :class:`Field` type covers both cases: elements are Python numbers (Fractions in characteristic 0, ints in
``[0, p)`` otherwise), combined with ``+``, ``-`` and ``*`` and brought back
into the field by :meth:`Field.of`; zero is the only falsy element.
"""
from __future__ import annotations

from fractions import Fraction


class Field:
    """Q (``char`` 0) or GF(p) (``char`` p)."""

    def __init__(self, char: int):
        self.char = char

    def of(self, x):
        """An int, or a sum, difference or product of elements, as an
        element: ``Fraction(x)`` over Q, ``x % p`` over GF(p)."""
        return x % self.char if self.char else Fraction(x)

    def inv(self, x):
        """The inverse of a nonzero element."""
        return pow(x, -1, self.char) if self.char else 1 / x


class SpanBasis:
    """Row space kept in row echelon form for membership tests.

    ``rows`` maps each pivot column to its row: the pivot entry is 1 and it
    is the row's leftmost entry.  A new row is reduced against the older
    pivots only, so an insertion rewrites no stored row; :meth:`reduced`
    back-substitutes once, into the unique RREF of the span.
    """

    def __init__(self, field: Field):
        self.field = field
        self.rows: dict[int, dict] = {}

    def _reduce(self, vec: dict) -> dict:
        """The nonzero entries of ``vec`` minus its part in the span."""
        rows = self.rows
        out = {c: x for c, x in vec.items() if x}
        # a row has entries only right of its pivot, so clearing the
        # leftmost pivot entry first clears each one for good
        while pivots := [c for c in out if c in rows]:
            pc = min(pivots)
            self._subtract(out, out.pop(pc), rows[pc], pc)
        return out

    def _subtract(self, target: dict, factor, row: dict, skip: int) -> None:
        """``target -= factor * row`` outside column ``skip``; zeros go."""
        of = self.field.of
        for c, y in row.items():
            if c != skip:
                if x := of(target.get(c, 0) - factor * y):
                    target[c] = x
                else:
                    del target[c]

    def add(self, vec: dict) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        vec = self._reduce(vec)
        if not vec:
            return False
        field = self.field
        pc = min(vec)
        if vec[pc] != 1:
            inv = field.inv(vec[pc])
            vec = {c: field.of(x * inv) for c, x in vec.items()}
        self.rows[pc] = vec
        return True

    def contains(self, vec: dict) -> bool:
        return not self._reduce(vec)

    def reduced(self) -> dict[int, dict]:
        """``rows``, brought in place to the unique RREF of the span: from
        the last pivot leftwards, each row clears its entries at later
        pivots, whose rows are already reduced, so one pass per row
        suffices."""
        rows = self.rows
        for pc in sorted(rows, reverse=True):
            row = rows[pc]
            for c in [c for c in row if c in rows and c != pc]:
                self._subtract(row, row.pop(c), rows[c], c)
        return rows

    @property
    def dimension(self) -> int:
        return len(self.rows)


def nullspace(rows: list[dict], ncols: int, field: Field) -> list[list]:
    """Basis of {x : M x = 0}, one vector per free column, in column order;
    each vector has a 1 in its free column (canonical)."""
    span = SpanBasis(field)
    for row in rows:
        span.add(row)
    rref = span.reduced()
    zero, one = field.of(0), field.of(1)
    basis: dict[int, list] = {}
    for fc in range(ncols):
        if fc not in rref:
            basis[fc] = [zero] * ncols
            basis[fc][fc] = one
    for pc, row in rref.items():
        for c, x in row.items():
            if c != pc:
                basis[c][pc] = field.of(-x)
    return list(basis.values())
