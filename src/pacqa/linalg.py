"""Small sparse exact linear algebra over Q or a prime field.

A row space kept in reduced row echelon form for span-membership queries,
and nullspaces read from it: the oracle's centralizer blocks and its
finite-generation evidence, whose rows have many terms (the raw self-check's
rows have at most two, and it uses a signed union-find instead).  Rows are
``{column: coefficient}`` dicts of nonzero entries (dense sequences are
accepted too); entries stay exact (Fractions in characteristic 0, ints mod
p otherwise).
"""
from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping, Sequence
from fractions import Fraction

_Vector = Mapping[int, object] | Sequence


class Rationals:
    char = 0

    @staticmethod
    def of(n: int) -> Fraction:
        return Fraction(n)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def div(a, b):
        return a / b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def is_zero(a) -> bool:
        return a == 0


class PrimeField:
    def __init__(self, p: int):
        self.char = p

    def of(self, n: int) -> int:
        return n % self.char

    def add(self, a, b):
        return (a + b) % self.char

    def sub(self, a, b):
        return (a - b) % self.char

    def mul(self, a, b):
        return (a * b) % self.char

    def div(self, a, b):
        return (a * pow(b, self.char - 2, self.char)) % self.char

    def neg(self, a):
        return (-a) % self.char

    @staticmethod
    def is_zero(a) -> bool:
        return a == 0


def field_for(char: int):
    return Rationals() if char == 0 else PrimeField(char)


class SpanBasis:
    """Row space kept in reduced row echelon form for membership tests.

    ``rows`` maps each pivot column to its row: the pivot entry is 1, it is
    the row's leftmost entry, and every other entry sits in a non-pivot
    column.  Sorted by pivot, the rows are the unique RREF of the span.
    ``_holders`` maps each non-pivot column to the pivots of the rows with
    an entry there, so an insertion touches only the rows it changes.
    """

    def __init__(self, field):
        self.field = field
        self.rows: dict[int, dict] = {}
        self._holders: defaultdict[int, set[int]] = defaultdict(set)

    def _reduce(self, vec: _Vector) -> dict:
        """The nonzero entries of ``vec`` minus its part in the span."""
        field = self.field
        # plain dicts, the common case, skip the slower abc instance check
        items = (vec.items() if type(vec) is dict or isinstance(vec, Mapping)
                 else enumerate(vec))
        out = {c: x for c, x in items if not field.is_zero(x)}
        # a stored row is zero at every other pivot, so one pass suffices
        for pc in [c for c in out if c in self.rows]:
            self._subtract(out, out.pop(pc), self.rows[pc], pc)
        return out

    def _subtract(self, target: dict, factor, row: dict, skip: int) -> None:
        """``target -= factor * row`` outside column ``skip``; zeros go."""
        field = self.field
        for c, y in row.items():
            if c != skip:
                x = field.sub(target.get(c, 0), field.mul(factor, y))
                if field.is_zero(x):
                    del target[c]
                else:
                    target[c] = x

    def add(self, vec: _Vector) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        vec = self._reduce(vec)
        if not vec:
            return False
        field = self.field
        pc = min(vec)
        if vec[pc] != field.of(1):
            inv = field.div(field.of(1), vec[pc])
            vec = {c: field.mul(x, inv) for c, x in vec.items()}
        holders = self._holders
        for r in holders.pop(pc, ()):
            row = self.rows[r]
            self._subtract(row, row.pop(pc), vec, pc)
            for c in vec:
                if c in row:
                    holders[c].add(r)
                elif c != pc:
                    holders[c].discard(r)
        for c in vec:
            if c != pc:
                holders[c].add(pc)
        self.rows[pc] = vec
        return True

    def contains(self, vec: _Vector) -> bool:
        return not self._reduce(vec)

    @property
    def dimension(self) -> int:
        return len(self.rows)


def nullspace(rows: list[_Vector], ncols: int, field) -> list[list]:
    """Basis of {x : M x = 0}, one vector per free column, in column order;
    each vector has a 1 in its free column (canonical)."""
    span = SpanBasis(field)
    for row in rows:
        span.add(row)
    zero, one = field.of(0), field.of(1)
    basis = []
    for fc in range(ncols):
        if fc in span.rows:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for pc in span._holders.get(fc, ()):
            vec[pc] = field.neg(span.rows[pc][fc])
        basis.append(vec)
    return basis
