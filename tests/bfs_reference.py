"""Reference for :mod:`pacqa.normalform`: the breadth-first class closure
the engine used before it read normal forms off traces.

It closes a word's class under allowed adjacent transpositions, takes the
minimal member as the representative and checks on the way that no member
is reached with two signs.  Nothing is cached, and a class larger than
``limit`` members raises :class:`ClassTooLarge`, so the cost of one call is
bounded.  Kept only so the differential tests can compare the engine
against it; nothing in the package imports it.
"""
from __future__ import annotations

from pacqa.errors import FalsificationError
from pacqa.ideal import ANTICOMMUTATIVE, IdealSpec


class ClassTooLarge(Exception):
    """The class has more members than the reference may enumerate."""


class BfsReference:
    def __init__(self, spec: IdealSpec, limit: int = 2_000):
        index = {a: i for i, a in enumerate(spec.quiver.arrow_names)}
        self.mono = frozenset((index[a], index[b]) for a, b in spec.monomials)
        self.rel = frozenset(p for a, b in spec.relations
                             for p in ((index[a], index[b]),
                                       (index[b], index[a])))
        self.eps = -1 if spec.flavor == ANTICOMMUTATIVE else 1
        self.limit = limit

    def _has_generator_factor(self, word: tuple[int, ...]) -> bool:
        return any((word[i], word[i + 1]) in self.mono
                   for i in range(len(word) - 1))

    def closure(self, word: tuple[int, ...]
                ) -> tuple[tuple[int, ...], dict[tuple[int, ...], int], bool]:
        """``(representative, member -> sign relative to it, zero)``."""
        signs = {word: 1}
        zero = self._has_generator_factor(word)
        queue = [word]
        while queue:
            w = queue.pop()
            s = signs[w]
            for i in range(len(w) - 1):
                x, y = w[i], w[i + 1]
                if x == y or (x, y) not in self.rel:
                    continue
                v = w[:i] + (y, x) + w[i + 2:]
                ns = s * self.eps
                old = signs.get(v)
                if old is None:
                    if len(signs) == self.limit:
                        raise ClassTooLarge(len(word))
                    signs[v] = ns
                    zero = zero or self._has_generator_factor(v)
                    queue.append(v)
                elif old != ns:
                    raise FalsificationError(
                        f"sign conflict while closing the class of {word}: "
                        f"two rewrite routes assign opposite signs to {v}")
        rep = min(signs)
        rebase = signs[rep]
        return rep, {w: s * rebase for w, s in signs.items()}, zero

    def form(self, word: tuple[int, ...]
             ) -> tuple[int, tuple[int, ...]] | None:
        """What ``canonical_index_form`` must return for ``word``."""
        rep, signs, zero = self.closure(word)
        return None if zero else (signs[word], rep)
