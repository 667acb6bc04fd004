"""Independent normal forms for words modulo a partly (anti-)commutative
quadratic ideal, by trace-monoid combinatorics.

Two letters are independent when the ideal relates them; every other pair
(equal letters included) keeps its order.  The occurrences of a word then
form a partial order, and

* the word is zero iff some monomial generator ``u*v`` occurs as a cover
  pair ``i < j`` of that order (only then can the two occurrences be made
  adjacent);
* otherwise its canonical word is the lexicographic normal form: repeatedly
  take the smallest letter among the minimal occurrences;
* its sign is ``eps`` raised to the number of occurrence pairs whose order
  differs between the word and the canonical word.

References: Cartier and Foata, *Problèmes combinatoires de commutation et
réarrangements*, LNM 85 (1969); Anisimov and Knuth, "Inhomogeneous
sorting" (1979).  The benchmark checks pacqa's class engine against this,
so the check does not come from the engine under test.
"""
from __future__ import annotations

from dataclasses import dataclass

Word = tuple[str, ...]


@dataclass(frozen=True)
class TraceIdeal:
    order: dict            # arrow name -> declaration index
    independent: frozenset  # frozenset({a, b}) for each relation
    monomials: frozenset   # (a, b) monomial generators
    eps: int               # +1 commutative, -1 anticommutative

    @classmethod
    def from_lists(cls, names, relations, monomials, anti: bool):
        return cls({a: i for i, a in enumerate(names)},
                   frozenset(frozenset(p) for p in relations),
                   frozenset(tuple(p) for p in monomials),
                   -1 if anti else 1)

    def _dependent(self, a: str, b: str) -> bool:
        return a == b or frozenset((a, b)) not in self.independent

    def normal_form(self, word: Word) -> tuple[int, Word] | None:
        """``None`` when ``word`` is zero, else ``(sign, canonical word)``."""
        n = len(word)
        above = [set() for _ in range(n)]  # occurrences forced after i
        for i in range(n - 1, -1, -1):
            for j in range(i + 1, n):
                if self._dependent(word[i], word[j]):
                    above[i].add(j)
                    above[i] |= above[j]
        for i in range(n):
            for j in above[i]:
                if (word[i], word[j]) in self.monomials and not any(
                        j in above[k] for k in above[i]):
                    return None
        below = [sum(1 for i in range(n) if j in above[i]) for j in range(n)]
        placed: list[int] = []
        ready = [j for j in range(n) if below[j] == 0]
        while ready:
            pick = min(ready, key=lambda j: self.order[word[j]])
            ready.remove(pick)
            placed.append(pick)
            for j in range(n):
                if j in above[pick] and all(
                        i in placed for i in range(n) if j in above[i]):
                    if j not in ready and j not in placed:
                        ready.append(j)
        inversions = sum(1 for x in range(n) for y in range(x + 1, n)
                         if placed[x] > placed[y])
        sign = self.eps ** inversions
        return sign, tuple(word[j] for j in placed)
