"""Equivalence classes of words under allowed transpositions, with signs.

An adjacent swap of two distinct arrows is allowed exactly when the pair
carries a relation.  In the anticommutative flavor each swap flips the sign;
in the commutative flavor all signs are +1.  A word lies in the ideal iff
some member of its class contains a monomial generator as a factor, so the
class computation is also the membership and canonical-form engine.

Signs are well defined: allowed transpositions only ever swap *distinct*
arrows, so the relative order of equal arrows is invariant along any rewrite
and each member word is reachable with exactly one sign.  The breadth-first
search asserts this and raises :class:`FalsificationError` if it ever sees a
conflict.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import FalsificationError, IdealError, QuiverError
from .ideal import ANTICOMMUTATIVE, IdealSpec, _per_ideal
from .quiver import Path

Word = tuple[str, ...]


class _Ctx:
    """Per-spec lookup tables and the spec's class cache (internal); one
    lives in each spec's memo, see :func:`context_for`."""

    __slots__ = ("names", "index", "compose_ok", "mono", "rel", "eps",
                 "cache")

    def __init__(self, spec: IdealSpec):
        q = spec.quiver
        self.names = q.arrow_names
        self.index = {a: i for i, a in enumerate(self.names)}
        n = len(self.names)
        self.compose_ok = [
            [q.composable(self.names[i], self.names[j]) for j in range(n)]
            for i in range(n)
        ]
        self.mono = frozenset(
            (self.index[a], self.index[b]) for a, b in spec.monomials)
        rel = set()
        for a, b in spec.relations:
            i, j = self.index[a], self.index[b]
            rel.add((i, j))
            rel.add((j, i))
        self.rel = frozenset(rel)
        self.eps = -1 if spec.flavor == ANTICOMMUTATIVE else 1
        self.cache: dict[tuple[int, ...], _ClassRec] = {}

    def encode(self, word: Sequence[str]) -> tuple[int, ...]:
        try:
            return tuple(self.index[a] for a in word)
        except KeyError as exc:
            raise QuiverError(f"unknown arrow {exc.args[0]!r}") from None

    def decode(self, word: Sequence[int]) -> Word:
        return tuple(self.names[i] for i in word)


@_per_ideal
def context_for(spec: IdealSpec) -> _Ctx:
    return _Ctx(spec)


@dataclass
class _ClassRec:
    rep: tuple[int, ...]
    signs: dict[tuple[int, ...], int]  # member -> sign relative to rep
    zero: bool


def _has_generator_factor(ctx: _Ctx, word: tuple[int, ...]) -> bool:
    mono = ctx.mono
    return any((word[i], word[i + 1]) in mono for i in range(len(word) - 1))


def _explore(ctx: _Ctx, word: tuple[int, ...]) -> _ClassRec:
    cached = ctx.cache.get(word)
    if cached is not None:
        return cached
    eps = ctx.eps
    rel = ctx.rel
    signs = {word: 1}
    zero = _has_generator_factor(ctx, word)
    queue = [word]
    while queue:
        w = queue.pop()
        s = signs[w]
        for i in range(len(w) - 1):
            x, y = w[i], w[i + 1]
            if x == y or (x, y) not in rel:
                continue
            v = w[:i] + (y, x) + w[i + 2:]
            ns = s * eps
            old = signs.get(v)
            if old is None:
                signs[v] = ns
                zero = zero or _has_generator_factor(ctx, v)
                queue.append(v)
            elif old != ns:
                raise FalsificationError(
                    "sign conflict while closing the class of "
                    f"{'*'.join(ctx.decode(word))}: two rewrite routes assign "
                    f"opposite signs to {'*'.join(ctx.decode(v))}")
    rep = min(signs)
    rebase = signs[rep]
    if rebase != 1:
        signs = {w: s * rebase for w, s in signs.items()}
    rec = _ClassRec(rep, signs, zero)
    for member in signs:
        ctx.cache[member] = rec
    return rec


def _as_word(spec: IdealSpec, m: Path | Sequence[str]) -> Word:
    if isinstance(m, Path):
        if m.quiver != spec.quiver:
            raise QuiverError("path and ideal live over different quivers")
        return m.arrows
    word = tuple(m)
    for a, b in zip(word, word[1:]):
        if not spec.quiver.composable(a, b):
            raise QuiverError(f"non-composable junction {a!r} -> {b!r}")
    return word


@dataclass(frozen=True)
class SignedClass:
    """A full equivalence class with signs relative to the representative."""

    representative: Word
    members: tuple[tuple[Word, int], ...]  # sorted by word key
    zero: bool

    @property
    def words(self) -> tuple[Word, ...]:
        return tuple(w for w, _ in self.members)

    def as_dict(self) -> Mapping[Word, int]:
        return dict(self.members)


def equivalence_class(spec: IdealSpec, m: Path | Sequence[str]) -> SignedClass:
    """Close ``m`` under allowed adjacent transpositions.

    ``zero`` is set when some member contains a monomial generator as a
    factor, i.e. when the whole class lies in the ideal.
    """
    word = _as_word(spec, m)
    if not word:
        raise IdealError("equivalence classes are defined for words of "
                         "degree >= 1")
    ctx = context_for(spec)
    rec = _explore(ctx, ctx.encode(word))
    members = tuple(
        (ctx.decode(w), s) for w, s in sorted(rec.signs.items()))
    return SignedClass(ctx.decode(rec.rep), members, rec.zero)


def monomial_in_ideal(spec: IdealSpec, m: Path | Sequence[str]) -> bool:
    """Ideal membership for a monomial: true iff the class of ``m`` contains
    a generator factor.  Degree-0 paths are never in a quadratic ideal."""
    word = _as_word(spec, m)
    if not word:
        return False
    ctx = context_for(spec)
    return _explore(ctx, ctx.encode(word)).zero


def canonical_form(spec: IdealSpec, m: Path | Sequence[str]
                   ) -> tuple[int, Word] | None:
    """``None`` when ``m`` lies in the ideal; otherwise ``(sign, word)``
    with ``word`` the lexicographically minimal class member (by arrow
    declaration order) and ``m == sign * word`` in the quotient."""
    word = _as_word(spec, m)
    if not word:
        raise IdealError("canonical forms are defined for words of "
                         "degree >= 1")
    ctx = context_for(spec)
    rec = _explore(ctx, ctx.encode(word))
    if rec.zero:
        return None
    return rec.signs[ctx.encode(word)], ctx.decode(rec.rep)


def canonical_index_form(ctx: _Ctx, word: tuple[int, ...]
                         ) -> tuple[int, tuple[int, ...]] | None:
    """Index-word variant of :func:`canonical_form` for engine hot paths."""
    rec = _explore(ctx, word)
    if rec.zero:
        return None
    return rec.signs[word], rec.rep
