"""Normal forms of words modulo the ideal, read off their traces.

Adjacent distinct arrows may swap exactly when the ideal relates them, and
equal arrows never swap, so the class of a word is a trace: the members are
the linearizations of its dependence order on occurrences (Cartier-Foata,
LNM 85, 1969).  The word is zero iff some cover pair ``i < j`` of that
order spells a monomial generator (monomial generators never join related
arrows); its canonical word is the lexicographic normal form; its sign is
``eps`` to the number of inversions, well defined because equal arrows keep
their order.  One step answers all three: appending a letter to a canonical
word with its trace state (the append rule of Anisimov-Knuth, "Inhomogeneous
sorting", 1979; :func:`_place` and :func:`_insert`).  A queried word is
folded through it letter by letter from the empty word, and the oracle's
frontier extends canonical words by one letter with it.  No class is
enumerated; each spec's memo keeps the forms of queried and frontier words.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import BudgetError, IdealError
from .ideal import IdealSpec, _per_ideal
from .quiver import Path

Word = tuple[str, ...]
IndexForm = tuple[int, tuple[int, ...]] | None  # (sign, canonical) or zero

CLASS_MEMBER_CAP = 50_000  # equivalence_class lists at most this many


class _Ctx:
    """Per-spec lookup tables and the spec's normal forms of queried words
    (internal); one lives in each spec's memo, see :func:`context_for`."""

    __slots__ = ("names", "index", "after", "before", "indep", "mono_before",
                 "eps", "forms")

    def __init__(self, spec: IdealSpec):
        q = spec.quiver
        self.names = q.arrow_names
        self.index = {a: i for i, a in enumerate(self.names)}
        leaving: dict[str, tuple[int, ...]] = dict.fromkeys(q.vertices, ())
        entering = dict(leaving)
        for i, a in enumerate(q.arrows):
            leaving[a.origin] += (i,)
            entering[a.target] += (i,)
        # arrow -> the arrows that may follow it / precede it, ascending
        self.after = [leaving[a.target] for a in q.arrows]
        self.before = [entering[a.origin] for a in q.arrows]
        # arrow -> the arrows it may swap with
        self.indep = [tuple(self.index[b] for b in self.names
                            if spec.related(a, b)) for a in self.names]
        # arrow v -> bitmask of the arrows u with u*v a monomial generator
        self.mono_before = [0] * len(self.names)
        for a, b in spec.monomials:
            self.mono_before[self.index[b]] |= 1 << self.index[a]
        self.eps = spec.relation_sign
        self.forms: dict[tuple[int, ...], IndexForm] = {}

    def encode(self, word: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.index[a] for a in word)

    def decode(self, word: Sequence[int]) -> Word:
        return tuple(self.names[i] for i in word)


@_per_ideal
def context_for(spec: IdealSpec) -> _Ctx:
    return _Ctx(spec)


# The trace state ``(below, at)`` of a canonical word: ``below[i]`` is the
# bitmask of the positions under position ``i`` in the dependence order, and
# ``at[x]`` that of the positions of arrow ``x``, for the arrows present.
State = tuple[list[int], dict[int, int]]
Frontier = dict[tuple[int, ...], State]


def _place(ctx: _Ctx, word: Sequence[int], below: list[int],
           at: dict[int, int], y: int) -> tuple[int, int] | None:
    """Append ``y`` to the surviving canonical word ``word`` with state
    ``(below, at)``: ``None`` when the product is zero, else ``(t, under)``,
    the index where ``y`` enters the new canonical word and the positions
    under it.

    The new occurrence is maximal, and its predecessors are the positions
    of letters not related to ``y``.  Its covers are the predecessors minus
    everything below them, and ``word*y`` is zero iff a cover's letter ``x``
    makes ``x*y`` a monomial generator.  Otherwise every letter past the
    last predecessor commutes with ``y``, and the lexicographic normal form
    puts ``y`` before the first of them greater than ``y``, at ``t`` (or at
    the end, ``n``), after ``n - t`` transpositions.
    """
    n = len(word)
    free = 0
    for x in ctx.indep[y]:
        free |= at.get(x, 0)
    preds = ((1 << n) - 1) & ~free
    p, under, mono = preds, 0, ctx.mono_before[y]
    while p:  # the covers of the new occurrence, right to left
        i = p.bit_length() - 1
        if mono >> word[i] & 1:
            return None
        under |= below[i] | (1 << i)
        p &= ~under
    t = preds.bit_length()
    while t < n and word[t] < y:
        t += 1
    return t, under


def _insert(below: list[int], at: dict[int, int], t: int, under: int,
            y: int) -> None:
    """Turn the state in place into that of the word with ``y`` inserted at
    index ``t`` (:func:`_place`): a mask gains a zero bit at ``t`` by adding
    its bits from ``t`` up; ``under`` and earlier positions have none."""
    below.insert(t, under)
    if t + 1 < len(below):  # at the end, no mask has a bit to move
        high = -1 << t
        for x, m in at.items():
            at[x] = m + (m & high)
        for i in range(t + 1, len(below)):
            m = below[i]
            below[i] = m + (m & high)
    at[y] = at.get(y, 0) | 1 << t


def _fold(ctx: _Ctx, word: tuple[int, ...]) -> IndexForm:
    """The form of ``word``, appended letter by letter from the empty word."""
    canonical: list[int] = []
    below: list[int] = []
    at: dict[int, int] = {}
    inversions = 0
    for y in word:
        placed = _place(ctx, canonical, below, at, y)
        if placed is None:
            return None
        t, under = placed
        inversions += len(canonical) - t
        canonical.insert(t, y)
        if len(canonical) < len(word):  # the last state is never read
            _insert(below, at, t, under, y)
    return ctx.eps ** (inversions & 1), tuple(canonical)


def _frontier_start(ctx: _Ctx) -> Frontier:
    """The degree-1 words, each with its trace state."""
    return {(y,): ([0], {y: 1}) for y in range(len(ctx.names))}


def _extend(ctx: _Ctx, frontier: Frontier) -> Frontier:
    """The canonical words one letter longer than the surviving canonical
    words of ``frontier``, each with its trace state, by the append rule.
    A state is copied only for a new canonical word.  Each result enters
    the form memo under ``w + (y,)``."""
    forms = ctx.forms
    grown: Frontier = {}
    for word, (below, at) in frontier.items():
        n = len(word)
        for y in ctx.after[word[-1]]:
            placed = _place(ctx, word, below, at, y)
            if placed is None:
                forms[word + (y,)] = None
                continue
            t, under = placed
            canonical = word[:t] + (y,) + word[t:]
            forms[word + (y,)] = (ctx.eps ** ((n - t) & 1), canonical)
            if canonical not in grown:
                grown[canonical] = state = below.copy(), dict(at)
                _insert(*state, t, under, y)
    return grown


def _form(ctx: _Ctx, word: tuple[int, ...]) -> IndexForm:
    try:
        return ctx.forms[word]
    except KeyError:
        form = ctx.forms[word] = _fold(ctx, word)
        return form


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
    """List the class of ``m`` by allowed adjacent transpositions.

    The representative is the least member, the canonical word; a member's
    sign is ``eps`` to the parity of its swaps away from it; ``zero`` is set
    when the class lies in the ideal.  Built afresh on each call, past
    :data:`CLASS_MEMBER_CAP` members it raises :class:`BudgetError`.
    """
    word = spec.quiver.word(m)
    if not word:
        raise IdealError("equivalence classes are defined for words of "
                         "degree >= 1")
    ctx = context_for(spec)
    start = ctx.encode(word)
    odd = {start: 0}  # member -> parity of its swaps away from ``start``
    queue = [start]
    while queue:
        w = queue.pop()
        for i in range(len(w) - 1):
            if w[i + 1] in ctx.indep[w[i]]:
                v = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                if v not in odd:
                    odd[v] = odd[w] ^ 1
                    queue.append(v)
        if len(odd) > CLASS_MEMBER_CAP:
            raise BudgetError(f"class of over {CLASS_MEMBER_CAP} members")
    rep = min(odd)
    members = tuple((ctx.decode(v), ctx.eps ** (odd[v] ^ odd[rep]))
                    for v in sorted(odd))
    return SignedClass(ctx.decode(rep), members, _fold(ctx, start) is None)


def monomial_in_ideal(spec: IdealSpec, m: Path | Sequence[str]) -> bool:
    """Ideal membership for a monomial: true iff the class of ``m`` contains
    a generator factor.  Degree-0 paths are never in a quadratic ideal."""
    word = spec.quiver.word(m)
    if not word:
        return False
    ctx = context_for(spec)
    return _form(ctx, ctx.encode(word)) is None


def canonical_form(spec: IdealSpec, m: Path | Sequence[str]
                   ) -> tuple[int, Word] | None:
    """``None`` when ``m`` lies in the ideal; otherwise ``(sign, word)``
    with ``word`` the lexicographically minimal class member (by arrow
    declaration order) and ``m == sign * word`` in the quotient."""
    word = spec.quiver.word(m)
    if not word:
        raise IdealError("canonical forms are defined for words of "
                         "degree >= 1")
    ctx = context_for(spec)
    form = _form(ctx, ctx.encode(word))
    return None if form is None else (form[0], ctx.decode(form[1]))


def canonical_index_form(ctx: _Ctx, word: tuple[int, ...]) -> IndexForm:
    """Index-word variant of :func:`canonical_form` for engine hot paths."""
    return _form(ctx, word)
