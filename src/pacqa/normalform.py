"""Normal forms of words modulo the ideal, read off their traces.

Adjacent distinct arrows may swap exactly when the ideal relates them, and
equal arrows never swap, so the class of a word is a trace: the members are
the linearizations of its dependence order on occurrences (Cartier-Foata,
LNM 85, 1969; Anisimov-Knuth, "Inhomogeneous sorting", 1979).  The word is
zero iff some cover pair ``i < j`` of that order spells a monomial generator
(monomial generators never join related arrows); its canonical word is the
lexicographic normal form, built by taking the smallest letter among the
minimal unplaced occurrences; its sign is ``eps`` to the number of
inversions, well defined because equal arrows keep their order.  No class is
enumerated; each spec's memo keeps one normal form per queried word.  The
oracle's frontier extends canonical words by one letter with the append rule
of :func:`_extend` instead, and writes its results into the same memo.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import BudgetError, IdealError, QuiverError
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
        try:
            return tuple(self.index[a] for a in word)
        except KeyError as exc:
            raise QuiverError(f"unknown arrow {exc.args[0]!r}") from None

    def decode(self, word: Sequence[int]) -> Word:
        return tuple(self.names[i] for i in word)


@_per_ideal
def context_for(spec: IdealSpec) -> _Ctx:
    return _Ctx(spec)


def _trace(ctx: _Ctx, word: tuple[int, ...]
           ) -> tuple[bool, int, tuple[int, ...]]:
    """``(zero, sign, canonical)`` of the class of ``word``, with
    ``word == sign * canonical`` modulo the relations."""
    indep, mono_before = ctx.indep, ctx.mono_before
    at = [0] * len(ctx.names)  # arrow -> bitmask of its positions
    pred = []   # position -> earlier positions it must stay after
    below = []  # position -> all positions below it in the order
    zero = False
    for j, y in enumerate(word):
        free = 0
        for x in indep[y]:
            free |= at[x]
        p = ((1 << j) - 1) & ~free
        pred.append(p)
        under = 0
        while p:  # the covers of j, right to left
            i = p.bit_length() - 1
            if mono_before[y] >> word[i] & 1:
                zero = True
            under |= below[i] | (1 << i)
            p &= ~under
        below.append(under)
        at[y] |= 1 << j
    letters = sorted(set(word))
    left = (1 << len(word)) - 1  # unplaced positions
    canonical = []
    inversions = 0
    while left:
        for x in letters:
            m = at[x] & left
            if m:
                j = (m & -m).bit_length() - 1  # x's first unplaced occurrence
                if not pred[j] & left:
                    break
        bit = 1 << j
        left ^= bit
        inversions += (left & (bit - 1)).bit_count()
        canonical.append(x)
    return zero, ctx.eps ** (inversions & 1), tuple(canonical)


# Canonical words with their trace state ``(below, at)``: ``below[i]`` is the
# bitmask of the positions under position ``i`` in the dependence order, and
# ``at[x]`` the bitmask of the positions of arrow ``x``.
Frontier = dict[tuple[int, ...], tuple[list[int], list[int]]]


def _frontier_start(ctx: _Ctx) -> Frontier:
    """The degree-1 words, each with its trace state."""
    n = len(ctx.names)
    return {(y,): ([0], [int(x == y) for x in range(n)]) for y in range(n)}


def _extend(ctx: _Ctx, frontier: Frontier) -> Frontier:
    """The canonical words one letter longer than the surviving canonical
    words of ``frontier``, each with its trace state, by the append rule.

    Appending ``y`` to ``w`` adds one maximal occurrence whose predecessors
    are the positions of letters not related to ``y``.  Its covers are the
    predecessors minus everything below them, and ``w*y`` is zero iff a
    cover's letter ``x`` makes ``x*y`` a monomial generator (``w`` itself
    survives).  Otherwise every letter past the last predecessor commutes
    with ``y``, and the lexicographic normal form puts ``y`` before the
    first of them greater than ``y``, at ``t`` (or at the end, ``n``), after
    ``n - t`` transpositions.  The new state inserts a bit at ``t`` into
    every mask.  This is O(|w| + #arrows) per extension instead of a full
    :func:`_trace`.  Each result enters the form memo under ``w + (y,)``.
    """
    indep, mono_before, forms = ctx.indep, ctx.mono_before, ctx.forms
    grown: Frontier = {}
    for word, (below, at) in frontier.items():
        n = len(word)
        for y in ctx.after[word[-1]]:
            free = 0
            for x in indep[y]:
                free |= at[x]
            preds = ((1 << n) - 1) & ~free
            p, under, mono = preds, 0, mono_before[y]
            while p:  # the covers of the new occurrence, right to left
                i = p.bit_length() - 1
                if mono >> word[i] & 1:
                    break
                under |= below[i] | (1 << i)
                p &= ~under
            if p:
                forms[word + (y,)] = None
                continue
            t = preds.bit_length()
            while t < n and word[t] < y:
                t += 1
            canonical = word[:t] + (y,) + word[t:]
            forms[word + (y,)] = (ctx.eps ** ((n - t) & 1), canonical)
            if canonical not in grown:
                low = (1 << t) - 1
                moved = [m & low | (m & ~low) << 1 for m in at]
                moved[y] |= 1 << t
                grown[canonical] = (
                    below[:t] + [under]
                    + [m & low | (m & ~low) << 1 for m in below[t:]], moved)
    return grown


def _form(ctx: _Ctx, word: tuple[int, ...]) -> IndexForm:
    try:
        return ctx.forms[word]
    except KeyError:
        zero, sign, canonical = _trace(ctx, word)
        form = ctx.forms[word] = None if zero else (sign, canonical)
        return form


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
    """List the class of ``m`` by allowed adjacent transpositions.

    The representative is the canonical word, each member's sign is its
    inversion parity against it, and ``zero`` is set when the class lies in
    the ideal.  The class is built afresh on each call; nothing is cached.
    Past :data:`CLASS_MEMBER_CAP` members it raises :class:`BudgetError`.
    """
    word = _as_word(spec, m)
    if not word:
        raise IdealError("equivalence classes are defined for words of "
                         "degree >= 1")
    ctx = context_for(spec)
    start = ctx.encode(word)
    seen = {start}
    queue = [start]
    while queue:
        w = queue.pop()
        for i in range(len(w) - 1):
            if w[i + 1] in ctx.indep[w[i]]:
                v = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        if len(seen) > CLASS_MEMBER_CAP:
            raise BudgetError(f"class of over {CLASS_MEMBER_CAP} members")
    zero, _, canonical = _trace(ctx, start)
    members = tuple((ctx.decode(v), _trace(ctx, v)[1]) for v in sorted(seen))
    return SignedClass(ctx.decode(canonical), members, zero)


def monomial_in_ideal(spec: IdealSpec, m: Path | Sequence[str]) -> bool:
    """Ideal membership for a monomial: true iff the class of ``m`` contains
    a generator factor.  Degree-0 paths are never in a quadratic ideal."""
    word = _as_word(spec, m)
    if not word:
        return False
    ctx = context_for(spec)
    return _form(ctx, ctx.encode(word)) is None


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
    form = _form(ctx, ctx.encode(word))
    return None if form is None else (form[0], ctx.decode(form[1]))


def canonical_index_form(ctx: _Ctx, word: tuple[int, ...]) -> IndexForm:
    """Index-word variant of :func:`canonical_form` for engine hot paths."""
    return _form(ctx, word)
