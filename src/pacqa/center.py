"""Central monomials of a partly (anti-)commutative quiver algebra.

For a square-free ideal the positive part of the center has a monomial
basis.  In the commutative flavor a monomial is central iff its support is a
clique of loops at one vertex and every other arrow either extends the
clique or is annihilated by it in both directions; only arrows at that
vertex can fail, so statuses are read off bitmasks over them.  In the
anticommutative flavor the same support condition applies, with parity on
top: even-degree central monomials carry every arrow an even number of
times, odd-degree ones carry every arrow an odd number of times and need
*every* outside arrow annihilated in both directions (an outside arrow that
merely anti-commutes with the block blocks odd degrees).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import partial, reduce
from heapq import merge
from itertools import combinations_with_replacement, groupby
from operator import itemgetter, or_
from typing import Iterator, Sequence

from .errors import FalsificationError, HypothesisError, IdealError
from .graphs import fold_cliques, is_admissible
from .ideal import (ANTICOMMUTATIVE, IdealSpec, _per_ideal, is_square_free,
                    orthogonal)
from .normalform import canonical_form, canonical_index_form, context_for
from .quiver import Path, multi_vertex_cycles

Word = tuple[str, ...]

DEFAULT_MAX_DEGREE = 8


@dataclass(frozen=True)
class CenterElement:
    """One basis element: a signed combination of canonical words.  Theorem
    mode always produces monomials (a single +1 term)."""

    terms: tuple[tuple[int, Word], ...]
    basepoint: str | None

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1 and self.terms[0][0] == 1

    @property
    def word(self) -> Word:
        if not self.is_monomial:
            raise ValueError("not a monomial element")
        return self.terms[0][1]

    def render(self) -> str:
        parts = []
        for coeff, word in self.terms:
            text = "*".join(word)
            if coeff == 1:
                parts.append(("+ " if parts else "") + text)
            elif coeff == -1:
                parts.append("- " + text)
            else:
                parts.append(f"{'+' if coeff > 0 else '-'} {abs(coeff)}*{text}")
        return " ".join(parts)


@dataclass(frozen=True)
class CenterBasis:
    flavor: str
    max_degree: int
    provenance: str  # 'theorem' | 'oracle'
    by_degree: tuple[tuple[int, tuple[CenterElement, ...]], ...]
    identity_components: int
    notes: tuple[str, ...] = ()

    def degree_slice(self, degree: int) -> tuple[CenterElement, ...]:
        for d, elements in self.by_degree:
            if d == degree:
                return elements
        return ()

    def words_at(self, degree: int) -> tuple[Word, ...]:
        return tuple(e.word for e in self.degree_slice(degree))

    def all_monomial_words(self) -> tuple[Word, ...]:
        out = []
        for _, elements in self.by_degree:
            out.extend(e.word for e in elements)
        return tuple(out)

    @property
    def is_monomial(self) -> bool:
        return all(e.is_monomial
                   for _, elements in self.by_degree for e in elements)


@_per_ideal
def cycle_survivors(spec: IdealSpec) -> tuple[Word | None, Word | None]:
    """One pass over the simple multi-vertex cycles: the first rotation that
    survives modulo the ideal, and the first cycle all of whose rotations
    survive (wrap-alive), each ``None`` if there is none.

    Relations join distinct loops at one vertex only, so none applies to a
    word of non-loop arrows: its class is the word itself, and it lies in
    the ideal iff two adjacent letters spell a monomial generator.  The
    adjacent pairs of a rotation are the cyclic pairs except its wrap pair.
    So a rotation survives iff every generator pair is its wrap pair: the
    cycle has a surviving rotation iff at most one cyclic pair is a
    generator, and then the rotation starting right after that pair (or the
    cycle itself, if there is none) is the first survivor by shift.  Every
    rotation survives, and the cycle is wrap-alive, iff none is.

    A surviving cycle word can carry central elements that are not products
    of loops (for the 2-cycle quiver with the zero ideal, ``cd + dc`` is
    central), so the loop-clique machinery refuses these quivers and defers
    to the oracle.
    """
    surviving = None
    for cycle in multi_vertex_cycles(spec.quiver):
        dead = [i for i, pair in enumerate(zip(cycle, cycle[1:] + cycle[:1]))
                if pair in spec.monomial_set]
        if not dead:
            return surviving or cycle, cycle
        if len(dead) == 1 and surviving is None:
            surviving = cycle[dead[0] + 1:] + cycle[:dead[0] + 1]
    return surviving, None


def hypothesis_report(spec: IdealSpec) -> dict[str, bool]:
    """The three theorem-mode conditions, as the ``--json`` report prints
    them."""
    return {
        "square_free": is_square_free(spec),
        "orthogonal_admissible": is_admissible(orthogonal(spec)).admissible,
        "loop_supported": cycle_survivors(spec)[0] is None,
    }


def require_loop_hypotheses(spec: IdealSpec) -> None:
    """Square-free plus admissible orthogonal: the preconditions for the
    loop-clique characterizations on loop-supported components."""
    if not is_square_free(spec):
        raise HypothesisError(
            "ideal is not square-free: the monomial characterization of the "
            "center does not apply; use the oracle")
    verdict = is_admissible(orthogonal(spec))
    if not verdict.admissible:
        raise HypothesisError(
            "orthogonal ideal is not admissible (generator graph of the "
            "ideal has the directed cycle " + " -> ".join(verdict.cycle)
            + "); theorem mode refused, use the oracle")


def require_hypotheses(spec: IdealSpec) -> None:
    """The loop hypotheses, and no multi-vertex cycle surviving modulo the
    ideal: the preconditions for the whole center."""
    require_loop_hypotheses(spec)
    survivor = cycle_survivors(spec)[0]
    if survivor is not None:
        raise HypothesisError(
            "a multi-vertex cycle survives modulo the ideal ("
            + "*".join(survivor)
            + "); central elements need not be products of loops there, so "
            "theorem mode is refused: use the oracle")


@dataclass(frozen=True)
class CliqueStatus:
    """Outcome of the outside-arrow scan for one clique of loops.

    ``central_ok`` is the extend-or-annihilate condition (centrality of
    monomials over this support; in the anticommutative flavor this governs
    even degrees).  ``kill_only`` is the stronger all-annihilated condition
    required at odd degrees in the anticommutative flavor.
    """

    clique: tuple[str, ...]
    basepoint: str
    central_ok: bool
    kill_only: bool
    blocker: str | None  # first outsider failing extend-or-annihilate
    blocker_missing: str | None  # rendered missing edge
    extender: str | None  # first outsider passing only via extension


def _loop_masks(spec: IdealSpec, vertex: str, loops: Sequence[str]
                ) -> tuple[tuple[str, ...], dict[int, tuple[int, ...]]]:
    """The arrows at ``vertex``, and for each of ``loops`` its index among
    them with four bitmasks over them: the loop ``c`` itself, the ``b`` with
    ``c*b = 0``, the ``b`` with ``b*c = 0`` (by endpoints or a generator) and
    the ``b`` not related to ``c``.  ORed over a clique's members they give
    its members, ``into``, ``back`` and ``apart`` (the others extend it)."""
    q = spec.quiver
    arrows = q.incidence[vertex]
    ends = [q.arrow(b) for b in arrows]
    enter = sum(1 << i for i, b in enumerate(ends) if b.origin != vertex)
    leave = sum(1 << i for i, b in enumerate(ends) if b.target != vertex)
    mono, related = spec.monomial_set, spec.relation_set
    rows = {}
    for c in loops:
        after, before, apart = enter, leave, 0
        for i, b in enumerate(arrows):
            if (c, b) in mono:
                after |= 1 << i
            if (b, c) in mono:
                before |= 1 << i
            if (c, b) not in related:
                apart |= 1 << i
        k = arrows.index(c)
        rows[k] = 1 << k, after, before, apart
    return arrows, rows


def _grow(rows: dict[int, tuple[int, ...]], state: Sequence[int], k: int
          ) -> tuple[int, ...]:
    return tuple(map(or_, state, rows[k]))


def _status(arrows: Sequence[str], vertex: str, clique: tuple[str, ...],
            members: int, into: int, back: int, apart: int) -> CliqueStatus:
    live = ((1 << len(arrows)) - 1) & ~(members | into & back)
    failing, extending = live & apart, live & ~apart
    blocker = missing = extender = None
    if failing:
        low = failing & -failing
        blocker = arrows[low.bit_length() - 1]
        block = "{" + ",".join(clique) + "}"
        missing = (f"{blocker} -> {block}" if into & low
                   else f"{block} -> {blocker}")
    if extending:
        extender = arrows[(extending & -extending).bit_length() - 1]
    return CliqueStatus(clique, vertex, not failing, not live, blocker,
                        missing, extender)


@_per_ideal
def loop_clique_statuses(spec: IdealSpec) -> tuple[CliqueStatus, ...]:
    """Status of every clique of loops in the relation graph, in
    deterministic (size, vertex list) order.  Relations join only co-based
    loops, and only arrows at a clique's vertex can fail to be annihilated,
    so each vertex is scanned on its own, masks folded down the cliques.
    The scan yields a vertex's cliques of one size in lexicographic order,
    so each size's runs, one per vertex, are merged rather than sorted."""
    runs: dict[int, dict[str, list[CliqueStatus]]] = {}  # size -> vertex
    for v in spec.quiver.vertices:
        arrows, rows = _loop_masks(spec, v, spec.quiver.loops_at(v))
        adjacency = [~rows[k][3] if k in rows else 0
                     for k in range(len(arrows))]
        for members, state in fold_cliques(
                adjacency, sum(row[0] for row in rows.values()),
                partial(_grow, rows), (0, 0, 0, 0)):
            clique = tuple(arrows[k] for k in members)
            runs.setdefault(len(clique), {}).setdefault(v, []).append(
                _status(arrows, v, clique, *state))
    return tuple(st for size in sorted(runs) for st in merge(
        *runs[size].values(),
        key=lambda st: spec.quiver.word_key(st.clique)))


@dataclass(frozen=True)
class Centrality:
    central: bool
    reason: str


def is_central_monomial(spec: IdealSpec, m: Path | Sequence[str]) -> Centrality:
    """Decide centrality of a monomial from the masks of its support."""
    q = spec.quiver
    word = q.word(m)
    require_hypotheses(spec)
    if not word:
        raise IdealError("centrality is decided for words of degree >= 1")
    ctx = context_for(spec)
    if canonical_index_form(ctx, ctx.encode(word)) is None:
        return Centrality(False, "the monomial is zero in the quotient")
    support = sorted(set(word), key=q.arrow_index)
    base = {q.origin(a) for a in support} | {q.target(a) for a in support}
    if len(base) != 1:
        return Centrality(False, "not a product of loops at one vertex")
    for i, a in enumerate(support):
        for b in support[i + 1:]:
            if not spec.related(a, b):
                return Centrality(
                    False, f"support is not a clique: {a} and {b} do not "
                           "commute by a relation")
    vertex = base.pop()
    arrows, rows = _loop_masks(spec, vertex, support)
    state = reduce(partial(_grow, rows), rows, (0, 0, 0, 0))
    status = _status(arrows, vertex, tuple(support), *state)
    anti, odd = spec.flavor == ANTICOMMUTATIVE, len(word) % 2
    if anti and any(c % 2 != odd for c in Counter(word).values()):
        return Centrality(False, ("even-degree word with an odd multiplicity",
                                  "odd-degree word with an even "
                                  "multiplicity")[odd])
    if anti and odd:
        if status.kill_only:
            return Centrality(True, "odd multiplicities over a clique that "
                                    "annihilates every other arrow both ways")
        who = status.extender or status.blocker
        return Centrality(
            False, f"odd degree requires every outside arrow annihilated "
                   f"both ways, but {who} is not")
    if status.central_ok:
        return Centrality(True, (
            "even multiplicities over a clique that extends or annihilates "
            "every other arrow" if anti else
            "support clique extends or annihilates every other arrow"))
    return Centrality(
        False, f"outside arrow {status.blocker} neither extends the "
               f"clique nor is annihilated (missing "
               f"{status.blocker_missing})")


def _central_words(spec: IdealSpec, degrees: range
                   ) -> Iterator[tuple[int, CenterElement]]:
    """Each of ``degrees`` in turn: its central canonical monomials, sorted
    by arrow order, each checked to survive as it is yielded."""
    statuses = [st for st in loop_clique_statuses(spec) if st.central_ok]
    if not statuses:  # then no degree has a central word
        return
    anti = spec.flavor == ANTICOMMUTATIVE
    for d in degrees:
        words: list[tuple[Word, str]] = []
        # a central word over a clique C holds each member `least` times plus
        # `step` copies of each letter of a multiset of size
        # (d - least*|C|)/step: any multiplicities (commutative), even ones at
        # even degree, odd ones at odd degree over blocks that annihilate
        # every outsider
        least, step = (2 - d % 2, 2) if anti else (1, 1)
        for st in statuses:
            spare, odd = divmod(d - least * len(st.clique), step)
            if (st.kill_only if anti and d % 2 else st.central_ok) \
                    and spare >= 0 and not odd:
                for extra in combinations_with_replacement(st.clique, spare):
                    words.append((tuple(sorted(
                        st.clique * least + extra * step,
                        key=st.clique.index)), st.basepoint))
        words.sort(key=lambda pair: spec.quiver.word_key(pair[0]))
        for word, basepoint in words:
            if canonical_form(spec, word) is None:
                raise FalsificationError(
                    f"claimed central monomial {'*'.join(word)} is zero in "
                    "the quotient")
            yield d, CenterElement(((1, word),), basepoint)


def _center_basis(spec: IdealSpec, max_degree: int, step: int
                  ) -> CenterBasis:
    """The central monomials of degrees step, 2*step, ... <= max_degree."""
    require_hypotheses(spec)
    notes: list[str] = []
    if spec.flavor == ANTICOMMUTATIVE:
        for st in loop_clique_statuses(spec):
            if st.central_ok and not st.kill_only and len(st.clique) % 2 == 1:
                notes.append(
                    "odd-degree-exclusion: odd-degree products over the "
                    f"block {{{','.join(st.clique)}}} are not central "
                    f"although even-degree ones are; outside arrow "
                    f"{st.extender} "
                    "(anti-)commutes with the block instead of annihilating "
                    "it, and odd degree requires two-sided annihilation")
    stream = _central_words(spec, range(step, max_degree + 1, step))
    return CenterBasis(
        flavor=spec.flavor,
        max_degree=max_degree,
        provenance="theorem",
        by_degree=tuple((d, tuple(e for _, e in group))
                        for d, group in groupby(stream, key=itemgetter(0))),
        identity_components=len(spec.quiver.connected_components),
        notes=tuple(notes),
    )


def central_monomials_upto(spec: IdealSpec,
                           max_degree: int = DEFAULT_MAX_DEGREE
                           ) -> CenterBasis:
    """All central canonical monomials of degree 1..max_degree, grouped by
    degree and sorted by arrow order; complete for square-free ideals."""
    return _center_basis(spec, max_degree, 1)


@dataclass(frozen=True)
class TrivialityResult:
    trivial: bool
    vertex: str
    block: tuple[str, ...] | None
    scanned: tuple[tuple[tuple[str, ...], str], ...]  # (block, failure)


def center_is_trivial_at(spec: IdealSpec, vertex: str) -> TrivialityResult:
    """Per-vertex triviality: the center based at ``vertex`` is nontrivial
    iff some commutating block there (a clique of co-based loops) has every
    other arrow either joining the block or annihilated by it in both
    directions.  The witness is the first such block; on the trivial side
    the scan of every block with its failure is returned.

    This decides the loop-supported part; on quivers with surviving
    multi-vertex cycles the center may contain further cycle-supported
    elements not based at any single block."""
    if not is_square_free(spec):
        raise HypothesisError(
            "triviality by blocks requires a square-free ideal")
    q = spec.quiver
    if vertex not in q.vertices:
        raise IdealError(f"unknown vertex {vertex!r}")
    scanned: list[tuple[tuple[str, ...], str]] = []
    for st in loop_clique_statuses(spec):
        if st.basepoint != vertex:
            continue
        if st.central_ok:
            return TrivialityResult(False, vertex, st.clique, tuple(scanned))
        scanned.append(
            (st.clique,
             f"arrow {st.blocker} neither joins the block nor is "
             f"annihilated (missing {st.blocker_missing})"))
    return TrivialityResult(True, vertex, None, tuple(scanned))


def even_center_upto(spec: IdealSpec,
                     max_degree: int = DEFAULT_MAX_DEGREE) -> CenterBasis:
    """The even-degree slice of the center, built on even degrees only."""
    return _center_basis(spec, max_degree, 2)


def graded_center_upto(spec: IdealSpec,
                       max_degree: int = DEFAULT_MAX_DEGREE) -> CenterBasis:
    """The graded center, of the z of degree d with ``a z = (-1)^d z a`` for
    every arrow a: the center in characteristic 2, where the sign is 1, and
    otherwise, under the theorem hypotheses, the even-degree center."""
    if spec.field_char == 2:
        return central_monomials_upto(spec, max_degree)
    even = even_center_upto(spec, max_degree)
    if next(_central_words(spec, range(1, max_degree + 1, 2)), None) is None:
        even = replace(even, notes=even.notes + (
            f"no odd-degree central monomials up to degree {max_degree}: "
            "the even-degree center equals the full center in this range",))
    return even
