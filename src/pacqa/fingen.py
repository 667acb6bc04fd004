"""Finite generation of the center.

With the orthogonal ideal admissible, the center is finitely generated iff
every clique of co-based loops, pairwise joined by relations, that satisfies
the centrality condition has each of its members satisfying it as a
singleton; :func:`pacqa.center.loop_clique_statuses` reads each clique's
status off per-vertex bitmasks.  Generators are then central arrows
(commutative flavor) or central squares plus, where an odd-size block
annihilates everything outside it, the square-free product of the block
(anticommutative flavor).
"""
from __future__ import annotations

from dataclasses import dataclass

from .center import (CliqueStatus, center_is_trivial_at, loop_clique_statuses,
                     require_hypotheses, require_loop_hypotheses)
from .errors import FalsificationError, HypothesisError
from .ideal import ANTICOMMUTATIVE, IdealSpec

Word = tuple[str, ...]

FINITELY_GENERATED = "finitely-generated"
INFINITELY_GENERATED = "infinitely-generated"
TRIVIAL = "trivial"

S_SET = "S"
S_TRIVIAL = "trivial"
S_FAIL = "fail"


@dataclass(frozen=True)
class SCondition:
    """The per-vertex necessary condition: a nonempty set of loops that
    commute by relation with every co-based loop and annihilate every
    incident non-loop arrow; ``fail`` means the local center is nontrivial
    yet no such loop exists (then the center cannot be finitely generated).
    """

    status: str
    arrows: tuple[str, ...]


@dataclass(frozen=True)
class InfiniteWitness:
    """Human-checkable witness: the clique satisfies the centrality
    condition while ``failing_member`` does not on its own, blocked by
    ``blocking_vertex`` (the rendered edge is the missing one)."""

    clique: tuple[str, ...]
    failing_member: str
    blocking_vertex: str
    missing_edge: str

    def render(self) -> str:
        return (f"clique {{{','.join(self.clique)}}} is central but member "
                f"{self.failing_member} is not: outsider "
                f"{self.blocking_vertex} blocks it (missing edge "
                f"{self.missing_edge})")


@dataclass(frozen=True)
class FinGenVerdict:
    status: str
    generators: tuple[Word, ...]
    witness: InfiniteWitness | None
    s_sets: tuple[tuple[str, SCondition], ...]
    fulfilling_cliques: tuple[tuple[str, ...], ...]


def necessary_condition_s(spec: IdealSpec, vertex: str) -> SCondition:
    """Compute the necessary-condition set at one vertex directly from the
    generator lists (independently of the clique-mask scan)."""
    require_loop_hypotheses(spec)
    triviality = center_is_trivial_at(spec, vertex)
    if triviality.trivial:
        return SCondition(S_TRIVIAL, ())
    q = spec.quiver
    loops = q.loops_at(vertex)
    incoming = [c for c in q.incidence[vertex] if q.origin(c) != vertex]
    outgoing = [d for d in q.incidence[vertex] if q.target(d) != vertex]
    chosen = []
    for a in loops:
        if not all(spec.related(a, b) for b in loops if b != a):
            continue
        if not all((c, a) in spec.monomial_set for c in incoming):
            continue
        if not all((a, d) in spec.monomial_set for d in outgoing):
            continue
        chosen.append(a)
    if chosen:
        return SCondition(S_SET, tuple(chosen))
    return SCondition(S_FAIL, ())


def _check_s_consistency(spec: IdealSpec,
                         statuses: tuple[CliqueStatus, ...],
                         s_sets: tuple[tuple[str, SCondition], ...]) -> None:
    """A loop is a central arrow (its square is central, anticommutative
    flavor) iff its singleton clique status is central; the direct
    generator scan must agree, otherwise one of the engines is wrong."""
    singleton_ok = {st.clique[0] for st in statuses
                    if len(st.clique) == 1 and st.central_ok}
    by_vertex = dict(s_sets)
    for vertex in spec.quiver.vertices:
        cond = by_vertex[vertex]
        direct = set(cond.arrows)
        scanned = {a for a in singleton_ok
                   if spec.quiver.origin(a) == vertex}
        if cond.status == S_TRIVIAL:
            if scanned:
                raise FalsificationError(
                    f"vertex {vertex}: block scan says trivial but the "
                    f"clique scan finds central loops {sorted(scanned)}")
            continue
        if direct != scanned:
            raise FalsificationError(
                f"vertex {vertex}: generator scan gives S={sorted(direct)} "
                f"but the clique scan gives {sorted(scanned)}")


def center_finitely_generated(spec: IdealSpec) -> FinGenVerdict:
    """Scan the loop cliques' statuses and decide finite generation; see
    the module docstring for the criterion."""
    require_hypotheses(spec)
    return loop_supported_verdict(spec)


def loop_supported_verdict(spec: IdealSpec) -> FinGenVerdict:
    """The clique-scan verdict for the loop-supported part of the center.

    Exposed separately from :func:`center_finitely_generated` for quivers
    with surviving multi-vertex cycles, where the loop part stays valid but
    does not account for cycle-supported central elements; callers must
    handle those separately.
    """
    require_loop_hypotheses(spec)
    statuses = loop_clique_statuses(spec)
    fulfilling = tuple(st for st in statuses if st.central_ok)
    s_sets = tuple((v, necessary_condition_s(spec, v))
                   for v in spec.quiver.vertices)
    _check_s_consistency(spec, statuses, s_sets)
    if not fulfilling:
        return FinGenVerdict(TRIVIAL, (), None, s_sets, ())
    witness = None
    singles = {st.clique[0]: st for st in statuses if len(st.clique) == 1}
    for st in fulfilling:
        if len(st.clique) == 1:
            continue
        for member in st.clique:
            single = singles[member]
            if not single.central_ok:
                witness = InfiniteWitness(
                    clique=st.clique,
                    failing_member=member,
                    blocking_vertex=single.blocker,
                    missing_edge=single.blocker_missing,
                )
                break
        if witness:
            break
    clique_names = tuple(st.clique for st in fulfilling)
    if witness is not None:
        return FinGenVerdict(INFINITELY_GENERATED, (), witness, s_sets,
                             clique_names)
    generators = _generators(spec, statuses)
    return FinGenVerdict(FINITELY_GENERATED, generators, None, s_sets,
                         clique_names)


def _generators(spec: IdealSpec, statuses: tuple[CliqueStatus, ...]
                ) -> tuple[Word, ...]:
    q = spec.quiver
    words: list[Word] = []
    if spec.flavor != ANTICOMMUTATIVE:
        for st in statuses:
            if len(st.clique) == 1 and st.central_ok:
                words.append(st.clique)
    else:
        # Squares of central loops generate the even part.  Odd-size blocks
        # that annihilate everything outside themselves additionally carry
        # odd-degree central monomials; their square-free products close the
        # generation gap (a block with no outside arrows is the basic case).
        for st in statuses:
            if len(st.clique) == 1 and st.central_ok:
                words.append((st.clique[0], st.clique[0]))
        for st in statuses:
            if st.kill_only and len(st.clique) % 2 == 1:
                words.append(st.clique)
    words.sort(key=lambda w: (len(w), q.word_key(w)))
    return tuple(words)


def degree_generators(spec: IdealSpec) -> tuple[Word, ...]:
    """Generators of the center when it is finitely generated: degree-1
    arrows in the commutative flavor, squares (plus odd block products where
    applicable) in the anticommutative flavor.  Raises on an infinitely
    generated center; a trivial center yields the empty tuple."""
    verdict = center_finitely_generated(spec)
    if verdict.status == INFINITELY_GENERATED:
        raise HypothesisError(
            "the center is infinitely generated; there is no finite "
            "generator list")
    return verdict.generators
