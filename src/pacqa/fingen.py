"""Finite generation of the center.

With the orthogonal ideal admissible, the center is finitely generated iff
every clique of co-based loops, pairwise joined by relations, that satisfies
the centrality condition has each of its members satisfying it as a
singleton; :func:`pacqa.center.loop_clique_statuses` reads each clique's
status off per-vertex bitmasks.  Generators are then central arrows
(commutative flavor) or central squares plus, where an odd-size block
annihilates everything outside it, the square-free product of the block
(anticommutative flavor).  The per-vertex facts, a trivial local center and
the necessary-condition set S, are read off the same statuses.
"""
from __future__ import annotations

from dataclasses import dataclass

from .center import (CliqueStatus, loop_clique_statuses, require_hypotheses,
                     require_loop_hypotheses)
from .errors import HypothesisError, IdealError
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
    """The necessary-condition set at one vertex, read off the loop-clique
    statuses as :func:`loop_supported_verdict` reads it."""
    require_loop_hypotheses(spec)
    if vertex not in spec.quiver.vertices:
        raise IdealError(f"unknown vertex {vertex!r}")
    return dict(_s_sets(spec, loop_clique_statuses(spec)))[vertex]


def _s_sets(spec: IdealSpec, statuses: tuple[CliqueStatus, ...]
            ) -> tuple[tuple[str, SCondition], ...]:
    """The necessary condition at every vertex: ``trivial`` when no clique
    based there is central, else S is the loops whose singleton clique is
    central (in arrow order, as the statuses are sorted), ``fail`` if none.

    Under the loop hypotheses this is the set the generator lists give
    directly.  The singleton {a} is central iff every other arrow at its
    vertex is related to a or annihilated by a in both directions.  An
    incoming non-loop c has a*c = 0 by endpoints, so it needs c*a to be a
    generator; an outgoing non-loop d symmetrically needs a*d.  Another loop
    b needs to be related to a, or both a*b and b*a to be generators; the
    latter is a 2-cycle in the ideal's generator graph, which is the
    generator graph of orthogonal(orthogonal(I)), and an admissible
    orthogonal ideal excludes it.
    """
    central: dict[str, list[str]] = {}
    for st in statuses:
        if st.central_ok:
            loops = central.setdefault(st.basepoint, [])
            if len(st.clique) == 1:
                loops.append(st.clique[0])
    out = []
    for v in spec.quiver.vertices:
        if v not in central:
            cond = SCondition(S_TRIVIAL, ())
        elif central[v]:
            cond = SCondition(S_SET, tuple(central[v]))
        else:
            cond = SCondition(S_FAIL, ())
        out.append((v, cond))
    return tuple(out)


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
    s_sets = _s_sets(spec, statuses)
    if not fulfilling:
        return FinGenVerdict(TRIVIAL, (), None, s_sets, ())
    singles = {st.clique[0]: st for st in statuses if len(st.clique) == 1}
    witness = next((InfiniteWitness(st.clique, member,
                                    singles[member].blocker,
                                    singles[member].blocker_missing)
                    for st in fulfilling for member in st.clique
                    if not singles[member].central_ok), None)
    clique_names = tuple(st.clique for st in fulfilling)
    if witness is not None:
        return FinGenVerdict(INFINITELY_GENERATED, (), witness, s_sets,
                             clique_names)
    generators = _generators(spec, statuses, s_sets)
    return FinGenVerdict(FINITELY_GENERATED, generators, None, s_sets,
                         clique_names)


def _generators(spec: IdealSpec, statuses: tuple[CliqueStatus, ...],
                s_sets: tuple[tuple[str, SCondition], ...]
                ) -> tuple[Word, ...]:
    """The loops of the S sets (commutative flavor), or their squares plus
    the square-free product of every odd-size block that annihilates
    everything outside itself (anticommutative flavor): such blocks carry
    odd-degree central monomials, which the squares do not generate."""
    anti = spec.flavor == ANTICOMMUTATIVE
    words = [(a, a) if anti else (a,) for _, cond in s_sets
             for a in cond.arrows]
    if anti:
        words += [st.clique for st in statuses
                  if st.kill_only and len(st.clique) % 2 == 1]
    words.sort(key=lambda w: (len(w), spec.quiver.word_key(w)))
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
