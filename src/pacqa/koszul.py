"""Koszul duals and the Hochschild finite-generation verdict.

The dual presentation of an admissible (anti-)commutativity ideal is the
orthogonal of the reversed ideal over the opposite quiver; the flavor flips.
For a Koszul algebra, the Hochschild cohomology ring modulo nilpotents is
finitely generated exactly when the center of the dual is, which the clique
engine decides; Koszulity itself is an input assertion except for purely
monomial ideals, which are Koszul automatically.

Dual quivers may contain directed cycles through several vertices (the dual
of a quiver with a back-and-forth arrow pair does).  Cycle-supported central
elements live outside the loop-clique machinery, so for such duals the
verdict combines the loop-supported clique scan with an exact oracle sweep
of the cycle-supported blocks: a simple cycle whose every rotation pair
survives spawns a polynomial family of central "necklace" elements (sums
over surviving rotations); a vanishing wrap pair caps each family at its
first member, which the bounded sweep then finds or rules out.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .center import (DEFAULT_MAX_DEGREE, _generator_pairs,
                     surviving_multi_vertex_cycle)
from .errors import FalsificationError, HypothesisError
from .fingen import (FINITELY_GENERATED, INFINITELY_GENERATED, TRIVIAL,
                     FinGenVerdict, loop_supported_verdict)
from .graphs import is_admissible
from .ideal import (KOSZUL_AUTO, KOSZUL_UNKNOWN, AlgebraPresentation,
                    IdealSpec, is_square_free, opposite_ideal, orthogonal)
from .quiver import multi_vertex_cycles

HH_FG = "finitely-generated"
HH_INF = "infinitely-generated"
HH_UNDECIDED = "undecided"

EVIDENCE_CHAIN = (
    "Hochschild cohomology mod nilpotents of a Koszul algebra is the graded "
    "center of the dual mod nilpotents",
    "for a square-free ideal the graded center is the even-degree center, "
    "which has no nilpotents",
    "the even-degree center of the dual is finitely generated iff the full "
    "center of the dual is",
)


def dual_ideal(spec: IdealSpec) -> IdealSpec:
    return orthogonal(opposite_ideal(spec))


def koszul_dual(pres: AlgebraPresentation) -> AlgebraPresentation:
    """The dual presentation; requires the ideal to be admissible."""
    verdict = is_admissible(pres.ideal)
    if not verdict.admissible:
        raise HypothesisError(
            "the ideal is not admissible (" + verdict.witness_text()
            + "); the Koszul dual construction needs an admissible ideal")
    dual = dual_ideal(pres.ideal)
    if not is_square_free(dual):
        raise FalsificationError(
            "the dual of an admissible ideal must be square-free")
    if not dual.relations:
        marker = KOSZUL_AUTO
    else:
        marker = pres.koszul
    return AlgebraPresentation(dual, marker)


@dataclass(frozen=True)
class HochschildVerdict:
    status: str
    trivial: bool
    koszul: str
    dual: AlgebraPresentation
    dual_verdict: FinGenVerdict | None
    dual_center_generators: tuple[tuple[str, ...], ...]
    evidence: tuple[str, ...]
    notes: tuple[str, ...] = ()

    def render(self) -> str:
        if self.status == HH_UNDECIDED:
            return "undecided (koszulity unknown)"
        if self.status == HH_INF:
            return "infinitely generated"
        if self.trivial:
            return "finitely generated; HH*/N is trivial"
        return "finitely generated"


def _wrap_alive_cycle(spec: IdealSpec) -> tuple[str, ...] | None:
    """A simple multi-vertex cycle none of whose cyclic pairs is a monomial
    generator, if any: every rotation survives, and its rotation sums are
    central and non-nilpotent, one per power."""
    return next((cycle for cycle in multi_vertex_cycles(spec.quiver)
                 if not _generator_pairs(spec, cycle)), None)


def _cycle_supported_elements(spec: IdealSpec, max_degree: int):
    """Oracle central elements up to ``max_degree`` whose support contains a
    non-loop arrow; empty for loop-supported centers."""
    from .oracle import oracle_center_upto

    loops = set(spec.quiver.loops)
    found = []
    basis = oracle_center_upto(spec, max_degree)
    for degree, elements in basis.by_degree:
        for element in elements:
            support = {a for _, word in element.terms for a in word}
            if support - loops:
                found.append((degree, element))
    return found


def _dual_center_verdict(dual: IdealSpec, max_degree: int
                         ) -> tuple[FinGenVerdict, list[str]]:
    """Finite-generation verdict for the dual's center, handling quivers
    with multi-vertex cycles by the hybrid described in the module
    docstring."""
    verdict = loop_supported_verdict(dual)
    if surviving_multi_vertex_cycle(dual) is None:
        return verdict, []
    wrap_alive = _wrap_alive_cycle(dual)
    if wrap_alive is not None:
        # a fully surviving cycle spawns non-nilpotent necklace families
        if verdict.status == TRIVIAL:
            verdict = replace(verdict, status=FINITELY_GENERATED)
        return verdict, [
            "the cycle " + "*".join(wrap_alive) + " survives with all its "
            "rotation pairs: its rotation sums are non-nilpotent central "
            "elements, so HH*/N is not trivial; each such family is "
            "generated by its first necklace"]
    cycle_elements = _cycle_supported_elements(dual, max_degree)
    if not cycle_elements:
        return verdict, [
            "the dual quiver has multi-vertex cycles; every such cycle has "
            "a vanishing wrap pair and the oracle found no cycle-supported "
            f"central elements up to degree {max_degree}, so the "
            "loop-supported verdict stands"]
    # families are capped by dead wrap pairs: the finitely many found
    # elements are nilpotent and vanish in HH*/N
    rendered = ", ".join(e.render() for _, e in cycle_elements)
    return verdict, [
        "cycle-supported central elements exist (" + rendered + ") but "
        "their wrap pairs vanish, so they are nilpotent and do not affect "
        "the verdict modulo nilpotents"]


def hochschild_fg(pres: AlgebraPresentation,
                  max_degree: int = DEFAULT_MAX_DEGREE) -> HochschildVerdict:
    """Finite generation of HH* modulo nilpotents via the center of the
    dual.  An unknown Koszulity marker yields an undecided verdict that
    still carries the dual presentation for independent re-analysis."""
    dual = koszul_dual(pres)
    if pres.koszul == KOSZUL_UNKNOWN:
        return HochschildVerdict(
            status=HH_UNDECIDED,
            trivial=False,
            koszul=pres.koszul,
            dual=dual,
            dual_verdict=None,
            dual_center_generators=(),
            evidence=("koszulity unknown: assert it or supply a monomial "
                      "ideal to obtain a verdict",),
        )
    verdict, notes = _dual_center_verdict(dual.ideal, max_degree)
    trivial = verdict.status == TRIVIAL
    status = HH_FG if verdict.status in (FINITELY_GENERATED, TRIVIAL) \
        else HH_INF
    generators = verdict.generators if verdict.status == FINITELY_GENERATED \
        else ()
    assert verdict.status != INFINITELY_GENERATED or verdict.witness
    return HochschildVerdict(
        status=status,
        trivial=trivial,
        koszul=pres.koszul,
        dual=dual,
        dual_verdict=verdict,
        dual_center_generators=generators,
        evidence=EVIDENCE_CHAIN,
        notes=tuple(notes),
    )
