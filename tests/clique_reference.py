"""Reference for the loop-clique scan in :mod:`pacqa.center`: the all-pairs
scan the engine used before it read statuses off per-vertex bitmasks.

It builds the relation graph of the whole quiver, enumerates the cliques of
its loops and walks every arrow of the quiver against every member of each
clique.  It also keeps the direct generator-list scan for the necessary
condition S of :mod:`pacqa.fingen`, which the engine now reads off the
clique statuses.  Kept only so the differential tests can compare the
engine against it; nothing in the package imports it.
"""
from __future__ import annotations

from collections import Counter
from typing import Sequence

from pacqa.center import (Centrality, CliqueStatus, center_is_trivial_at,
                          require_hypotheses, require_loop_hypotheses)
from pacqa.errors import IdealError
from pacqa.fingen import S_FAIL, S_SET, S_TRIVIAL, SCondition
from pacqa.graphs import MixedGraph, enumerate_cliques, relation_graph
from pacqa.ideal import COMMUTATIVE, IdealSpec
from pacqa.normalform import canonical_form


def _joined(g: MixedGraph, a: str, b: str) -> bool:
    return (a, b) in g.undirected or (b, a) in g.undirected


def _outsider_killed(edges: frozenset[tuple[str, str]], clique: Sequence[str],
                     b: str) -> tuple[bool, str | None]:
    into = any((c, b) in edges for c in clique)
    back = any((b, c) in edges for c in clique)
    if into and back:
        return True, None
    if not into:
        return False, f"{'{' + ','.join(clique) + '}'} -> {b}"
    return False, f"{b} -> {'{' + ','.join(clique) + '}'}"


def clique_status(spec: IdealSpec, g: MixedGraph, clique: Sequence[str]
                  ) -> CliqueStatus:
    q = spec.quiver
    edges = frozenset(g.directed)
    members = set(clique)
    central_ok = True
    kill_only = True
    blocker = None
    blocker_missing = None
    extender = None
    for b in q.arrow_names:
        if b in members:
            continue
        killed, missing = _outsider_killed(edges, clique, b)
        extends = (b in g.loops
                   and all(_joined(g, b, c) for c in clique)
                   and q.origin(b) == q.origin(clique[0]))
        if not killed:
            kill_only = False
            if extends and extender is None:
                extender = b
        if not (killed or extends) and central_ok:
            central_ok = False
            blocker = b
            blocker_missing = missing
    return CliqueStatus(
        clique=tuple(clique),
        basepoint=q.origin(clique[0]),
        central_ok=central_ok,
        kill_only=kill_only,
        blocker=blocker,
        blocker_missing=blocker_missing,
        extender=extender,
    )


def loop_clique_statuses(spec: IdealSpec) -> tuple[CliqueStatus, ...]:
    g = relation_graph(spec)
    cliques = enumerate_cliques(g, loops_only=True)
    return tuple(clique_status(spec, g, c.vertices) for c in cliques)


def is_central_monomial(spec: IdealSpec, word: Sequence[str]) -> Centrality:
    require_hypotheses(spec)
    word = tuple(word)
    if not word:
        raise IdealError("centrality is decided for words of degree >= 1")
    q = spec.quiver
    if canonical_form(spec, word) is None:
        return Centrality(False, "the monomial is zero in the quotient")
    support = sorted(set(word), key=q.arrow_index)
    base = {q.origin(a) for a in support} | {q.target(a) for a in support}
    if len(base) != 1:
        return Centrality(False, "not a product of loops at one vertex")
    g = relation_graph(spec)
    for i, a in enumerate(support):
        for b in support[i + 1:]:
            if not _joined(g, a, b):
                return Centrality(
                    False, f"support is not a clique: {a} and {b} do not "
                           "commute by a relation")
    status = clique_status(spec, g, support)
    if spec.flavor == COMMUTATIVE:
        if status.central_ok:
            return Centrality(True, "support clique extends or annihilates "
                                    "every other arrow")
        return Centrality(
            False, f"outside arrow {status.blocker} neither extends the "
                   f"clique nor is annihilated (missing "
                   f"{status.blocker_missing})")
    counts = Counter(word)
    if len(word) % 2 == 0:
        if any(c % 2 for c in counts.values()):
            return Centrality(
                False, "even-degree word with an odd multiplicity")
        if status.central_ok:
            return Centrality(True, "even multiplicities over a clique that "
                                    "extends or annihilates every other arrow")
        return Centrality(
            False, f"outside arrow {status.blocker} neither extends the "
                   f"clique nor is annihilated (missing "
                   f"{status.blocker_missing})")
    if any(c % 2 == 0 for c in counts.values()):
        return Centrality(False, "odd-degree word with an even multiplicity")
    if status.kill_only:
        return Centrality(True, "odd multiplicities over a clique that "
                                "annihilates every other arrow both ways")
    who = status.extender if status.extender is not None else status.blocker
    return Centrality(
        False, f"odd degree requires every outside arrow annihilated both "
               f"ways, but {who} is not")


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
