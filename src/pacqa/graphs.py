"""Mixed graphs on the arrow set: generator graphs, relation graphs,
directed-cycle detection, bitmask clique enumeration and DOT export.

The generator graph of an ideal has one vertex per arrow, a directed edge
``a -> b`` per monomial generator ``ab`` (squares give self-loops) and an
undirected edge per relation pair.  The relation graph of the quotient adds
a directed edge per ordered pair that is zero for endpoint reasons (not for
self-pairs of non-loops).  It is built only for ``dot --graph rel`` and the
API; :mod:`pacqa.center` reads its edges per vertex off bitmasks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .ideal import IdealSpec, _per_ideal, orthogonal

GENERATOR_KIND = "generator"
RELATION_KIND = "relation"


@dataclass(frozen=True)
class MixedGraph:
    vertices: tuple[str, ...]
    directed: tuple[tuple[str, str], ...]
    undirected: tuple[tuple[str, str], ...]
    kind: str
    loops: frozenset[str] = frozenset()  # vertices that are quiver loops


def generator_graph(spec: IdealSpec) -> MixedGraph:
    q = spec.quiver
    return MixedGraph(
        vertices=q.arrow_names,
        directed=spec.monomials,
        undirected=spec.relations,
        kind=GENERATOR_KIND,
        loops=frozenset(q.loops),
    )


@_per_ideal
def relation_graph(spec: IdealSpec) -> MixedGraph:
    """Directed edge ``a -> b`` whenever ``ab = 0`` in the quotient: the pair
    is non-composable, or ``ab`` is a monomial generator.  Self-pairs only
    appear for loops whose square is a generator.  Edges are listed by the
    declaration order of their first arrow, then of their second."""
    q = spec.quiver
    directed = []
    for a in q.arrow_names:
        for b in q.arrow_names:
            if q.composable(a, b):
                if (a, b) in spec.monomial_set:
                    directed.append((a, b))
            elif a != b:
                directed.append((a, b))
    return MixedGraph(
        vertices=q.arrow_names,
        directed=tuple(directed),
        undirected=spec.relations,
        kind=RELATION_KIND,
        loops=frozenset(q.loops),
    )


def has_directed_cycle(g: MixedGraph) -> tuple[bool, tuple[str, ...] | None]:
    """Depth-first cycle search over the directed edges only.

    Returns the first cycle in DFS order over sorted adjacency as a vertex
    sequence ``(v1, ..., vk, v1)``; deterministic for equal graphs.
    """
    order = {v: i for i, v in enumerate(g.vertices)}
    adjacency: dict[str, list[str]] = {v: [] for v in g.vertices}
    for a, b in g.directed:
        adjacency[a].append(b)
    for v in adjacency:
        adjacency[v].sort(key=order.__getitem__)

    WHITE, GREY, BLACK = 0, 1, 2
    color = {v: WHITE for v in g.vertices}
    for root in g.vertices:
        if color[root] != WHITE:
            continue
        # an explicit stack, so long chains stay clear of the recursion
        # limit: the grey path and, per member, its unvisited out-neighbours
        color[root] = GREY
        path, pending = [root], [iter(adjacency[root])]
        while pending:
            for w in pending[-1]:
                if color[w] == GREY:
                    return True, tuple(path[path.index(w):]) + (w,)
                if color[w] == WHITE:
                    color[w] = GREY
                    path.append(w)
                    pending.append(iter(adjacency[w]))
                    break
            else:
                color[path.pop()] = BLACK
                pending.pop()
    return False, None


@dataclass(frozen=True)
class AdmissibilityVerdict:
    admissible: bool
    cycle: tuple[str, ...] | None
    nilpotency_bound: int | None
    orthogonal: IdealSpec

    def witness_text(self) -> str:
        if self.admissible:
            return f"nilpotency bound: {self.nilpotency_bound}"
        return "cycle: " + " -> ".join(self.cycle)


@_per_ideal
def is_admissible(spec: IdealSpec) -> AdmissibilityVerdict:
    """The ideal is admissible iff the generator graph of its orthogonal
    ideal has no directed cycle; an admissible ideal kills every path longer
    than the number of arrows, whence the nilpotency bound."""
    orth = orthogonal(spec)
    found, cycle = has_directed_cycle(generator_graph(orth))
    bound = None if found else len(spec.quiver.arrows) + 1
    return AdmissibilityVerdict(not found, cycle, bound, orth)


@dataclass(frozen=True)
class Clique:
    vertices: tuple[str, ...]
    all_loops: bool
    maximal: bool


def fold_cliques(adjacency: Sequence[int], candidates: int, step: Callable,
                 state, members: tuple[int, ...] = ()
                 ) -> Iterator[tuple[tuple[int, ...], object]]:
    """Every nonempty clique among the ``candidates`` bits of the graph on
    ``0..n-1`` (``adjacency[i]`` is the bitmask of ``i``'s neighbours), as
    ``(members ascending, state)``.  ``state`` is folded by ``step(state, i)``
    down the candidate-set recursion (Bron-Kerbosch, CACM 1973), so a
    clique's bit-parallel summary costs one ``step`` over its parent's."""
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        i = low.bit_length() - 1
        clique, folded = members + (i,), step(state, i)
        yield clique, folded
        yield from fold_cliques(adjacency, candidates & adjacency[i], step,
                                folded, clique)


def enumerate_cliques(g: MixedGraph, loops_only: bool = False
                      ) -> tuple[Clique, ...]:
    """All nonempty cliques of the undirected subgraph, optionally restricted
    to loop vertices, sorted by (size, vertex list).  Maximality is judged
    within the same vertex domain: no domain vertex joins every member."""
    names = g.vertices
    bit = {v: 1 << i for i, v in enumerate(names)}
    domain = sum(bit[v] for v in names if not loops_only or v in g.loops)
    joined = dict.fromkeys(names, 0)
    for a, b in g.undirected:
        joined[a] |= bit[b]
        joined[b] |= bit[a]
    adjacency = [joined[v] & domain for v in names]
    # the state is the set of domain vertices joining every member
    found = sorted(fold_cliques(adjacency, domain,
                                lambda common, i: common & adjacency[i],
                                domain),
                   key=lambda pair: (len(pair[0]), pair[0]))
    return tuple(Clique(
        vertices=tuple(names[i] for i in members),
        all_loops=all(names[i] in g.loops for i in members),
        maximal=not common,
    ) for members, common in found)


def to_dot(g: MixedGraph) -> str:
    """Deterministic DOT text; undirected edges are drawn with dir=none.
    Equal graphs produce byte-identical output."""
    lines = [f"digraph {g.kind} {{", "  node [shape=circle];"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for a, b in g.directed:
        lines.append(f'  "{a}" -> "{b}";')
    for a, b in g.undirected:
        lines.append(f'  "{a}" -> "{b}" [dir=none];')
    lines.append("}")
    return "\n".join(lines) + "\n"
