"""Finite quivers and their paths.

Paths compose left to right: ``compose(p, q)`` means "p, then q", so the
word ``ab`` is the arrow ``a`` followed by the arrow ``b`` and requires
``target(a) == origin(b)``.  Arrow declaration order is significant: it is
the total order behind every canonical form and deterministic report.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import BudgetError, QuiverError

OPPOSITE_MARK = "°"  # decoration toggled by opposite()


@dataclass(frozen=True)
class Arrow:
    name: str
    origin: str
    target: str


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    @cached_property
    def arrow_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.arrows)

    @cached_property
    def _arrow_by_name(self) -> dict[str, Arrow]:
        return {a.name: a for a in self.arrows}

    @cached_property
    def _arrow_order(self) -> dict[str, int]:
        return {a.name: i for i, a in enumerate(self.arrows)}

    def arrow(self, name: str) -> Arrow:
        try:
            return self._arrow_by_name[name]
        except KeyError:
            raise QuiverError(f"unknown arrow {name!r}") from None

    def arrow_index(self, name: str) -> int:
        try:
            return self._arrow_order[name]
        except KeyError:
            raise QuiverError(f"unknown arrow {name!r}") from None

    def origin(self, name: str) -> str:
        return self.arrow(name).origin

    def target(self, name: str) -> str:
        return self.arrow(name).target

    def is_loop(self, name: str) -> bool:
        a = self.arrow(name)
        return a.origin == a.target

    @cached_property
    def loops(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.arrows if a.origin == a.target)

    def loops_at(self, vertex: str) -> tuple[str, ...]:
        at = self.incidence.get(vertex, ())
        return tuple(a for a in at if self.is_loop(a))

    @cached_property
    def incidence(self) -> dict[str, tuple[str, ...]]:
        """Vertex -> its out-, in-arrows and loops, in declaration order."""
        at: dict[str, list[str]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            for v in dict.fromkeys((a.origin, a.target)):
                at[v].append(a.name)
        return {v: tuple(names) for v, names in at.items()}

    def composable(self, first: str, second: str) -> bool:
        """True when the length-2 word ``first second`` is a path."""
        return self.target(first) == self.origin(second)

    def word(self, m: Path | Sequence[str]) -> tuple[str, ...]:
        """``m`` as a word of this quiver: a :class:`Path` over it, or arrow
        names whose every junction composes (a single name must name an
        arrow); :class:`QuiverError` otherwise.  The one gate for words."""
        if isinstance(m, Path):
            if m.quiver != self:
                raise QuiverError("path and ideal live over different quivers")
            return m.arrows
        word = tuple(m)
        if len(word) == 1:
            self.arrow(word[0])
        for a, b in zip(word, word[1:]):
            if not self.composable(a, b):
                raise QuiverError(f"non-composable junction {a!r} -> {b!r}")
        return word

    def word_key(self, word: Sequence[str]) -> tuple[int, ...]:
        """Sort key for words: arrow declaration indices."""
        order = self._arrow_order
        return tuple(order[a] for a in word)

    @cached_property
    def connected_components(self) -> tuple[tuple[str, ...], ...]:
        """Components of the underlying undirected graph, in declaration
        order of their first vertex."""
        neighbours: dict[str, set[str]] = {v: set() for v in self.vertices}
        for a in self.arrows:
            neighbours[a.origin].add(a.target)
            neighbours[a.target].add(a.origin)
        order = {v: i for i, v in enumerate(self.vertices)}
        seen: set[str] = set()
        components = []
        for v in self.vertices:
            if v in seen:
                continue
            stack, comp = [v], []
            seen.add(v)
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in neighbours[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            components.append(tuple(sorted(comp, key=order.__getitem__)))
        return tuple(components)

    def is_connected(self) -> bool:
        return len(self.connected_components) <= 1


def build_quiver(vertices: Iterable[str],
                 arrows: Iterable[tuple[str, str, str]]) -> Quiver:
    """Validate and build a quiver from names.

    ``arrows`` is an iterable of ``(name, origin, target)``.  Connectivity is
    not required; disconnected quivers are accepted and callers may warn.
    """
    vertex_list = tuple(vertices)
    if not vertex_list:
        raise QuiverError("a quiver needs at least one vertex")
    if len(set(vertex_list)) != len(vertex_list):
        raise QuiverError("duplicate vertex name")
    if any(not v for v in vertex_list):
        raise QuiverError("empty vertex name")
    vertex_set = set(vertex_list)
    arrow_list = []
    seen: set[str] = set()
    for name, origin, target in arrows:
        if not name:
            raise QuiverError("empty arrow name")
        if name in seen:
            raise QuiverError(f"duplicate arrow name {name!r}")
        seen.add(name)
        for endpoint in (origin, target):
            if endpoint not in vertex_set:
                raise QuiverError(
                    f"arrow {name!r} references undeclared vertex {endpoint!r}")
        arrow_list.append(Arrow(name, origin, target))
    return Quiver(vertex_list, tuple(arrow_list))


@dataclass(frozen=True)
class Path:
    """A path in a quiver: either a vertex (degree 0) or a composable word
    of arrows (degree = word length)."""

    quiver: Quiver
    arrows: tuple[str, ...]
    vertex: str | None = None

    def __post_init__(self):
        if self.vertex is not None:
            if self.arrows:
                raise QuiverError("a vertex path carries no arrows")
            if self.vertex not in self.quiver.vertices:
                raise QuiverError(f"unknown vertex {self.vertex!r}")
            return
        if not self.arrows:
            raise QuiverError("empty path: use a vertex path for degree 0")
        self.quiver.word(self.arrows)

    @classmethod
    def vertex_path(cls, quiver: Quiver, vertex: str) -> "Path":
        return cls(quiver, (), vertex)

    @classmethod
    def from_arrows(cls, quiver: Quiver, arrows: Sequence[str]) -> "Path":
        return cls(quiver, tuple(arrows))

    @property
    def degree(self) -> int:
        return len(self.arrows)

    @property
    def origin(self) -> str:
        if self.vertex is not None:
            return self.vertex
        return self.quiver.origin(self.arrows[0])

    @property
    def target(self) -> str:
        if self.vertex is not None:
            return self.vertex
        return self.quiver.target(self.arrows[-1])

    def __str__(self) -> str:
        if self.vertex is not None:
            return f"e({self.vertex})"
        return "*".join(self.arrows)


def compose(p: Path, q: Path) -> Path | None:
    """Concatenate two paths (p then q); ``None`` is the zero element.

    Vertex paths act as local identities: composing against one returns the
    other factor when the endpoints match and zero otherwise.
    """
    if p.quiver != q.quiver:
        raise QuiverError("paths live over different quivers")
    if p.target != q.origin:
        return None
    if p.vertex is not None:
        return q
    if q.vertex is not None:
        return p
    return Path(p.quiver, p.arrows + q.arrows)


def _toggle_mark(name: str) -> str:
    if name.endswith(OPPOSITE_MARK):
        return name[: -len(OPPOSITE_MARK)]
    return name + OPPOSITE_MARK


def opposite(quiver: Quiver) -> Quiver:
    """The opposite quiver: same vertices, every arrow reversed.

    Arrow names toggle a trailing degree-sign decoration so that
    ``opposite(opposite(q)) == q`` exactly.
    """
    return Quiver(
        quiver.vertices,
        tuple(Arrow(_toggle_mark(a.name), a.target, a.origin)
              for a in quiver.arrows),
    )


def multi_vertex_cycles(quiver: Quiver) -> tuple[tuple[str, ...], ...]:
    """Simple directed cycles through at least two distinct vertices, as
    arrow tuples, in deterministic order.

    Loop arrows never take part; a quiver without such cycles has every
    cycle word supported on loops at a single vertex.  The search recurses
    once per vertex of a path, and past the recursion limit it refuses with
    :class:`BudgetError`.
    """
    non_loops = [a for a in quiver.arrows if a.origin != a.target]
    by_origin: dict[str, list] = {}
    for a in non_loops:
        by_origin.setdefault(a.origin, []).append(a)
    cycles: list[tuple[str, ...]] = []
    order = {v: i for i, v in enumerate(quiver.vertices)}

    def search(start: str, here: str, path: tuple[str, ...],
               visited: frozenset[str]) -> None:
        for arrow in by_origin.get(here, ()):
            nxt = arrow.target
            if nxt == start:
                cycles.append(path + (arrow.name,))
            elif nxt not in visited and order[nxt] > order[start]:
                # only allow vertices after the start, so each cycle is
                # found once, rooted at its smallest vertex
                search(start, nxt, path + (arrow.name,),
                       visited | {nxt})

    try:
        for v in quiver.vertices:
            search(v, v, (), frozenset({v}))
    except RecursionError:
        raise BudgetError(
            "the multi-vertex cycle search exceeds the recursion limit "
            f"({sys.getrecursionlimit()})") from None
    cycles.sort(key=lambda c: (len(c), quiver.word_key(c)))
    return tuple(cycles)


def vertex_subquiver(quiver: Quiver, vertex: str) -> Quiver:
    """The subquiver based at ``vertex``: the vertex itself, all arrows
    incident to it, and the endpoints of those arrows."""
    if vertex not in quiver.vertices:
        raise QuiverError(f"unknown vertex {vertex!r}")
    incident = [quiver.arrow(a) for a in quiver.incidence[vertex]]
    keep = {vertex}
    for a in incident:
        keep.add(a.origin)
        keep.add(a.target)
    return Quiver(tuple(v for v in quiver.vertices if v in keep),
                  tuple(incident))
