"""Seeded input families and the closed-form references that check them.

Every generator takes a ``random.Random`` and returns the ``.quiver`` text
together with a small description (:class:`LoopFamily`, :class:`Chain`)
from which the expected verdicts follow by hand-derived formulas.  The
references never call pacqa: an op is checked against mathematics that does
not depend on the engine under test.

The seed changes names, declaration order and which relations a partial
family drops; the shape of each family (vertex, arrow and relation counts)
stays fixed, so the cost of an op depends on its slot and not on the seed.
"""
from __future__ import annotations

import itertools
import string
from dataclasses import dataclass
from math import comb

COMM = "commutative"
ANTI = "anticommutative"

Word = tuple[str, ...]


def _spec_text(vertices, arrows, flavor, zero=(), rel=(), char=0,
               koszul=False, comment="") -> str:
    lines = [f"# {comment}"] if comment else []
    lines.append("vertices: " + ", ".join(vertices))
    lines.append("arrows: " + ", ".join(f"{n}: {s}->{t}" for n, s, t in arrows))
    lines.append(f"ideal {flavor}")
    if char:
        lines.append(f"char: {char}")
    if zero:
        lines.append("zero: " + ", ".join(f"{a}*{b}" for a, b in zero))
    if rel:
        tag = "comm" if flavor == COMM else "anti"
        lines.append(f"{tag}: " + ", ".join(f"{a}*{b}" for a, b in rel))
    if koszul:
        lines.append("koszul: asserted")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# single-vertex loop families


@dataclass(frozen=True)
class LoopFamily:
    """``k`` loops at one vertex; every pair related except ``dropped``,
    where the pair ``(u, v)`` (``u`` declared first) carries the monomial
    ``u*v`` instead.  ``squares`` kills every square (admissible variant)."""

    names: Word              # declaration order
    flavor: str
    dropped: tuple[tuple[str, str], ...]
    squares: bool
    text: str

    @property
    def k(self) -> int:
        return len(self.names)

    @property
    def untouched(self) -> Word:
        """Loops in no dropped pair: they commute with every other loop."""
        hit = {a for pair in self.dropped for a in pair}
        return tuple(a for a in self.names if a not in hit)


def loop_family(rng, k: int, flavor: str, drop: int = 0,
                squares: bool = False, koszul: bool = False) -> LoopFamily:
    """A square-free (or, with ``squares``, squares-killed) family of ``k``
    loops; ``drop`` disjoint seeded pairs lose their relation and keep one
    monomial oriented by declaration order, so theorem mode applies."""
    names = tuple(rng.sample(string.ascii_lowercase, k))
    picked = list(names)
    rng.shuffle(picked)
    dropped = []
    for i in range(drop):
        u, v = picked[2 * i], picked[2 * i + 1]
        if names.index(u) > names.index(v):
            u, v = v, u
        dropped.append((u, v))
    dropped_set = {frozenset(p) for p in dropped}
    rel = [(a, b) for a, b in itertools.combinations(names, 2)
           if frozenset((a, b)) not in dropped_set]
    zero = [(a, a) for a in names] if squares else []
    zero += dropped
    kind = "partial" if drop else "full"
    text = _spec_text(
        ["x"], [(a, "x", "x") for a in names], flavor, zero, rel,
        koszul=koszul,
        comment=f"{k} {flavor} loops, {kind}"
                + (", squares killed" if squares else ""))
    return LoopFamily(names, flavor, tuple(dropped), squares, text)


def central_count(fam: LoopFamily, degree: int) -> int:
    """Number of central monomials of a square-free loop family in one
    degree.

    Only cliques inside the untouched loops ``U`` (``u`` of them) are
    central: a dropped pair neither commutes nor annihilates both ways.
    Commutative: every monomial over ``U`` of the degree, C(d+u-1, u-1).
    Anticommutative, even degree: all multiplicities even, C(d/2+u-1, u-1).
    Anticommutative, odd degree: all multiplicities odd over a block that
    annihilates everything outside it, which only the full family (no
    outside loops) is: C((d-k)/2+k-1, k-1) when d >= k and d = k mod 2.
    """
    u = len(fam.untouched)
    if u == 0:
        return 0
    if fam.flavor == COMM:
        return comb(degree + u - 1, u - 1)
    if degree % 2 == 0:
        return comb(degree // 2 + u - 1, u - 1)
    k = fam.k
    if fam.dropped or degree < k or (degree - k) % 2:
        return 0
    return comb((degree - k) // 2 + k - 1, k - 1)


def fingen_generators(fam: LoopFamily) -> list[str]:
    """The generators a square-free loop family's center must report:
    the untouched arrows (commutative), or their squares plus the product
    of an odd full block (anticommutative)."""
    u = fam.untouched
    if not u:
        return []
    if fam.flavor == COMM:
        return sorted(u, key=fam.names.index)
    gens = [(f"{a}*{a}", 2, fam.names.index(a)) for a in u]
    if not fam.dropped and fam.k % 2 == 1:
        gens.append(("*".join(fam.names), fam.k, -1))
    gens.sort(key=lambda g: (g[1], g[2]))
    return [g[0] for g in gens]


def dual_family(fam: LoopFamily) -> LoopFamily:
    """The Koszul dual of a squares-killed loop family: the square-free
    family of the other flavor over the opposite arrows (``a`` becomes
    ``a°``) with the same dropped pairs."""
    flavor = ANTI if fam.flavor == COMM else COMM
    mark = {a: a + "°" for a in fam.names}
    return LoopFamily(tuple(mark[a] for a in fam.names), flavor,
                      tuple((mark[u], mark[v]) for u, v in fam.dropped),
                      False, "")


# --------------------------------------------------------------------------
# chains of vertices with two commuting loops each


@dataclass(frozen=True)
class Chain:
    """``n`` vertices in a row, two commuting loops per vertex and one arrow
    to the next vertex.  With ``back``, half of the vertex triples
    ``(i, i+1, i+2)`` get an arrow ``h_i`` from ``i+2`` back to ``i``; the
    ideal kills the two rotation pairs through ``h_i``, so the 3-cycle
    exists in the quiver but no rotation of it survives, and the monomial
    generators stay acyclic.  At vertices in ``quiet`` (never on a triple
    with a back arrow) the loops annihilate both incident chain arrows,
    which makes their loop block central."""

    quiet: tuple[int, ...]
    loops: tuple[Word, ...]        # per vertex, declaration order
    arrow_count: int
    monomial_count: int
    text: str


def chain(rng, n: int, back: bool) -> Chain:
    vertices = [f"v{i}" for i in range(n)]
    arrows, zero, rel, loops = [], [], [], []
    for i, v in enumerate(vertices):
        pair = (f"a{i}", f"b{i}")
        if rng.random() < 0.5:
            pair = pair[::-1]
        loops.append(pair)
        arrows += [(pair[0], v, v), (pair[1], v, v)]
        rel.append(pair)
    arrows += [(f"f{i}", vertices[i], vertices[i + 1]) for i in range(n - 1)]
    on_cycle: set[int] = set()
    if back:
        triples = [3 * t for t in range(n // 3)]
        for i in sorted(rng.sample(triples, len(triples) // 2)):
            arrows.append((f"h{i}", vertices[i + 2], vertices[i]))
            zero += [(f"f{i + 1}", f"h{i}"), (f"h{i}", f"f{i}")]
            on_cycle |= {i, i + 1, i + 2}
    free = [i for i in range(n) if i not in on_cycle]
    quiet = tuple(sorted(rng.sample(free, len(free) // 2)))
    for i in quiet:
        for a in loops[i]:
            if i > 0:
                zero.append((f"f{i - 1}", a))
            if i < n - 1:
                zero.append((a, f"f{i}"))
    text = _spec_text(vertices, arrows, COMM, zero, rel,
                      comment=f"chain of {n} vertices"
                              + (" with back arrows" if back else ""))
    return Chain(quiet, tuple(loops), len(arrows), len(zero), text)


def chain_center_count(ch: Chain, degree: int) -> int:
    """Each quiet vertex contributes every monomial in its two commuting
    loops, d + 1 of them; other vertices contribute nothing."""
    return len(ch.quiet) * (degree + 1)


def chain_generators(ch: Chain) -> list[str]:
    """Arrows of the quiet vertices' loop blocks, in declaration order."""
    return [a for i in ch.quiet for a in ch.loops[i]]


def path_quiver(n: int) -> str:
    vertices = [f"v{i}" for i in range(n)]
    arrows = [(f"f{i}", vertices[i], vertices[i + 1]) for i in range(n - 1)]
    return _spec_text(vertices, arrows, COMM,
                      comment=f"path quiver with {n} vertices")


# --------------------------------------------------------------------------
# small random instances for the oracle cross-check


def random_small(rng, flavor: str, char: int, two_vertices: bool,
                 pattern: tuple[int, int, int], kills: int) -> str:
    """At most two vertices and five arrows: three loops at ``x`` whose
    three pairs are, in seeded positions, ``pattern`` = (related, one
    monomial in seeded orientation, free); on two vertices also an arrow
    ``e: x->y`` that ``kills`` seeded loops annihilate and a loop ``w`` at
    ``y``.  Squares are killed so that every algebra is small per degree."""
    loops = rng.sample(["p", "q", "r", "s", "t", "u"], 3)
    arrows = [(a, "x", "x") for a in loops]
    zero = [(a, a) for a in loops]
    rel = []
    pairs = list(itertools.combinations(loops, 2))
    rng.shuffle(pairs)
    n_rel, n_mono, _ = pattern
    for i, (a, b) in enumerate(pairs):
        if i < n_rel:
            rel.append((a, b))
        elif i < n_rel + n_mono:
            zero.append((a, b) if rng.random() < 0.5 else (b, a))
    vertices = ["x"]
    if two_vertices:
        vertices.append("y")
        arrows += [("e", "x", "y"), ("w", "y", "y")]
        zero.append(("w", "w"))
        zero += [(a, "e") for a in rng.sample(loops, kills)]
    return _spec_text(vertices, arrows, flavor, zero, rel, char=char,
                      comment="random small instance")

