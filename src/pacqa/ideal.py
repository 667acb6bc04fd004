"""(Anti-)commutativity ideals: validation, orthogonal, restriction, opposite.

An ideal here is quadratic and generated by monomials ``ab`` (ordered
composable arrow pairs) together with relations ``ab - ba`` (commutative
flavor) or ``ab + ba`` (anticommutative flavor) between distinct loops at a
common vertex.  Generator sets are kept minimal: a relation on ``{a, b}``
excludes both ``ab`` and ``ba`` from the monomial generators.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, wraps
from typing import Iterable

from .errors import IdealError
from .quiver import Quiver, opposite, vertex_subquiver

COMMUTATIVE = "commutative"
ANTICOMMUTATIVE = "anticommutative"
FLAVORS = (COMMUTATIVE, ANTICOMMUTATIVE)

KOSZUL_ASSERTED = "asserted"
KOSZUL_AUTO = "auto-certified-monomial"
KOSZUL_UNKNOWN = "unknown"


# Miller-Rabin with the primes up to 41 as bases decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 86, 2017)
MAX_FIELD_CHAR = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Exact for ``n < MAX_FIELD_CHAR``: a strong probable prime test to
    every base in ``_WITNESSES``."""
    if n < 2 or any(n % p == 0 for p in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    return all(x == 1 or any(pow(x, 1 << i, n) == n - 1 for i in range(s))
               for x in (pow(a, (n - 1) >> s, n) for a in _WITNESSES))


@dataclass(frozen=True)
class IdealSpec:
    """A validated minimal generating set over a quiver.

    ``monomials`` are ordered composable pairs ``(a, b)`` meaning ``ab`` is a
    generator; ``relations`` are ordered-normalized pairs ``(a, b)`` (by arrow
    declaration order) meaning ``ab - ba`` resp. ``ab + ba`` is a generator.
    Objects derived from the ideal alone are memoised on the instance (see
    :func:`_per_ideal`) and freed with it.
    """

    quiver: Quiver
    flavor: str
    monomials: tuple[tuple[str, str], ...]
    relations: tuple[tuple[str, str], ...]
    field_char: int = 0
    # metadata, not part of the ideal's identity
    convention_squares: tuple[str, ...] = field(default=(), compare=False)
    normalization_notes: tuple[str, ...] = field(default=(), compare=False)

    @cached_property
    def monomial_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.monomials)

    @cached_property
    def relation_set(self) -> frozenset[tuple[str, str]]:
        """Relation pairs in both orders, for O(1) lookups."""
        both = set()
        for a, b in self.relations:
            both.add((a, b))
            both.add((b, a))
        return frozenset(both)

    def related(self, a: str, b: str) -> bool:
        return (a, b) in self.relation_set

    @property
    def relation_sign(self) -> int:
        """Sign picked up by one allowed transposition: ab = sign * ba."""
        return -1 if self.flavor == ANTICOMMUTATIVE else 1

    def monomial_strings(self) -> tuple[str, ...]:
        return tuple(f"{a}*{b}" for a, b in self.monomials)

    def relation_strings(self) -> tuple[str, ...]:
        op = "+" if self.flavor == ANTICOMMUTATIVE else "-"
        return tuple(f"{a}*{b} {op} {b}*{a}" for a, b in self.relations)

    def generator_strings(self) -> tuple[str, ...]:
        return self.monomial_strings() + self.relation_strings()


def _per_ideal(fn):
    """Memoise ``fn(spec)`` in the spec's instance ``__dict__``, as
    ``cached_property`` does, so the result lives and dies with the spec.
    A cached ``None`` counts as a hit.  Racing first calls may both compute;
    the first value stored wins, and every caller gets that one."""
    key = f"_{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def memo(spec):
        try:
            return spec.__dict__[key]
        except KeyError:
            return spec.__dict__.setdefault(key, fn(spec))
    return memo


def validate_ideal(quiver: Quiver,
                   flavor: str,
                   monomials: Iterable[tuple[str, str]] = (),
                   relations: Iterable[tuple[str, str]] = (),
                   field_char: int = 0) -> IdealSpec:
    """Validate raw generators and return the normalized minimal set.

    Normalizations applied, each recorded in ``normalization_notes``:

    * in characteristic 2 the anticommutative flavor folds into the
      commutative one (the two relation types coincide);
    * a redundant pair ``{ab, ab -+ ba}`` is replaced by the two monomials
      ``ab, ba`` (the relation plus one monomial forces the other monomial).
    """
    if flavor not in FLAVORS:
        raise IdealError(f"unknown flavor {flavor!r}")
    if field_char >= MAX_FIELD_CHAR:
        raise IdealError(
            f"field characteristic must be below {MAX_FIELD_CHAR}")
    if field_char != 0 and not _is_prime(field_char):
        raise IdealError("field characteristic must be 0 or a prime")
    notes: list[str] = []
    if field_char == 2 and flavor == ANTICOMMUTATIVE:
        flavor = COMMUTATIVE
        notes.append("characteristic 2: anticommutative flavor folded into "
                     "commutative")

    mono: set[tuple[str, str]] = set()
    for a, b in monomials:
        quiver.arrow(a)
        quiver.arrow(b)
        if not quiver.composable(a, b):
            raise IdealError(
                f"monomial generator {a}*{b} is not a path "
                f"(target of {a} is not the origin of {b})")
        mono.add((a, b))

    rel: set[tuple[str, str]] = set()
    for a, b in relations:
        quiver.arrow(a)
        quiver.arrow(b)
        if a == b:
            raise IdealError(
                f"relation between {a} and itself: write the square {a}*{a} "
                "as a monomial generator instead")
        if not (quiver.is_loop(a) and quiver.is_loop(b)
                and quiver.origin(a) == quiver.origin(b)):
            raise IdealError(
                f"relation {{{a},{b}}}: both arrows must be loops at the "
                "same vertex")
        pair = (a, b) if quiver.arrow_index(a) < quiver.arrow_index(b) else (b, a)
        rel.add(pair)

    for pair in sorted(rel, key=quiver.word_key):
        a, b = pair
        hit = [p for p in ((a, b), (b, a)) if p in mono]
        if hit:
            rel.discard(pair)
        if len(hit) == 2:
            notes.append(f"relation {a}--{b} dropped: both {a}*{b} and "
                         f"{b}*{a} are monomial generators")
        elif hit:
            (x, y), = hit
            mono.add((y, x))
            notes.append(f"redundant pair {{{x}*{y}, relation {a}--{b}}} "
                         f"normalized to monomials {x}*{y}, {y}*{x}")

    return IdealSpec(
        quiver=quiver,
        flavor=flavor,
        monomials=tuple(sorted(mono, key=quiver.word_key)),
        relations=tuple(sorted(rel, key=quiver.word_key)),
        field_char=field_char,
        normalization_notes=tuple(notes),
    )


def composable_pairs(quiver: Quiver) -> list[tuple[str, str]]:
    """All ordered arrow pairs forming nonzero length-2 paths, in
    declaration order."""
    names = quiver.arrow_names
    return [(a, b) for a in names for b in names if quiver.composable(a, b)]


@_per_ideal
def orthogonal(spec: IdealSpec) -> IdealSpec:
    """The orthogonal ideal: relations carry over with the sign flipped
    (flavor flips), and every nonzero length-2 path that is neither a
    generator of the ideal nor covered by a relation becomes a monomial
    generator.

    Squares follow the same rule: a loop square ``a*a`` outside the ideal is
    a monomial generator of the orthogonal ideal (recorded in
    ``convention_squares``); without this, admissibility detection by
    directed cycles would miss surviving loop powers.
    """
    quiver = spec.quiver
    mono = []
    squares = []
    for a, b in composable_pairs(quiver):
        if (a, b) in spec.monomial_set or spec.related(a, b):
            continue
        mono.append((a, b))
        if a == b:
            squares.append(a)
    if spec.field_char == 2:
        flavor = COMMUTATIVE
    else:
        flavor = (ANTICOMMUTATIVE if spec.flavor == COMMUTATIVE
                  else COMMUTATIVE)
    return IdealSpec(
        quiver=quiver,
        flavor=flavor,
        monomials=tuple(sorted(mono, key=quiver.word_key)),
        relations=spec.relations,
        field_char=spec.field_char,
        convention_squares=tuple(sorted(squares, key=quiver.arrow_index)),
    )


def restrict(spec: IdealSpec, vertex: str) -> IdealSpec:
    """The ideal restricted to the subquiver based at ``vertex``: keep the
    generators all of whose arrows are incident to the vertex."""
    sub = vertex_subquiver(spec.quiver, vertex)
    keep = set(sub.arrow_names)
    return IdealSpec(
        quiver=sub,
        flavor=spec.flavor,
        monomials=tuple((a, b) for a, b in spec.monomials
                        if a in keep and b in keep),
        relations=tuple((a, b) for a, b in spec.relations
                        if a in keep and b in keep),
        field_char=spec.field_char,
    )


def opposite_ideal(spec: IdealSpec) -> IdealSpec:
    """The reversed ideal over the opposite quiver: each monomial ``ab``
    becomes ``b°a°``; relation pairs carry over (reversing a binomial
    relation yields the same relation up to sign)."""
    op = opposite(spec.quiver)

    def mark(name: str) -> str:
        idx = spec.quiver.arrow_index(name)
        return op.arrows[idx].name

    mono = [(mark(b), mark(a)) for a, b in spec.monomials]
    rel = []
    for a, b in spec.relations:
        pair = sorted((mark(a), mark(b)), key=op.arrow_index)
        rel.append(tuple(pair))
    return IdealSpec(
        quiver=op,
        flavor=spec.flavor,
        monomials=tuple(sorted(mono, key=op.word_key)),
        relations=tuple(sorted(rel, key=op.word_key)),
        field_char=spec.field_char,
    )


def is_square_free(spec: IdealSpec) -> bool:
    """True when no monomial generator is a square.  Membership of a square
    in the ideal reduces to the generator set, so this is the full check."""
    return all(a != b for a, b in spec.monomials)


def contains_all_nonzero_squares(spec: IdealSpec) -> bool:
    """True when every loop's square is a monomial generator (non-loops have
    zero squares already)."""
    return all((a, a) in spec.monomial_set for a in spec.quiver.loops)


@dataclass(frozen=True)
class AlgebraPresentation:
    """A quiver algebra presentation together with a Koszulity marker."""

    ideal: IdealSpec
    koszul: str = KOSZUL_UNKNOWN

    def __post_init__(self):
        if self.koszul not in (KOSZUL_ASSERTED, KOSZUL_AUTO, KOSZUL_UNKNOWN):
            raise IdealError(f"unknown koszul marker {self.koszul!r}")

    @property
    def quiver(self) -> Quiver:
        return self.ideal.quiver


def make_presentation(ideal: IdealSpec, koszul_asserted: bool = False
                      ) -> AlgebraPresentation:
    """Build a presentation; purely monomial ideals are certified Koszul
    automatically (quadratic monomial algebras are Koszul)."""
    if koszul_asserted:
        marker = KOSZUL_ASSERTED
    elif not ideal.relations:
        marker = KOSZUL_AUTO
    else:
        marker = KOSZUL_UNKNOWN
    return AlgebraPresentation(ideal, marker)
