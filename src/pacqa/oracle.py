"""Ground-truth engine: exact linear algebra over the truncated quotient.

Independent of the clique machinery, this module computes quotient bases
degree by degree, solves the centralizer equations ``a z = ±z a`` exactly to
get the center or the graded center, verifies non-nilpotence of central
monomials, and produces degreewise finite-generation evidence by saturating
products of lower-degree central elements.

The basis frontier extends each canonical word by one arrow with the
normal-form append rule, O(degree + arrows) per extension instead of a full
normal form; the results stay in the spec's form memo, where the center's
right products and the nilpotence powers read them.
The self-check recomputes each small degree from the generators alone:
every row ``p * generator * q`` is a unit or a signed binomial, so the raw
quotient is a parity union-find over the paths (:class:`_SignedQuotient`),
lifted from the degree below (:func:`_lift`).  It is the one place where
the two membership routes meet, on every path of the degree, signs
included (:func:`_check_level`).
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from .center import CenterBasis, CenterElement, cycle_survivors
from .errors import BudgetError, FalsificationError
from .ideal import IdealSpec, _per_ideal, is_square_free
from .linalg import Field, SpanBasis, nullspace
from .normalform import (_extend, _form, _frontier_start,
                         canonical_index_form, context_for)
from .quiver import Path

Word = tuple[str, ...]

BASIS_BUDGET = 200_000
SELF_CHECK_PATH_CAP = 320


@dataclass(frozen=True)
class TruncatedAlgebra:
    """Canonical monomial bases of the quotient, degree by degree.

    Degree 0 is spanned by the vertex idempotents; each higher degree by one
    lexicographically minimal word per surviving equivalence class.
    """

    spec: IdealSpec
    max_degree: int
    basis: tuple[tuple[Word, ...], ...]  # index d -> canonical words
    self_checked: tuple[int, ...]  # degrees matched against the raw quotient

    @property
    def dimensions(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.basis)


class _SignedQuotient:
    """The quotient, over a field of characteristic ``char``, of the space
    on columns ``0..size-1`` by unit rows ``x_c`` (:meth:`kill`) and
    binomial rows ``x_c - (-1)^odd x_d`` (:meth:`join`), as a parity
    union-find with union by size (Tarjan, JACM 22, 1975) whose parities
    are bits, never field elements.

    Exact: a spanning tree of a component K of the binomial graph, rooted
    at r, gives each c in K a sign s_c with ``x_c - s_c x_r`` in the span.
    Modulo these |K| - 1 tree rows, any other binomial on K is
    ``(s_c - (-1)^odd s_d) x_r``, nonzero only where it closes an odd cycle
    and 2 != 0, and a unit row is ``s_c x_r``; so the span on K is all of
    K's columns if K holds either, else the kernel of ``x_c -> s_c``.
    Components share no column: each live one adds one dimension, and a
    vector lies in the span iff its signed sum on every live one is zero.
    """

    def __init__(self, size: int, char: int, forest=None):
        self.char = char
        # parent, parity to it, and at a root: size, and whether it is zero
        self._parent, self._odd, self._size, self._dead = forest or (
            list(range(size)), [0] * size, [1] * size, [False] * size)

    def _find(self, c: int) -> tuple[int, int]:
        """``(root, parity)`` with ``x_c = (-1)^parity x_root``; reads only,
        so threads may share a built quotient."""
        parity = 0
        while self._parent[c] != c:
            parity ^= self._odd[c]
            c = self._parent[c]
        return c, parity

    def kill(self, c: int) -> None:
        self._dead[self._find(c)[0]] = True

    def join(self, c: int, d: int, odd: int) -> None:
        (rc, pc), (rd, pd) = self._find(c), self._find(d)
        if rc == rd:
            if pc ^ pd ^ odd and self.char != 2:  # x_c = -x_c
                self._dead[rc] = True
            return
        if self._size[rc] < self._size[rd]:  # the tree depth stays log
            rc, rd = rd, rc
        self._parent[rd], self._odd[rd] = rc, pc ^ pd ^ odd
        self._size[rc] += self._size[rd]
        self._dead[rc] = self._dead[rc] or self._dead[rd]

    def signed_class(self, c: int) -> tuple[int, int] | None:
        """``(root, parity)`` of column ``c``'s class, with ``x_c =
        (-1)^parity x_root``, or None when the class is 0."""
        root, parity = self._find(c)
        return None if self._dead[root] else (root, parity)

    @property
    def dimension(self) -> int:
        return sum(p == c and not self._dead[c]
                   for c, p in enumerate(self._parent))


@_per_ideal
def _raw_levels(spec: IdealSpec) -> dict[int, tuple | None]:
    """Degree d -> ``(first, last, quotient)``, filled from degree 1 up,
    with None at the first degree of more than ``SELF_CHECK_PATH_CAP``
    paths, where it stops: no level over the cap is ever built.
    Columns are paths in lexicographic order of index words: column c is a
    column p below followed by the arrow ``last[c]``, and p's children fill
    the block from ``first[p]`` in ``after`` order; at degree 1, arrows."""
    n = len(context_for(spec).after)
    return {1: ([], list(range(n)), _SignedQuotient(n, spec.field_char))
            if n <= SELF_CHECK_PATH_CAP else None}


def _lift(spec: IdealSpec, low: tuple, degree: int) -> tuple | None:
    """The level of ``degree`` from the level below (``low``), in one pass,
    or None when it would have more than ``SELF_CHECK_PATH_CAP`` columns:
    every row ``p * g * q`` of degree d with q nonempty is a row of degree
    d - 1 times q's last arrow, so the ideal's slice is ``I_{d-1} * arrows
    + L_d``, where the rows of ``L_d`` hold g in the last two places.  Right
    multiplication by an arrow b maps columns one-to-one, and a component
    shares its end vertex, so all of it or none of it extends by b.  So it
    carries low's forest over: child ``p*b`` hangs under ``parent(p)*b``
    with p's parity, and a root's children inherit its size and deadness.
    That forest spans ``I_{d-1} * arrows`` exactly (tree rows times b, and
    ``x_{r*b}`` for each dead root r); the union-find adds ``L_d`` exactly.
    """
    ctx = context_for(spec)
    after, (_, low_last, low_q) = ctx.after, low
    if sum(len(after[a]) for a in low_last) > SELF_CHECK_PATH_CAP:
        return None
    first, prefix, last = [], [], []
    ends: list[list[int]] = [[] for _ in after]  # arrow -> low columns
    for p, a in enumerate(low_last):
        first.append(len(last))
        prefix += [p] * len(after[a])
        last += after[a]
        ends[a].append(p)
    parent = [first[low_q._parent[p]] + c - first[p]
              for c, p in enumerate(prefix)]
    quotient = _SignedQuotient(len(last), low_q.char, (parent, *(
        [lows[p] for p in prefix]
        for lows in (low_q._odd, low_q._size, low_q._dead))))
    for a, b in spec.monomials:
        u, v = ctx.index[a], ctx.index[b]
        for p in ends[u]:
            quotient.kill(first[p] + after[u].index(v))
    for a, b in spec.relations:
        u, v = ctx.index[a], ctx.index[b]
        # u, v are loops at one vertex, so x*v sits ``shift`` columns from
        # x*u below, whatever x is: at degree 1 the columns are the arrows
        shift = v - u if degree == 2 else (
            after[u].index(v) - after[u].index(u))
        for p in ends[u]:
            quotient.join(first[p] + after[u].index(v),
                          first[p + shift] + after[v].index(u), ctx.eps < 0)
    return first, last, quotient


def _raw_span(spec: IdealSpec, degree: int) -> _SignedQuotient | None:
    """The raw quotient of one degree slice, from the generators alone,
    lifted level by level (:func:`_lift`); None from the first degree over
    the cap up.  A level enters the memo only when complete, and the first
    one stored wins, so a reader in another thread never sees a partial or
    a replaced one (two threads may both build it)."""
    levels = _raw_levels(spec)
    for d in range(2, degree + 1):
        if levels[d - 1] is None:
            return None
        if d not in levels:
            levels.setdefault(d, _lift(spec, levels[d - 1], d))
    level = levels[degree]
    return None if level is None else level[2]


def _raw_column(spec: IdealSpec, word: tuple[int, ...]) -> int | None:
    """The column of an index word of a degree :func:`_raw_span` built, by
    an O(degree) walk over the child offsets; None for a non-path."""
    c, levels, after = word[0], _raw_levels(spec), context_for(spec).after
    for d, (a, b) in enumerate(zip(word, word[1:]), 2):
        if b not in after[a]:
            return None
        c = levels[d][0][c] + after[a].index(b)
    return c


def _check_level(quotient: _SignedQuotient, paths: list, frontier: dict,
                 degree: int) -> None:
    """Compare the two routes on every path of one lifted degree, given each
    raw column's normal form as ``(odd sign, canonical word)`` or None.  A
    path is zero by both routes or by neither, the paths of one canonical
    word share one signed raw class, and the canonical words are the
    frontier's, one class each."""
    classes: dict[tuple[int, ...], tuple[int, int]] = {}
    for c, (_, form) in enumerate(paths):
        raw = quotient.signed_class(c)
        if (raw is None) != (form is None) or form and classes.setdefault(
                form[1], signed := (raw[0], raw[1] ^ form[0])) != signed:
            break
    else:
        if classes.keys() == frontier.keys() and len(
                {root for root, _ in classes.values()}) == len(classes):
            return
    raise FalsificationError(
        f"degree {degree}: the normal forms disagree with the raw classes")


def quotient_basis_upto(spec: IdealSpec, max_degree: int) -> TruncatedAlgebra:
    """Canonical bases of degrees 0..max_degree, at most ``BASIS_BUDGET``
    words in all.

    The frontier route extends surviving canonical words arrow by arrow; a
    prefix of a surviving word survives, so this reaches every class.  Each
    word carries its trace state and grows by the append rule
    (:func:`normalform._extend`), which also fills the form memo that the
    center's right products read.  Up to the first degree of more than
    ``SELF_CHECK_PATH_CAP`` paths, :func:`_raw_span` lifts each degree, and
    the raw quotient checks it path by path (:func:`_check_level`).  In
    raw column order, path ``p*y`` takes its form from p's: p's sign times
    the memoised form of p's canonical word times y.
    """
    ctx = context_for(spec)
    basis: list[tuple[Word, ...]] = [tuple(spec.quiver.vertices)]
    frontier = _frontier_start(ctx)
    paths = [(w[0], (0, w)) for w in frontier]  # (last arrow, form)
    total = 0
    checked: list[int] = []
    for d in range(1, max_degree + 1):
        if d > 1:
            frontier = _extend(ctx, frontier)
        words = sorted(frontier)
        total += len(words)
        if total > BASIS_BUDGET:
            raise BudgetError(
                f"quotient basis exceeds the budget of {BASIS_BUDGET} words "
                f"at degree {d}")
        if (quotient := _raw_span(spec, d)) is not None:
            if d > 1:
                paths = [(y, f and (g := _form(ctx, f[1] + (y,)))
                          and (f[0] ^ (g[0] < 0), g[1]))
                         for x, f in paths for y in ctx.after[x]]
            _check_level(quotient, paths, frontier, d)
            checked.append(d)
        basis.append(tuple(ctx.decode(w) for w in words))
    return TruncatedAlgebra(spec, max_degree, tuple(basis), tuple(checked))


def raw_monomial_in_ideal(spec: IdealSpec, word: Path | Sequence[str]
                          ) -> bool:
    """Ideal membership read off the raw quotient, independent of the
    normal forms: the word's column lies in a zero class.  Takes the words
    :func:`normalform.monomial_in_ideal` takes; a ``BudgetError`` where the
    word's degree or one below it has more than ``SELF_CHECK_PATH_CAP``
    paths."""
    word = spec.quiver.word(word)
    degree = len(word)
    if degree < 2:
        return False
    quotient = _raw_span(spec, degree)
    if quotient is None:
        raise BudgetError("path list too large for the raw membership route")
    return quotient.signed_class(
        _raw_column(spec, context_for(spec).encode(word))) is None


def oracle_center_upto(spec: IdealSpec, max_degree: int, *,
                       graded: bool = False,
                       algebra: TruncatedAlgebra | None = None
                       ) -> CenterBasis:
    """Solve ``a z = ±z a`` for every arrow exactly, degree by degree: the
    sign is + for the center and (-1)^d on degree d for the ``graded``
    center, so in characteristic 2 both are the center.

    Candidates are restricted to cycle words (the center of a path algebra
    quotient is spanned by cycles; the vertex-idempotent equations are then
    automatic), and the linear system splits into blocks by arrow multiset:
    multiplying by an arrow maps one multiset block into another, so the
    split is plain sparsity, not an assumption.
    """
    if algebra is None:
        algebra = quotient_basis_upto(spec, max_degree + 1)
    if algebra.max_degree < max_degree + 1:
        raise BudgetError("algebra truncation too small for this degree")
    ctx = context_for(spec)
    field = Field(spec.field_char)
    q = spec.quiver
    by_degree: list[tuple[int, tuple[CenterElement, ...]]] = []
    # centers are monomial when square-free AND loop-supported; a surviving
    # multi-vertex cycle allows genuine sums over rotations
    expect_monomial = (is_square_free(spec)
                       and cycle_survivors(spec)[0] is None)
    for d in range(1, max_degree + 1):
        right = 1 if graded and d % 2 else -1  # minus the sign of z a
        cycles = [ctx.encode(w) for w in algebra.basis[d]
                  if q.origin(w[0]) == q.target(w[-1])]
        blocks: dict[tuple[int, ...], list[tuple[int, ...]]] = defaultdict(list)
        for w in cycles:
            blocks[tuple(sorted(w))].append(w)  # the arrow multiset
        elements: list[CenterElement] = []
        for key in sorted(blocks):
            block = sorted(blocks[key])
            sparse_rows: dict[tuple[int, tuple[int, ...]], dict[int, int]]
            sparse_rows = defaultdict(dict)
            for j, w in enumerate(block):
                # row (a, rep) of ``a w ∓ w a``: left products, then right
                products = [(a, (a,) + w, 1) for a in ctx.before[w[0]]]
                products += [(a, w + (a,), right) for a in ctx.after[w[-1]]]
                for a, word, side in products:
                    if cf := canonical_index_form(ctx, word):
                        sign, rep = cf
                        row = sparse_rows[(a, rep)]
                        row[j] = row.get(j, 0) + side * sign
            matrix = []
            for sparse in sparse_rows.values():
                row = {j: x for j, v in sparse.items() if (x := field.of(v))}
                if row:
                    matrix.append(row)
            for vec in nullspace(matrix, len(block), field):
                terms = tuple(
                    (coeff, ctx.decode(block[j]))
                    for j, coeff in enumerate(vec) if coeff)
                basepoints = {q.origin(w[0]) for _, w in terms}
                element = CenterElement(
                    terms, basepoints.pop() if len(basepoints) == 1 else None)
                if expect_monomial and not element.is_monomial:
                    raise FalsificationError(
                        "square-free loop-supported ideal but the center "
                        "solver produced a non-monomial basis element "
                        + element.render())
                elements.append(element)
        elements.sort(key=lambda e: q.word_key(e.terms[0][1]))
        if elements:
            by_degree.append((d, tuple(elements)))
    return CenterBasis(
        flavor=spec.flavor,
        max_degree=max_degree,
        provenance="oracle",
        by_degree=tuple(by_degree),
        identity_components=len(q.connected_components),
        notes=(),
    )


@dataclass(frozen=True)
class NilpotenceReport:
    checks: tuple[tuple[Word, int, bool], ...]  # (monomial, power, nonzero)

    @property
    def all_nonzero(self) -> bool:
        return all(ok for _, _, ok in self.checks)


def oracle_nilpotence_check(spec: IdealSpec, basis: CenterBasis,
                            max_degree: int) -> NilpotenceReport:
    """For each central monomial p, verify p^floor(D/deg p) is nonzero; for
    a square-free ideal any failure falsifies the no-nilpotents guarantee."""
    ctx = context_for(spec)
    checks = []
    for _, elements in basis.by_degree:
        for element in elements:
            if not element.is_monomial:
                continue
            word = ctx.encode(element.word)
            power = max_degree // len(word)
            if power < 1:
                continue
            ok = canonical_index_form(ctx, word * power) is not None
            checks.append((element.word, power, ok))
    report = NilpotenceReport(tuple(checks))
    if is_square_free(spec) and not report.all_nonzero:
        bad = [(w, p) for w, p, ok in checks if not ok]
        raise FalsificationError(
            f"nilpotent central monomials over a square-free ideal: {bad}")
    return report


@dataclass(frozen=True)
class FgEvidence:
    max_degree: int
    rows: tuple[tuple[int, int, int], ...]  # (degree, center dim, new dim)

    @property
    def new_generator_degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _, new in self.rows if new > 0)


def oracle_fg_evidence(spec: IdealSpec, max_degree: int) -> FgEvidence:
    """Degreewise saturation: at each degree, how much of the center lies
    outside the span of products of lower-degree central elements.

    An infinitely generated center keeps producing new generators; a center
    generated in low degree saturates immediately.
    """
    center = oracle_center_upto(spec, max_degree)
    ctx = context_for(spec)
    field = Field(spec.field_char)

    def multiply(left, right):
        out: dict[tuple[int, ...], object] = {}
        for lw, lc in left.items():
            for rw, rc in right.items():
                if rw[0] in ctx.after[lw[-1]] and (
                        cf := canonical_index_form(ctx, lw + rw)):
                    sign, rep = cf
                    out[rep] = field.of(out.get(rep, 0) + lc * rc * sign)
        return {rep: c for rep, c in out.items() if c}

    # central elements as vectors on canonical index words, which order as
    # the basis columns do; their coefficients are already field elements
    center_vectors = {d: [{ctx.encode(w): c for c, w in e.terms}
                          for e in center.degree_slice(d)]
                      for d in range(1, max_degree + 1)}

    # subalgebra_slice[g]: elements spanning the degree-g part of the
    # subalgebra generated by all central elements of degree <= g
    subalgebra_slice: dict[int, list] = {}
    rows: list[tuple[int, int, int]] = []
    for d in range(1, max_degree + 1):
        product_span = SpanBasis(field)
        product_elements: list = []
        for e in range(1, d):
            for z in center_vectors[e]:
                for h in subalgebra_slice.get(d - e, ()):
                    prod = multiply(z, h)
                    if product_span.add(prod):
                        product_elements.append(prod)
        new_elements = [z for z in center_vectors[d] if product_span.add(z)]
        rows.append((d, len(center_vectors[d]), len(new_elements)))
        subalgebra_slice[d] = product_elements + new_elements
    return FgEvidence(max_degree, tuple(rows))
