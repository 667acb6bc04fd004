"""Ground-truth engine: exact linear algebra over the truncated quotient.

Independent of the clique machinery, this module computes quotient bases
degree by degree, solves the centralizer equations ``a z = z a`` exactly to
get the center, verifies non-nilpotence of central monomials, and produces
degreewise finite-generation evidence by saturating products of
lower-degree central elements.

The basis frontier extends each canonical word by one arrow with the
normal-form append rule, O(degree + arrows) per extension instead of a full
normal form; the results stay in the spec's form memo, where the center's
right products and the nilpotence powers read them.
The self-check recomputes each small degree by raw Gaussian elimination over
the full path list: the span of every ``p * generator * q``, single-entry
rows first, then the binomials, in generic sparse elimination.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .center import CenterBasis, CenterElement, surviving_multi_vertex_cycle
from .errors import BudgetError, FalsificationError
from .ideal import IdealSpec, _per_ideal, is_square_free
from .linalg import SpanBasis, field_for, nullspace
from .normalform import (_extend, _frontier_start, canonical_index_form,
                         context_for)

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
    self_checked: tuple[int, ...]  # degrees re-verified by raw elimination

    @property
    def dimensions(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.basis)


def enumerate_paths(spec: IdealSpec, degree: int) -> list[tuple[int, ...]]:
    """All paths of the given degree as index words, lexicographically."""
    if degree == 0:
        return []
    after = context_for(spec).after
    words = [(i,) for i in range(len(after))]
    for _ in range(degree - 1):
        words = [w + (j,) for w in words for j in after[w[-1]]]
    return words


@_per_ideal
def _path_counts(spec: IdealSpec) -> dict[int, int]:
    """Degree -> number of paths, filled in by :func:`count_paths`."""
    return {}


def count_paths(spec: IdealSpec, degree: int) -> int:
    """The number of paths of the given degree, computed once per spec and
    degree."""
    counts = _path_counts(spec)
    if degree not in counts:
        if degree == 0:
            counts[degree] = len(spec.quiver.vertices)
        else:
            before = context_for(spec).before
            ending = [1] * len(before)  # arrow -> paths ending in it
            for _ in range(degree - 1):
                ending = [sum(ending[i] for i in into) for into in before]
            counts[degree] = sum(ending)
    return counts[degree]


def _generator_rows(spec: IdealSpec, degree: int, field):
    """Rows spanning the degree slice of the ideal over the full path list:
    one ``{column: coefficient}`` row of at most two entries per product
    p * generator * q, where a path holding several monomial generators
    gets its unit row once.  Returns (column of each path, rows); the path
    order defines the columns."""
    ctx = context_for(spec)
    col = {w: i for i, w in enumerate(enumerate_paths(spec, degree))}
    one = field.of(1)
    minus_eps = field.neg(field.of(ctx.eps))
    pairs = ([(ctx.index[a], ctx.index[b], False) for a, b in spec.monomials]
             + [(ctx.index[a], ctx.index[b], True) for a, b in spec.relations])
    # length -> the paths of that length, with the empty word at 0
    walks = [[()]] + [enumerate_paths(spec, k) for k in range(1, degree - 1)]

    rows = []
    units = set()  # columns whose unit row is already emitted
    for i in range(degree - 1):
        for u, v, is_rel in pairs:
            for p in walks[i]:
                if p and u not in ctx.after[p[-1]]:
                    continue
                for q in walks[degree - 2 - i]:
                    if q and q[0] not in ctx.after[v]:
                        continue
                    c = col[p + (u, v) + q]
                    if is_rel:
                        # relation generator uv - eps*vu
                        rows.append({c: one, col[p + (v, u) + q]: minus_eps})
                    elif c not in units:
                        units.add(c)
                        rows.append({c: one})
    return col, rows


@_per_ideal
def _raw_spans(spec: IdealSpec) -> dict[int, tuple[dict, SpanBasis]]:
    """Degree -> (column of each path, span of the ideal's degree slice)."""
    return {}


def _raw_span(spec: IdealSpec, degree: int) -> tuple[dict, SpanBasis]:
    """The raw span of one degree slice, built once per spec and degree.
    The single-entry rows go in before the binomial rows, so each binomial
    meets its zero columns already eliminated; the RREF is unique, so the
    order changes no row.  A span enters the memo only when complete, so a
    reader in another thread never sees a partial one (two threads may both
    build it)."""
    spans = _raw_spans(spec)
    if degree not in spans:
        field = field_for(spec.field_char)
        col, rows = _generator_rows(spec, degree, field)
        span = SpanBasis(field)
        for row in sorted(rows, key=len):  # stable: units first
            span.add(row)
        spans[degree] = (col, span)
    return spans[degree]


def _raw_dimension(spec: IdealSpec, degree: int) -> int:
    """Quotient dimension at one degree by raw elimination:
    dim = #paths - rank(span of p * generator * q)."""
    col, span = _raw_span(spec, degree)
    return len(col) - span.dimension


def quotient_basis_upto(spec: IdealSpec, max_degree: int, *,
                        self_check: bool = True,
                        budget: int = BASIS_BUDGET) -> TruncatedAlgebra:
    """Canonical bases of degrees 0..max_degree.

    The frontier route extends surviving canonical words arrow by arrow; a
    prefix of a surviving word survives, so this reaches every class.  Each
    word carries its trace state and grows by the append rule
    (:func:`normalform._extend`), which also fills the form memo that the
    center's right products read.  When the raw path count at a degree is
    small enough the dimension is recomputed by raw elimination and
    compared.
    """
    ctx = context_for(spec)
    basis: list[tuple[Word, ...]] = [tuple(spec.quiver.vertices)]
    frontier = _frontier_start(ctx)
    total = 0
    checked: list[int] = []
    for d in range(1, max_degree + 1):
        if d > 1:
            frontier = _extend(ctx, frontier)
        words = sorted(frontier)
        total += len(words)
        if total > budget:
            raise BudgetError(
                f"quotient basis exceeds the budget of {budget} words at "
                f"degree {d}")
        if self_check and count_paths(spec, d) <= SELF_CHECK_PATH_CAP:
            raw = _raw_dimension(spec, d)
            if raw != len(words):
                raise FalsificationError(
                    f"degree {d}: class-based dimension {len(words)} "
                    f"disagrees with raw elimination {raw}")
            checked.append(d)
        basis.append(tuple(ctx.decode(w) for w in words))
    return TruncatedAlgebra(spec, max_degree, tuple(basis), tuple(checked))


def raw_monomial_in_ideal(spec: IdealSpec, word: Word) -> bool:
    """Ideal membership by raw span reduction, independent of the normal
    forms; only for degrees where the full path list is affordable."""
    degree = len(word)
    if degree < 2:
        return False
    if count_paths(spec, degree) > SELF_CHECK_PATH_CAP:
        raise BudgetError("path list too large for the raw membership route")
    col, span = _raw_span(spec, degree)
    target = context_for(spec).encode(word)
    if target not in col:
        raise FalsificationError(f"{'*'.join(word)} is not a path")
    return span.contains({col[target]: span.field.of(1)})


def _multiset(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(word))


def oracle_center_upto(spec: IdealSpec, max_degree: int, *,
                       algebra: TruncatedAlgebra | None = None
                       ) -> CenterBasis:
    """Solve ``a z = z a`` for every arrow exactly, degree by degree.

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
    field = field_for(spec.field_char)
    q = spec.quiver
    by_degree: list[tuple[int, tuple[CenterElement, ...]]] = []
    # centers are monomial when square-free AND loop-supported; a surviving
    # multi-vertex cycle allows genuine sums over rotations
    expect_monomial = (is_square_free(spec)
                       and surviving_multi_vertex_cycle(spec) is None)
    for d in range(1, max_degree + 1):
        cycles = [ctx.encode(w) for w in algebra.basis[d]
                  if q.origin(w[0]) == q.target(w[-1])]
        blocks: dict[tuple[int, ...], list[tuple[int, ...]]] = defaultdict(list)
        for w in cycles:
            blocks[_multiset(w)].append(w)
        elements: list[CenterElement] = []
        for key in sorted(blocks):
            block = sorted(blocks[key])
            col = {w: i for i, w in enumerate(block)}
            sparse_rows: dict[tuple[int, tuple[int, ...]], dict[int, int]]
            sparse_rows = defaultdict(dict)
            for w in block:
                for a in ctx.before[w[0]]:
                    cf = canonical_index_form(ctx, (a,) + w)
                    if cf is not None:
                        sign, rep = cf
                        row = sparse_rows[(a, rep)]
                        row[col[w]] = row.get(col[w], 0) + sign
                for a in ctx.after[w[-1]]:
                    cf = canonical_index_form(ctx, w + (a,))
                    if cf is not None:
                        sign, rep = cf
                        row = sparse_rows[(a, rep)]
                        row[col[w]] = row.get(col[w], 0) - sign
            matrix = []
            for _, sparse in sorted(sparse_rows.items()):
                row = {j: field.of(v) for j, v in sparse.items()}
                row = {j: x for j, x in row.items() if not field.is_zero(x)}
                if row:
                    matrix.append(row)
            for vec in nullspace(matrix, len(block), field):
                terms = tuple(
                    (coeff, ctx.decode(block[j]))
                    for j, coeff in enumerate(vec)
                    if not field.is_zero(coeff))
                if not terms:
                    continue
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
    algebra = quotient_basis_upto(spec, max_degree + 1)
    center = oracle_center_upto(spec, max_degree, algebra=algebra)
    ctx = context_for(spec)
    field = field_for(spec.field_char)

    basis_cols = {
        d: {ctx.encode(w): i for i, w in enumerate(algebra.basis[d])}
        for d in range(1, max_degree + 1)
    }

    def fcoeff(c):
        return field.of(c) if isinstance(c, int) else c

    def to_vector(terms, degree):
        cols = basis_cols[degree]
        return {cols[ctx.encode(word)]: fcoeff(coeff) for coeff, word in terms}

    def multiply(left_terms, right_terms):
        out: dict[tuple[int, ...], object] = {}
        for lc, lw in left_terms:
            for rc, rw in right_terms:
                li, ri = ctx.encode(lw), ctx.encode(rw)
                if ri[0] not in ctx.after[li[-1]]:
                    continue
                cf = canonical_index_form(ctx, li + ri)
                if cf is None:
                    continue
                sign, rep = cf
                coeff = field.mul(field.mul(fcoeff(lc), fcoeff(rc)),
                                  field.of(sign))
                out[rep] = field.add(out.get(rep, field.of(0)), coeff)
        return [(c, ctx.decode(rep)) for rep, c in sorted(out.items())
                if not field.is_zero(c)]

    center_terms: dict[int, list] = {d: [] for d in range(1, max_degree + 1)}
    for d, elements in center.by_degree:
        center_terms[d] = [e.terms for e in elements]

    # subalgebra_slice[g]: elements spanning the degree-g part of the
    # subalgebra generated by all central elements of degree <= g
    subalgebra_slice: dict[int, list] = {}
    rows: list[tuple[int, int, int]] = []
    for d in range(1, max_degree + 1):
        product_span = SpanBasis(field)
        product_elements: list = []
        for e in range(1, d):
            for z in center_terms[e]:
                for h in subalgebra_slice.get(d - e, ()):
                    prod = multiply(z, h)
                    if prod and product_span.add(to_vector(prod, d)):
                        product_elements.append(prod)
        new_elements = [z for z in center_terms[d]
                        if product_span.add(to_vector(z, d))]
        rows.append((d, len(center_terms[d]), len(new_elements)))
        subalgebra_slice[d] = product_elements + new_elements
    return FgEvidence(max_degree, tuple(rows))
