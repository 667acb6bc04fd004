"""Shared test utilities: fixture loading, quick builders, random instances."""
from __future__ import annotations

import random
from importlib import resources

from pacqa.dsl import SpecDocument, parse_spec
from pacqa.ideal import (ANTICOMMUTATIVE, COMMUTATIVE, IdealSpec,
                         validate_ideal)
from pacqa.quiver import build_quiver
from raw_rows_reference import count_paths

FIXTURES = (
    "comm_two_loops_arrow",
    "monomial_two_loops_two_arrows",
    "anti_four_loops_free_pair",
    "anti_two_loops_arrow",
    "comm_four_loops_arrow_out",
    "anti_four_loops_full",
)


def fixture_text(name: str) -> str:
    return (resources.files("pacqa") / "fixtures"
            / f"{name}.quiver").read_text(encoding="utf-8")


def fixture_doc(name: str) -> SpecDocument:
    return parse_spec(fixture_text(name))


def fixture_ideal(name: str) -> IdealSpec:
    return fixture_doc(name).ideal


def fixture_path(name: str) -> str:
    return str(resources.files("pacqa") / "fixtures" / f"{name}.quiver")


def build(vertices, arrows, flavor=COMMUTATIVE, monomials=(), relations=(),
          char=0) -> IdealSpec:
    quiver = build_quiver(vertices, arrows)
    return validate_ideal(quiver, flavor, monomials, relations, char)


def two_loop_polynomial() -> IdealSpec:
    """K[a,b] presented as two commuting loops."""
    return build(["x"], [("a", "x", "x"), ("b", "x", "x")],
                 COMMUTATIVE, relations=[("a", "b")])


def layered_text(width: int) -> str:
    """Three layers of ``width`` parallel arrows x0 -> x1 -> x2 -> x3, each
    composition of two layers a monomial generator, plus a path of four
    arrows e0..e3: degrees 1..4 have 3w + 4, 2w^2 + 3, w^3 + 2 and 1
    paths, so the path counts fall after degree 3."""
    layers = "pqr"
    arrows = [f"{l}{i}: x{k}->x{k + 1}" for k, l in enumerate(layers)
              for i in range(width)]
    arrows += [f"e{k}: y{k}->y{k + 1}" for k in range(4)]
    zero = [f"{l}{i}*{m}{j}" for l, m in zip(layers, layers[1:])
            for i in range(width) for j in range(width)]
    vertices = [f"x{k}" for k in range(4)] + [f"y{k}" for k in range(5)]
    return "".join(f"{key}{', '.join(items)}\n" for key, items in (
        ("vertices: ", vertices), ("arrows: ", arrows),
        ("ideal commutative", ()), ("zero: ", zero)))


def words(*texts: str) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(t) for t in texts)


def random_instance(rng: random.Random) -> IdealSpec:
    """A random valid ideal over a small quiver: at most 2 vertices, 4
    loops and 2 connecting arrows, both flavors, varied density."""
    two = rng.random() < 0.4
    if two:
        vertices = ["x", "y"]
        loops_x = rng.randint(0, 3)
        loops_y = rng.randint(0, max(0, 3 - loops_x))
        arrows = [(f"l{i}", "x", "x") for i in range(loops_x)]
        arrows += [(f"m{i}", "y", "y") for i in range(loops_y)]
        n_conn = rng.randint(1, 2)
        arrows.append(("u", "x", "y"))
        if n_conn == 2:
            arrows.append(("v", "y", "x"))
    else:
        vertices = ["x"]
        n_loops = rng.choice([1, 2, 2, 3, 3, 4])
        arrows = [(f"l{i}", "x", "x") for i in range(n_loops)]
    if not arrows:
        arrows = [("l0", "x", "x")]
    quiver = build_quiver(vertices, arrows)
    flavor, monomials, relations = _random_generators(rng, quiver)
    char = 2 if rng.random() < 0.05 else 0
    return validate_ideal(quiver, flavor, monomials, relations, char)


def random_multi_vertex_instance(rng: random.Random) -> IdealSpec:
    """A random valid ideal over 2-5 vertices: an oriented cycle through two
    or more of them, up to three more arrows (chords or parallel copies),
    up to three loops on the cycle's vertices, declared in shuffled order;
    both flavors, characteristics 0, 2, 3 and 5."""
    vertices = [f"v{i}" for i in range(rng.randint(2, 5))]
    cycle = rng.sample(vertices, rng.randint(2, len(vertices)))
    ends = list(zip(cycle, cycle[1:] + cycle[:1]))
    for _ in range(rng.randint(0, 3)):
        ends.append(rng.choice(ends) if rng.random() < 0.5
                    else tuple(rng.sample(vertices, 2)))
    ends += [(v, v) for v in rng.choices(cycle, k=rng.randint(0, 3))]
    rng.shuffle(ends)
    quiver = build_quiver(vertices, [(f"a{i}", s, t)
                                     for i, (s, t) in enumerate(ends)])
    flavor, monomials, relations = _random_generators(rng, quiver)
    return validate_ideal(quiver, flavor, monomials, relations,
                          rng.choice([0, 0, 2, 3, 5]))


def random_theorem_instance(rng: random.Random) -> IdealSpec:
    """A random square-free ideal whose orthogonal is admissible: 1-3
    vertices with 1-4 loops each and, on two or more vertices, 1-3 arrows
    between them, declared in shuffled order.  Every monomial ``a*b`` has
    ``a`` before ``b`` in one random total order of the arrows, so the
    generator graph is acyclic.  Each pair of co-based loops may be
    related; any pair not related may be a monomial, taken in that order.
    Both flavors, characteristics 0, 2, 3 and 5."""
    vertices = [f"v{i}" for i in range(rng.randint(1, 3))]
    ends = [(v, v) for v in vertices for _ in range(rng.randint(1, 4))]
    if len(vertices) > 1:
        ends += [tuple(rng.sample(vertices, 2))
                 for _ in range(rng.randint(1, 3))]
    rng.shuffle(ends)
    quiver = build_quiver(vertices, [(f"a{i}", s, t)
                                     for i, (s, t) in enumerate(ends)])
    names = quiver.arrow_names
    rank = {a: i for i, a in enumerate(rng.sample(names, len(names)))}
    p_mono, p_rel = rng.choice([(0.2, 0.7), (0.5, 0.5), (0.8, 0.3)])
    monomials, relations = [], []
    for a in names:
        for b in names:
            if rank[a] >= rank[b] or not quiver.composable(a, b):
                continue
            if quiver.is_loop(a) and quiver.is_loop(b) \
                    and rng.random() < p_rel:
                relations.append((a, b))
            elif rng.random() < p_mono:
                monomials.append((a, b))
    return validate_ideal(quiver, rng.choice([COMMUTATIVE, ANTICOMMUTATIVE]),
                          monomials, relations, rng.choice([0, 0, 2, 3, 5]))


def _random_generators(rng: random.Random, quiver):
    """(flavor, monomials, relations) drawn over the composable pairs of
    ``quiver``: relations only between distinct loops at one vertex."""
    flavor = rng.choice([COMMUTATIVE, ANTICOMMUTATIVE])
    profile = rng.choice(["dense", "dense", "sparse", "squares"])
    p_mono = {"dense": 0.45, "sparse": 0.12, "squares": 0.5}[profile]
    p_rel = {"dense": 0.45, "sparse": 0.6, "squares": 0.3}[profile]
    p_square = {"dense": 0.4, "sparse": 0.0, "squares": 0.9}[profile]

    names = quiver.arrow_names
    monomials: set[tuple[str, str]] = set()
    relations: set[tuple[str, str]] = set()
    seen_pairs: set[frozenset[str]] = set()
    for a in names:
        for b in names:
            if not quiver.composable(a, b):
                continue
            if a == b:
                if rng.random() < p_square:
                    monomials.add((a, a))
                continue
            co_based_loops = (quiver.is_loop(a) and quiver.is_loop(b)
                              and quiver.origin(a) == quiver.origin(b))
            if co_based_loops:
                key = frozenset((a, b))
                if key in seen_pairs:
                    continue
                seen_pairs.add(key)
                if rng.random() < p_rel:
                    relations.add(tuple(sorted((a, b),
                                               key=quiver.arrow_index)))
                else:
                    if rng.random() < p_mono:
                        monomials.add((a, b))
                    if rng.random() < p_mono:
                        monomials.add((b, a))
            else:
                if rng.random() < p_mono:
                    monomials.add((a, b))
    return flavor, sorted(monomials), sorted(relations)


def random_surviving_word(rng: random.Random, spec: IdealSpec,
                          max_len: int = 7, attempts: int = 30):
    """A random path word not in the ideal, or None."""
    from pacqa.normalform import monomial_in_ideal

    names = spec.quiver.arrow_names
    if not names:
        return None
    for _ in range(attempts):
        length = rng.randint(2, max_len)
        word = [rng.choice(names)]
        ok = True
        for _ in range(length - 1):
            nxt = [b for b in names if spec.quiver.composable(word[-1], b)]
            if not nxt:
                ok = False
                break
            word.append(rng.choice(nxt))
        if ok and not monomial_in_ideal(spec, tuple(word)):
            return tuple(word)
    return None


# Differential sizes: every degree 2..6 slice of up to this many paths.
# The raw route's own cap (SELF_CHECK_PATH_CAP) is lower; the differential
# tests that read the shared raw quotient raise it to this.
DIFFERENTIAL_PATH_CAP = 4_096


def differential_cases(seed: int, instances: int, multi_vertex: int = 0):
    """(rng, spec, degree) over the fixtures, random instances and then
    ``multi_vertex`` multi-vertex instances (drawn from a stream of their
    own, so the other cases stay as they were), for every degree slice
    within the cap."""
    rng = random.Random(seed)
    specs = [fixture_ideal(name) for name in FIXTURES]
    specs += [random_instance(rng) for _ in range(instances)]
    wide = random.Random(f"multi-vertex-{seed}")
    specs += [random_multi_vertex_instance(wide)
              for _ in range(multi_vertex)]
    for spec in specs:
        for degree in range(2, 7):
            if count_paths(spec, degree) <= DIFFERENTIAL_PATH_CAP:
                yield rng, spec, degree
