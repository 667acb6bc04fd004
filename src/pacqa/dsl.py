"""Line-oriented spec files.

    # comment
    vertices: x, y
    arrows: a: x->x, b: x->x, c: x->y
    ideal commutative        (or: ideal anticommutative)
    char: 0                  (optional; 0 or a prime)
    zero: a*a, a*c           (monomial generators)
    comm: a*b                (relations; 'anti:' under the other flavor)
    koszul: asserted         (optional)

Lines accumulate; semantic validation reports the offending source line.
``print_spec(parse_spec(text))`` reparses to an identical document.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DslError, InputError
from .ideal import (ANTICOMMUTATIVE, COMMUTATIVE, MAX_FIELD_CHAR,
                    AlgebraPresentation, IdealSpec, make_presentation,
                    validate_ideal)
from .quiver import Quiver, build_quiver

NAME = r"[A-Za-z_][A-Za-z_0-9']*"
_NAME_RE = re.compile(rf"^{NAME}$")
_ARROW_RE = re.compile(rf"^({NAME})\s*:\s*({NAME})\s*->\s*({NAME})$")


@dataclass(frozen=True)
class SpecDocument:
    source: str
    quiver: Quiver
    ideal: IdealSpec
    koszul_asserted: bool
    notices: tuple[str, ...]

    @property
    def presentation(self) -> AlgebraPresentation:
        return make_presentation(self.ideal, self.koszul_asserted)


def _split_list(body: str, line: int) -> list[str]:
    items = [item.strip() for item in body.split(",")]
    if any(not item for item in items):
        raise DslError("empty list item", line)
    return items


def _parse_word(item: str, line: int) -> tuple[str, ...]:
    parts = [p.strip() for p in item.split("*")]
    if any(not _NAME_RE.match(p) for p in parts):
        raise DslError(f"bad word {item!r}", line)
    return tuple(parts)


def parse_spec(text: str) -> SpecDocument:
    vertices: list[str] | None = None
    arrows: list[tuple[str, str, str]] = []
    flavor: str | None = None
    char: int | None = None
    char_line = 0
    koszul = False
    monomials: list[tuple[tuple[str, str], int]] = []
    relations: list[tuple[tuple[str, str], int, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            if vertices is not None:
                raise DslError("duplicate vertices line", lineno)
            vertices = _split_list(line[len("vertices:"):], lineno)
            for v in vertices:
                if not _NAME_RE.match(v):
                    raise DslError(f"bad vertex name {v!r}", lineno)
        elif line.startswith("arrows:"):
            for item in _split_list(line[len("arrows:"):], lineno):
                m = _ARROW_RE.match(item)
                if not m:
                    raise DslError(
                        f"bad arrow {item!r}; expected name: origin->target",
                        lineno)
                arrows.append(m.groups())
        elif line.split(maxsplit=1)[0] == "ideal":
            word = line[len("ideal"):].strip()
            if word not in (COMMUTATIVE, ANTICOMMUTATIVE):
                raise DslError(
                    "expected 'ideal commutative' or 'ideal anticommutative'",
                    lineno)
            if flavor is not None:
                raise DslError("duplicate ideal line", lineno)
            flavor = word
        elif line.startswith("char:"):
            if char_line:
                raise DslError("duplicate char line", lineno)
            body = line[len("char:"):].strip()
            # [0-9]+ only: isdigit alone also takes "²" and "٣"
            if not (body.isascii() and body.isdigit()):
                raise DslError("char must be 0 or a prime", lineno)
            # a value with more digits than the bound is refused as the
            # bound, before int() could fail on a very long one
            char = (int(body) if len(body.lstrip("0"))
                    <= len(str(MAX_FIELD_CHAR)) else MAX_FIELD_CHAR)
            char_line = lineno
        elif line.startswith("zero:"):
            for item in _split_list(line[len("zero:"):], lineno):
                word = _parse_word(item, lineno)
                if len(word) != 2:
                    raise DslError(
                        f"generator {item!r} is not quadratic; only length-2 "
                        "words are allowed", lineno)
                monomials.append((word, lineno))
        elif line.startswith(("comm:", "anti:")):
            keyword = line[:4]
            for item in _split_list(line[len(keyword) + 1:], lineno):
                word = _parse_word(item, lineno)
                if len(word) != 2:
                    raise DslError(f"relation {item!r} must name two arrows",
                                   lineno)
                relations.append((word, lineno, keyword))
        elif line.startswith("koszul:"):
            body = line[len("koszul:"):].strip()
            if body != "asserted":
                raise DslError("only 'koszul: asserted' is recognized", lineno)
            koszul = True
        else:
            raise DslError(f"unrecognized line {line!r}", lineno)

    if vertices is None:
        raise DslError("missing vertices line")
    if flavor is None:
        raise DslError("missing ideal flavor line")
    for _, lineno, keyword in relations:
        wanted = COMMUTATIVE if keyword == "comm" else ANTICOMMUTATIVE
        if flavor != wanted:
            raise DslError(
                f"{keyword}: relation under 'ideal {flavor}' "
                "(flavor mismatch)", lineno)
    quiver = build_quiver(vertices, arrows)

    notices: list[str] = []
    if not quiver.is_connected():
        notices.append(
            f"quiver is disconnected ({len(quiver.connected_components)} "
            "components); the degree-0 center has one identity per component")

    try:
        ideal = validate_ideal(
            quiver, flavor,
            monomials=[w for w, _ in monomials],
            relations=[w for w, _, _ in relations],
            field_char=char or 0)
    except InputError as exc:
        # validate_ideal checks the characteristic, then each generator in
        # order: the first of these it refuses on its own is the culprit
        parts = ([(char_line, {"field_char": char or 0})]
                 + [(line, {"monomials": [w]}) for w, line in monomials]
                 + [(line, {"relations": [w]}) for w, line, _ in relations])
        for line, part in parts:
            try:
                validate_ideal(quiver, flavor, **part)
            except InputError:
                raise DslError(str(exc), line) from exc
        raise
    notices.extend(ideal.normalization_notes)
    return SpecDocument(
        source=text,
        quiver=quiver,
        ideal=ideal,
        koszul_asserted=koszul,
        notices=tuple(notices),
    )


def print_spec(doc: SpecDocument) -> str:
    """Canonical text for a document; reparses to an identical document."""
    q = doc.quiver
    lines = [
        "vertices: " + ", ".join(q.vertices),
    ]
    if q.arrows:
        lines.append("arrows: " + ", ".join(
            f"{a.name}: {a.origin}->{a.target}" for a in q.arrows))
    lines.append(f"ideal {doc.ideal.flavor}")
    lines.append(f"char: {doc.ideal.field_char}")
    if doc.ideal.monomials:
        lines.append("zero: " + ", ".join(
            f"{a}*{b}" for a, b in doc.ideal.monomials))
    if doc.ideal.relations:
        keyword = ("anti" if doc.ideal.flavor == ANTICOMMUTATIVE else "comm")
        lines.append(f"{keyword}: " + ", ".join(
            f"{a}*{b}" for a, b in doc.ideal.relations))
    if doc.koszul_asserted:
        lines.append("koszul: asserted")
    return "\n".join(lines) + "\n"
