"""Command-line frontend: parse a spec file, run one analysis, report.

Exit codes: 0 analysis completed (whatever the verdict), 1 bad input,
refused hypotheses or an exceeded budget, 2 internal falsification
(independent engines disagree).  ``--json`` emits a byte-stable report;
``--max-degree`` bounds every enumeration (default 8, or the
PACQA_MAX_DEGREE environment variable).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .center import (DEFAULT_MAX_DEGREE, CenterBasis, central_monomials_upto,
                     graded_center_upto, hypothesis_report)
from .dsl import SpecDocument, parse_spec
from .errors import (FalsificationError, HypothesisError, InputError,
                     PacqaError)
from .fingen import center_finitely_generated
from .graphs import generator_graph, is_admissible, relation_graph, to_dot
from .ideal import IdealSpec, composable_pairs, orthogonal
from .koszul import hochschild_fg, koszul_dual
from .normalform import _fold, canonical_index_form, context_for
from .oracle import (oracle_center_upto, oracle_fg_evidence,
                     oracle_nilpotence_check, quotient_basis_upto)

COMMANDS = ("validate", "admissible", "orthogonal", "center", "fingen",
            "dual", "hochschild", "oracle-check", "dot")

# what every command handler returns: JSON result, text lines, notices
_Outcome = tuple[dict, list[str], list[str]]


def _word(text_word) -> str:
    return "*".join(text_word)


def _ideal_payload(spec: IdealSpec) -> dict:
    return {
        "flavor": spec.flavor,
        "char": spec.field_char,
        "monomials": list(spec.monomial_strings()),
        "relations": list(spec.relation_strings()),
    }


def _quiver_payload(spec: IdealSpec) -> dict:
    q = spec.quiver
    return {
        "vertices": list(q.vertices),
        "arrows": [[a.name, a.origin, a.target] for a in q.arrows],
        "connected": q.is_connected(),
    }


def _generator_lines(spec: IdealSpec) -> list[str]:
    return ["monomials: " + (", ".join(spec.monomial_strings()) or "(none)"),
            "relations: " + (", ".join(spec.relation_strings()) or "(none)")]


def _convention_notices(spec: IdealSpec) -> list[str]:
    if not spec.convention_squares:
        return []
    squares = ", ".join(f"{a}*{a}" for a in spec.convention_squares)
    return [
        "square-convention: nonzero squares outside the ideal enter the "
        f"orthogonal ideal as monomial generators ({squares})"]


def _center_payload(basis: CenterBasis) -> dict:
    return {
        "provenance": basis.provenance,
        "max_degree": basis.max_degree,
        "identity_components": basis.identity_components,
        "by_degree": {
            str(d): [e.render() for e in elements]
            for d, elements in basis.by_degree
        },
        "basepoints": {
            _word(e.word): e.basepoint
            for _, elements in basis.by_degree
            for e in elements if e.is_monomial and e.basepoint
        },
        "notes": list(basis.notes),
    }


def _report(doc: SpecDocument, command: str, result: dict,
            notices: list[str]) -> dict:
    """The ``--json`` report, with the theorem-mode hypothesis outcomes."""
    return {
        "tool": {"name": "pacqa", "version": __version__},
        "command": command,
        "input": {**_quiver_payload(doc.ideal), **_ideal_payload(doc.ideal),
                  "koszul_asserted": doc.koszul_asserted},
        "hypotheses": hypothesis_report(doc.ideal),
        "notices": notices,
        "result": result,
    }


def _cmd_validate(doc: SpecDocument, args) -> _Outcome:
    spec = doc.ideal
    result = {**_quiver_payload(spec), **_ideal_payload(spec),
              "koszul_asserted": doc.koszul_asserted,
              "normalizations": list(spec.normalization_notes)}
    lines = [
        f"quiver: {len(spec.quiver.vertices)} vertices, "
        f"{len(spec.quiver.arrows)} arrows",
        f"flavor: {spec.flavor} (char {spec.field_char})",
        *_generator_lines(spec),
        "valid",
    ]
    return result, lines, []


def _cmd_admissible(doc: SpecDocument, args) -> _Outcome:
    verdict = is_admissible(doc.ideal)
    result = {
        "admissible": verdict.admissible,
        "cycle": list(verdict.cycle) if verdict.cycle else None,
        "nilpotency_bound": verdict.nilpotency_bound,
        "orthogonal": _ideal_payload(verdict.orthogonal),
    }
    lines = [("ADMISSIBLE, " if verdict.admissible else "NOT ADMISSIBLE, ")
             + verdict.witness_text()]
    return result, lines, _convention_notices(verdict.orthogonal)


def _cmd_orthogonal(doc: SpecDocument, args) -> _Outcome:
    orth = orthogonal(doc.ideal)
    result = {**_ideal_payload(orth),
              "convention_squares": list(orth.convention_squares)}
    lines = [f"flavor: {orth.flavor}", *_generator_lines(orth)]
    return result, lines, _convention_notices(orth)


def _cmd_center(doc: SpecDocument, args) -> _Outcome:
    spec = doc.ideal
    notices: list[str] = []
    try:
        basis = (graded_center_upto(spec, args.max_degree)
                 if args.graded else central_monomials_upto(
                     spec, args.max_degree))
        mode = "theorem"
    except HypothesisError as exc:
        notices.append(f"outside theorem hypotheses: {exc}")
        basis = oracle_center_upto(spec, args.max_degree, graded=args.graded)
        mode = "oracle-only"
    result = {"mode": mode, **_center_payload(basis)}
    lines = [f"mode: {mode}",
             f"degree 0: identity ({basis.identity_components} "
             "component(s))"]
    for d, elements in basis.by_degree:
        lines.append(
            f"degree {d}: {', '.join(e.render() for e in elements)}")
    if not basis.by_degree:
        lines.append(f"no central elements in degrees 1..{args.max_degree}")
    for note in basis.notes:
        lines.append(f"note: {note}")
    return result, lines, notices


def _cmd_fingen(doc: SpecDocument, args) -> _Outcome:
    spec = doc.ideal
    notices: list[str] = []
    try:
        verdict = center_finitely_generated(spec)
    except HypothesisError as exc:
        notices.append(f"outside theorem hypotheses: {exc}")
        evidence = oracle_fg_evidence(spec, args.max_degree)
        result = {
            "mode": "oracle-only",
            "banner": "outside theorem hypotheses",
            "max_degree": args.max_degree,
            "new_generator_degrees": list(evidence.new_generator_degrees),
            "rows": [list(r) for r in evidence.rows],
        }
        lines = ["outside theorem hypotheses: oracle evidence only"]
        for d, dim, new in evidence.rows:
            flag = f", {new} new generator(s)" if new else ""
            lines.append(f"degree {d}: center dimension {dim}{flag}")
        return result, lines, notices
    result = {
        "mode": "theorem",
        "status": verdict.status,
        "generators": [_word(w) for w in verdict.generators],
        "witness": None,
        "s_sets": {
            vertex: {"status": cond.status, "arrows": list(cond.arrows)}
            for vertex, cond in verdict.s_sets
        },
        "fulfilling_cliques": [list(c) for c in verdict.fulfilling_cliques],
    }
    lines = [f"status: {verdict.status}"]
    if verdict.witness:
        w = verdict.witness
        result["witness"] = {
            "clique": list(w.clique),
            "failing_member": w.failing_member,
            "blocking_vertex": w.blocking_vertex,
            "missing_edge": w.missing_edge,
        }
        lines.append("witness: " + w.render())
    if verdict.generators:
        lines.append("generators: "
                     + ", ".join(_word(w) for w in verdict.generators))
    for vertex, cond in verdict.s_sets:
        if cond.status == "S":
            lines.append(f"S({vertex}) = {{{', '.join(cond.arrows)}}}")
        elif cond.status == "trivial":
            lines.append(f"S({vertex}): center trivial at {vertex}")
        else:
            lines.append(f"S({vertex}) = {{}} with nontrivial center: "
                         "not finitely generated")
    return result, lines, notices


def _cmd_dual(doc: SpecDocument, args) -> _Outcome:
    dual = koszul_dual(doc.presentation)
    result = {
        "quiver": _quiver_payload(dual.ideal),
        **_ideal_payload(dual.ideal),
        "koszul": dual.koszul,
        "convention_squares": list(dual.ideal.convention_squares),
    }
    lines = [
        "dual quiver arrows: " + ", ".join(
            f"{a.name}: {a.origin}->{a.target}"
            for a in dual.ideal.quiver.arrows),
        f"flavor: {dual.ideal.flavor}",
        *_generator_lines(dual.ideal),
        f"koszul: {dual.koszul}",
    ]
    return result, lines, _convention_notices(dual.ideal)


def _cmd_hochschild(doc: SpecDocument, args) -> _Outcome:
    verdict = hochschild_fg(doc.presentation, args.max_degree)
    result = {
        "status": verdict.status,
        "trivial": verdict.trivial,
        "koszul": verdict.koszul,
        "dual": {
            "quiver": _quiver_payload(verdict.dual.ideal),
            **_ideal_payload(verdict.dual.ideal),
        },
        "dual_center_generators": [
            _word(w) for w in verdict.dual_center_generators],
        "evidence": list(verdict.evidence),
    }
    result["notes"] = list(verdict.notes)
    lines = [verdict.render()]
    if verdict.dual_center_generators:
        lines.append("dual center generators: " + ", ".join(
            _word(w) for w in verdict.dual_center_generators))
    if verdict.dual_verdict and verdict.dual_verdict.witness:
        lines.append("dual witness: " + verdict.dual_verdict.witness.render())
    for note in verdict.notes:
        lines.append(f"note: {note}")
    return result, lines, _convention_notices(verdict.dual.ideal)


def _cmd_dot(doc: SpecDocument, args) -> _Outcome:
    spec = doc.ideal
    if args.graph == "gen":
        graph = generator_graph(spec)
    elif args.graph == "gen-perp":
        graph = generator_graph(orthogonal(spec))
    else:
        graph = relation_graph(spec)
    text = to_dot(graph)
    return {"dot": text}, [text.rstrip("\n")], []


def _cmd_oracle_check(doc: SpecDocument, args) -> _Outcome:
    """Agreement suite between the graph/clique engines and the oracle."""
    spec = doc.ideal
    checks: list[tuple[str, bool, str]] = []

    orth = orthogonal(spec)
    involution_ok = orthogonal(orth) == spec
    checks.append(("orthogonal-involution", involution_ok,
                   "orthogonal(orthogonal(I)) == I"))

    tri_ok = True
    for a, b in composable_pairs(spec.quiver):
        exactly = sum([
            (a, b) in spec.monomial_set,
            (a, b) in orth.monomial_set,
            spec.related(a, b),
        ])
        if exactly != 1:
            tri_ok = False
            break
    checks.append(("length-2 trichotomy", tri_ok,
                   "every nonzero length-2 path is a generator of exactly "
                   "one side or relation-covered on both"))

    verdict = is_admissible(spec)
    n = len(spec.quiver.arrows) + 1
    algebra = quotient_basis_upto(spec, max(n, args.max_degree + 1))
    adm_ok = verdict.admissible == (algebra.dimensions[n] == 0)
    checks.append(("admissibility", adm_ok,
                   f"graph verdict vs dimension at degree {n} "
                   f"({algebra.dimensions[n]})"))

    # the basis's self-check compared the memoised forms with the raw
    # classes on every path of each lifted degree; a fresh fold of a
    # sample must give the same forms
    ctx = context_for(spec)
    sample = [w for d in range(2, min(4, args.max_degree) + 1)
              for w in algebra.basis[d][:5]]
    sample += [w + w for w in algebra.basis[1][:3]
               if spec.quiver.composable(w[0], w[0])]
    two_route_ok = all(_fold(ctx, w) == canonical_index_form(ctx, w)
                       for w in map(ctx.encode, sample))
    checks.append(("membership two-route", two_route_ok,
                   "normal-form membership vs raw span membership"))

    if all(hypothesis_report(spec).values()):
        theorem = central_monomials_upto(spec, args.max_degree)
        oracle = oracle_center_upto(spec, args.max_degree, algebra=algebra)
        same = all(
            theorem.words_at(d) == oracle.words_at(d)
            for d in range(1, args.max_degree + 1))
        checks.append(("center", same,
                       "clique-engine basis == oracle nullspace basis, "
                       f"degrees 1..{args.max_degree}"))
        nil = oracle_nilpotence_check(spec, oracle, args.max_degree)
        checks.append(("nilpotence", nil.all_nonzero,
                       f"{len(nil.checks)} central monomial powers nonzero"))
    else:
        checks.append(("center", True,
                       "skipped: outside theorem hypotheses"))

    agree = all(ok for _, ok, _ in checks)
    result = {
        "agree": agree,
        "checks": [{"name": name, "ok": ok, "detail": detail}
                   for name, ok, detail in checks],
    }
    lines = [f"{'ok' if ok else 'DISAGREE'}: {name} ({detail})"
             for name, ok, detail in checks]
    lines.append("all engines agree" if agree else "ENGINES DISAGREE")
    return result, lines, []


_DISPATCH = {
    "validate": _cmd_validate,
    "admissible": _cmd_admissible,
    "orthogonal": _cmd_orthogonal,
    "center": _cmd_center,
    "fingen": _cmd_fingen,
    "dual": _cmd_dual,
    "hochschild": _cmd_hochschild,
    "dot": _cmd_dot,
    "oracle-check": _cmd_oracle_check,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input (exit 1); argparse would exit 2, the code
    reserved for engine disagreement."""

    def error(self, message):
        raise InputError(message)


def _int(text: str) -> int:
    """``int()`` on ASCII digits and a sign only, not ``_`` or other digits."""
    digits = text.lstrip("+-")  # int() refuses a second sign
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


_int.__name__ = "int"  # the type name in argparse's usage error


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pacqa",
        description="Exact analysis of quiver algebras bound by quadratic "
                    "monomial and (anti-)commutativity relations.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("spec", help="path to a .quiver spec file")
    parser.add_argument("--json", action="store_true",
                        help="emit a byte-stable JSON report")
    parser.add_argument("--max-degree", type=_int, default=None,
                        help="degree bound for enumerations (default "
                             f"{DEFAULT_MAX_DEGREE} or PACQA_MAX_DEGREE)")
    parser.add_argument("--graph", choices=("gen", "gen-perp", "rel"),
                        default="rel",
                        help="which graph the dot command exports")
    parser.add_argument("--graded", action="store_true",
                        help="center command: the graded center")
    return parser


def _max_degree(args) -> int:
    """The degree bound: ``--max-degree``, else PACQA_MAX_DEGREE, else the
    default; an integer of at least 1."""
    if args.max_degree is not None:
        source, value = "--max-degree", args.max_degree
    else:
        source = "PACQA_MAX_DEGREE"
        text = os.environ.get(source, str(DEFAULT_MAX_DEGREE))
        try:
            value = _int(text)
        except ValueError:
            raise InputError(
                f"{source} must be an integer, got {text!r}") from None
    if value < 1:
        raise InputError(f"{source} must be at least 1, got {value}")
    return value


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.max_degree = _max_degree(args)
        with open(args.spec, encoding="utf-8") as handle:
            doc = parse_spec(handle.read())
        result, lines, notices = _DISPATCH[args.command](doc, args)
        notices = sorted(set(doc.notices) | set(notices))
        if args.json:
            report = _report(doc, args.command, result, notices)
            sys.stdout.write(
                json.dumps(report, sort_keys=True, indent=2) + "\n")
        elif args.command == "dot":
            sys.stdout.write(result["dot"])
        else:
            for notice in notices:
                sys.stdout.write(f"note: {notice}\n")
            for line in lines:
                sys.stdout.write(line + "\n")
        # oracle-check writes its report, disagreements included, first
        if result.get("agree") is False:
            raise FalsificationError("oracle-check found a disagreement")
        return 0
    except FalsificationError as exc:
        sys.stderr.write(f"falsification: {exc}\n")
        return 2
    except (PacqaError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
