from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import pacqa

from helpers import FIXTURES, fixture_doc, fixture_path, fixture_text
from pacqa.center import central_monomials_upto
from pacqa.cli import run
from pacqa.dsl import parse_spec, print_spec
from pacqa.errors import DslError


class TestParse:
    def test_fixture_matches_builders(self):
        doc = fixture_doc("comm_two_loops_arrow")
        assert doc.quiver.vertices == ("x", "y")
        assert doc.quiver.arrow_names == ("a", "b", "c")
        assert doc.ideal.monomials == (("a", "a"), ("a", "c"), ("b", "b"))
        assert doc.ideal.relations == (("a", "b"),)
        assert doc.koszul_asserted

    def test_flavor_mismatch_reports_line(self):
        text = ("vertices: x\n"
                "arrows: a: x->x, b: x->x\n"
                "ideal commutative\n"
                "anti: a*b\n")
        with pytest.raises(DslError) as err:
            parse_spec(text)
        assert err.value.line == 4
        assert "flavor" in str(err.value)

    def test_char_two_folds_with_notice(self):
        text = ("vertices: x\n"
                "arrows: a: x->x, b: x->x\n"
                "ideal anticommutative\n"
                "char: 2\n"
                "anti: a*b\n")
        doc = parse_spec(text)
        assert doc.ideal.flavor == "commutative"
        assert any("characteristic 2" in n for n in doc.notices)
        assert sum("folded" in n for n in doc.notices) == 1

    def test_bad_arrow_syntax(self):
        with pytest.raises(DslError) as err:
            parse_spec("vertices: x\narrows: a x->x\nideal commutative\n")
        assert err.value.line == 2

    def test_unknown_line(self):
        with pytest.raises(DslError):
            parse_spec("vertices: x\nnonsense here\nideal commutative\n")

    def test_non_quadratic_generator(self):
        with pytest.raises(DslError) as err:
            parse_spec("vertices: x\narrows: a: x->x\nideal commutative\n"
                       "zero: a*a*a\n")
        assert "quadratic" in str(err.value)

    def test_semantic_error_carries_line(self):
        text = ("vertices: x, y\n"
                "arrows: a: x->x, c: x->y\n"
                "ideal commutative\n"
                "zero: c*a\n")
        with pytest.raises(DslError) as err:
            parse_spec(text)
        assert err.value.line == 4

    @pytest.mark.parametrize("body, line", [
        ("zero: a*b\nzero: aa*b\n", 5),   # aa*b contains the text a*b
        ("zero: a*b\n\nzero: a*z\n", 6),  # unknown arrow z
        ("zero: a*b\nchar: 4\n", 5),
    ], ids=["later-line", "unknown-arrow", "char"])
    def test_validation_error_names_its_line(self, body, line):
        text = ("vertices: x, y\n"
                "arrows: a: x->x, b: x->y, aa: y->y\n"
                "ideal commutative\n" + body)
        with pytest.raises(DslError) as err:
            parse_spec(text)
        assert err.value.line == line

    def test_comments_and_blank_lines(self):
        doc = parse_spec("# heading\n\nvertices: x\n"
                         "arrows: a: x->x  # loop\nideal commutative\n")
        assert doc.quiver.arrow_names == ("a",)

    def test_disconnected_notice(self):
        doc = parse_spec("vertices: x, y\narrows: a: x->x\n"
                         "ideal commutative\n")
        assert any("disconnected" in n for n in doc.notices)


class TestRoundTrip:
    def test_all_fixtures(self):
        for name in FIXTURES:
            doc = parse_spec(fixture_text(name))
            printed = print_spec(doc)
            again = parse_spec(printed)
            assert again.quiver == doc.quiver
            assert again.ideal == doc.ideal
            assert again.koszul_asserted == doc.koszul_asserted
            assert print_spec(again) == printed

    def test_char_two_folded_document(self):
        doc = parse_spec("vertices: x\narrows: a: x->x, b: x->x\n"
                         "ideal anticommutative\nchar: 2\nanti: a*b\n")
        printed = print_spec(doc)
        assert "ideal commutative" in printed
        assert "comm: a*b" in printed
        again = parse_spec(printed)
        assert again.ideal == doc.ideal

    def test_no_arrows_document(self):
        doc = parse_spec("vertices: x\nideal commutative\n")
        assert parse_spec(print_spec(doc)).ideal == doc.ideal


def test_every_public_name_imports_from_the_package():
    assert "quotient_basis_upto" in pacqa.__all__
    for name in pacqa.__all__:
        scope: dict = {}
        exec(f"from pacqa import {name}", scope)
        assert scope[name] is getattr(pacqa, name), name


class TestCli:
    def test_admissible_text(self, capsys):
        code = run(["admissible", fixture_path("anti_four_loops_free_pair")])
        out = capsys.readouterr().out
        assert code == 0
        assert "NOT ADMISSIBLE, cycle: c -> d -> c" in out

    def test_hochschild_text(self, capsys):
        code = run(["hochschild",
                    fixture_path("monomial_two_loops_two_arrows")])
        out = capsys.readouterr().out
        assert code == 0
        assert "finitely generated; HH*/N is trivial" in out

    def test_hochschild_keeps_its_verdict_past_the_basis_budget(
            self, capsys, monkeypatch):
        # every cycle of the dual has a vanishing wrap pair, so the verdict
        # is the loop-supported one; the oracle sweep for cycle-supported
        # elements only adds a note, and one that stops says so
        monkeypatch.setattr("pacqa.oracle.BASIS_BUDGET", 50)
        code = run(["hochschild",
                    fixture_path("monomial_two_loops_two_arrows")])
        out = capsys.readouterr().out
        assert code == 0
        assert "finitely generated; HH*/N is trivial" in out
        assert "stopped (quotient basis exceeds the budget of 50 words at " \
            "degree " in out
        assert "so the loop-supported verdict stands" in out

    def test_missing_file_is_input_error(self, capsys):
        assert run(["validate", "/no/such/file.quiver"]) == 1

    def test_bad_spec_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.quiver"
        bad.write_text("vertices: x\narrows: a: x->z\nideal commutative\n")
        assert run(["validate", str(bad)]) == 1

    def test_non_utf8_spec_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.quiver"
        bad.write_bytes(b"\xff\xfevertices: x\n")
        assert run(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("char, code", [
        ("1000000000000000000000007", 0),  # a 25-digit prime
        # 25 digits: 999999999989 * 1000000000039, no small factor
        ("1000000000027999999999571", 1),
        ("3317044064679887385961981", 1),  # the bound; passes Miller-Rabin
        ("7" * 5000, 1),  # past int()'s default digit limit
    ], ids=["prime", "composite", "bound", "five-thousand-digits"])
    def test_large_characteristic_answers_at_once(self, tmp_path, capsys,
                                                  char, code):
        spec = tmp_path / "big.quiver"
        spec.write_text(fixture_text("comm_two_loops_arrow")
                        + f"char: {char}\n")
        assert run(["validate", str(spec)]) == code
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_oracle_check_reports_before_exit_two(self, capsys, monkeypatch,
                                                  extra):
        from pacqa import cli

        def wrong_basis(spec, max_degree):
            basis = central_monomials_upto(spec, max_degree)
            return replace(basis, by_degree=basis.by_degree[1:])

        monkeypatch.setattr(cli, "central_monomials_upto", wrong_basis)
        code = run(["oracle-check", fixture_path("comm_four_loops_arrow_out"),
                    "--max-degree", "4", *extra])
        out = capsys.readouterr().out
        assert code == 2
        if extra:
            report = json.loads(out)["result"]
            assert report["agree"] is False
            assert [c["name"] for c in report["checks"]
                    if not c["ok"]] == ["center"]
        else:
            assert "DISAGREE: center" in out
            assert out.endswith("ENGINES DISAGREE\n")

    def test_oracle_check_compares_a_fresh_fold_with_the_memo(
            self, capsys, monkeypatch):
        # a fold that no longer agrees with the self-checked memo, here one
        # that puts every sampled word in the ideal, is a disagreement
        from pacqa import cli

        monkeypatch.setattr(cli, "_fold", lambda ctx, word: None)
        code = run(["oracle-check", fixture_path("comm_two_loops_arrow")])
        out = capsys.readouterr().out
        assert code == 2
        assert "DISAGREE: membership two-route (normal-form membership vs " \
            "raw span membership)" in out

    def test_falsification_exit_code(self, tmp_path, capsys, monkeypatch):
        from pacqa import cli
        from pacqa.errors import FalsificationError

        def boom(doc, args):
            raise FalsificationError("engines disagree")

        monkeypatch.setitem(cli._DISPATCH, "validate", boom)
        assert run(["validate",
                    fixture_path("comm_two_loops_arrow")]) == 2

    def test_oracle_check_all_fixtures(self, capsys):
        for name in FIXTURES:
            code = run(["oracle-check", "--max-degree", "6",
                        fixture_path(name)])
            out = capsys.readouterr().out
            assert code == 0, name
            assert "all engines agree" in out, name

    def test_oracle_check_skips_center_on_surviving_cycle(self, tmp_path,
                                                          capsys):
        # square-free with an admissible orthogonal, but the free 2-cycle
        # c*d survives, so theorem mode does not apply
        spec = tmp_path / "two_cycle.quiver"
        spec.write_text("vertices: x, y\narrows: c: x->y, d: y->x\n"
                        "ideal commutative\n")
        assert run(["oracle-check", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "ok: center (skipped: outside theorem hypotheses)" in out
        assert "all engines agree" in out

    def test_text_mode_on_path_past_recursion_limit(self, tmp_path, capsys):
        # text output prints no hypothesis outcomes, so it computes none;
        # the surviving-cycle search among them recurses once per vertex
        n = 1500
        assert n > sys.getrecursionlimit()
        spec = tmp_path / "path.quiver"
        spec.write_text(
            "vertices: " + ", ".join(f"v{i}" for i in range(n)) + "\n"
            "arrows: " + ", ".join(f"a{i}: v{i}->v{i + 1}"
                                   for i in range(n - 1)) + "\n"
            "ideal commutative\n")
        assert run(["validate", str(spec)]) == 0
        assert capsys.readouterr().out.endswith("\nvalid\n")
        assert run(["admissible", str(spec)]) == 0
        assert capsys.readouterr().out == (
            f"ADMISSIBLE, nilpotency bound: {n}\n")

    @pytest.mark.parametrize("command", [["validate", "--json"], ["center"],
                                         ["fingen"]])
    def test_cycle_search_past_recursion_limit_is_refused(self, tmp_path,
                                                          capsys, command):
        # these commands search the quiver for multi-vertex cycles, one
        # frame per vertex on a path; past the limit they refuse with exit 1
        n = 1500
        spec = tmp_path / "path.quiver"
        spec.write_text(
            "vertices: " + ", ".join(f"v{i}" for i in range(n)) + "\n"
            "arrows: " + ", ".join(f"a{i}: v{i}->v{i + 1}"
                                   for i in range(n - 1)) + "\n"
            "ideal commutative\n")
        assert run([*command, str(spec)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the multi-vertex cycle search exceeds the recursion "
            f"limit ({sys.getrecursionlimit()})\n")

    def test_json_reports_are_byte_stable(self, capsys):
        args = ["center", "--json", "--max-degree", "4",
                fixture_path("anti_two_loops_arrow")]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode()
        report = json.loads(first)
        assert report["command"] == "center"
        assert report["hypotheses"]["square_free"] is True

    def test_dot_deterministic(self, capsys):
        args = ["dot", "--graph", "gen-perp",
                fixture_path("comm_two_loops_arrow")]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.startswith("digraph")

    def test_dot_json_wraps_text(self, capsys):
        assert run(["dot", "--json", "--graph", "rel",
                    fixture_path("comm_two_loops_arrow")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["dot"].startswith("digraph relation")

    def test_max_degree_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PACQA_MAX_DEGREE", "2")
        assert run(["center", "--json",
                    fixture_path("anti_two_loops_arrow")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["max_degree"] == 2

    @pytest.mark.parametrize("flag, env, message", [
        (["--max-degree", "-3"], None, "--max-degree must be at least 1"),
        ([], "four", "PACQA_MAX_DEGREE must be an integer"),
        ([], "0", "PACQA_MAX_DEGREE must be at least 1"),
        ([], "1_0", "PACQA_MAX_DEGREE must be an integer, got '1_0'"),
        ([], "\u0663", "PACQA_MAX_DEGREE must be an integer, got '\u0663'"),
    ], ids=["flag-below-one", "env-not-an-integer", "env-below-one",
            "env-underscore", "env-arabic-indic-digit"])
    def test_bad_degree_bound_rejected(self, flag, env, message, capsys,
                                       monkeypatch):
        if env is not None:
            monkeypatch.setenv("PACQA_MAX_DEGREE", env)
        assert run(["center", fixture_path("anti_two_loops_arrow"),
                    *flag]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + message)

    @pytest.mark.parametrize("argv, message", [
        (["--max-degree", "abc"], "argument --max-degree: invalid int"),
        (["--graph", "nope"], "argument --graph: invalid choice"),
        (["--no-such-flag"], "unrecognized arguments: --no-such-flag"),
        (["--max-degree", "\u0663"],
         "argument --max-degree: invalid int value: '\u0663'"),
        (["--max-degree", "1_0"],
         "argument --max-degree: invalid int value: '1_0'"),
    ], ids=["non-integer-bound", "bad-choice", "unknown-flag",
            "arabic-indic-digit-bound", "underscore-bound"])
    def test_usage_error_is_input_error(self, argv, message, capsys):
        # exit 2 is reserved for engine disagreement
        assert run(["validate", fixture_path("anti_two_loops_arrow"),
                    *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + message)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: pacqa")

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0),
        (["validate", fixture_path("anti_two_loops_arrow"),
          "--max-degree", "abc"], 1),
    ], ids=["help", "non-integer-bound"])
    def test_python_dash_m(self, argv, code):
        src = str(Path(pacqa.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": src + (os.pathsep + path if path else "")}
        done = subprocess.run([sys.executable, "-m", "pacqa", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert done.returncode == code, done.stderr
        if code == 0:
            assert done.stdout.startswith("usage: pacqa")
        else:
            assert done.stderr.startswith("error: ")

    def test_center_erratum_notice(self, capsys):
        code = run(["center", "--max-degree", "6",
                    fixture_path("anti_two_loops_arrow")])
        out = capsys.readouterr().out
        assert code == 0
        assert "odd-degree-exclusion" in out

    def test_fingen_oracle_fallback_banner(self, capsys):
        code = run(["fingen", fixture_path("comm_two_loops_arrow")])
        out = capsys.readouterr().out
        assert code == 0
        assert "outside theorem hypotheses" in out

    def test_square_convention_notice(self, capsys):
        code = run(["orthogonal", fixture_path("anti_two_loops_arrow")])
        out = capsys.readouterr().out
        assert code == 0
        assert "square-convention" in out

    @pytest.mark.parametrize("extra", [[], ["--graded"]])
    def test_center_without_central_clique_answers_at_once(
            self, extra, tmp_path, capsys):
        # no clique is central, so no degree has a central word: walking
        # every degree up to the bound took seconds of CPU per 10^7
        spec = tmp_path / "arrow.quiver"
        spec.write_text("vertices: x, y\narrows: c: x->y\n"
                        "ideal commutative\n")
        start = time.process_time()
        assert run(["center", str(spec), "--max-degree", "10000000",
                    *extra]) == 0
        assert time.process_time() - start < 1.0
        assert "mode: theorem" in capsys.readouterr().out

    def test_graded_center_char_two_is_the_center(self, tmp_path, capsys):
        # the sign (-1)^d is 1 in characteristic 2: the same bytes, odd
        # degrees included, in theorem mode and in oracle mode
        spec = tmp_path / "char2.quiver"
        for body, mode in (
                ("arrows: a: x->x, b: x->x\nideal anticommutative\n"
                 "anti: a*b\n", "theorem"),
                ("arrows: x: x->x\nideal commutative\nzero: x*x\n",
                 "oracle-only")):
            spec.write_text(f"vertices: x\n{body}char: 2\n")
            outputs = []
            for extra in ([], ["--json"]):
                assert run(["center", str(spec), *extra]) == 0
                outputs.append(capsys.readouterr().out)
                assert run(["center", "--graded", str(spec), *extra]) == 0
                assert capsys.readouterr().out == outputs[-1]
            text = outputs[0].splitlines()
            assert f"mode: {mode}" in text
            assert any(line.startswith("degree 1: ") for line in text)

    @pytest.mark.parametrize("body,line", [
        ("arrows: l0: x->x\nideal anticommutative\nzero: l0*l0\n",
         "degree 1: l0"),
        ("arrows: x: x->x\nideal commutative\nzero: x*x\n", "degree 1: x"),
    ], ids=["exterior", "dual-numbers"])
    def test_graded_center_keeps_odd_degrees(self, body, line, tmp_path,
                                             capsys):
        # the exterior algebra and k[x]/(x^2): x*x = 0 = -x*x, so x is
        # graded-central although the ordinary center has no even part
        spec = tmp_path / "odd.quiver"
        spec.write_text(f"vertices: x\n{body}")
        assert run(["center", "--graded", str(spec)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "mode: oracle-only" in out and line in out
        assert not any(t.startswith("no central elements") for t in out)

    def test_graded_center_of_anti_four_loops_full(self, capsys):
        assert run(["center", "--graded", "--max-degree", "4",
                    fixture_path("anti_four_loops_full")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-3:] == ["degree 1: a, b, c, d",
                            "degree 2: a*b, a*c, a*d, b*c, b*d",
                            "degree 3: a*b*c, a*b*d"]


TWO_LOOPS = "vertices: x\narrows: a: x->x, b: x->x\nideal commutative\n"


class TestRefusalsAndRareLines:
    """Exit code, stdout and stderr, byte for byte, of the DSL refusals and
    of report lines that no fixture prints."""

    @pytest.mark.parametrize("text, message", [
        ("vertices: x,\nideal commutative\n",
         "line 1: empty list item"),
        (TWO_LOOPS + "zero: a*-b\n", "line 4: bad word 'a*-b'"),
        ("vertices: x\nvertices: y\nideal commutative\n",
         "line 2: duplicate vertices line"),
        (TWO_LOOPS + "ideal anticommutative\n",
         "line 4: duplicate ideal line"),
        ("vertices: x, 1y\nideal commutative\n",
         "line 1: bad vertex name '1y'"),
        ("vertices: x\nideal associative\n",
         "line 2: expected 'ideal commutative' or 'ideal anticommutative'"),
        (TWO_LOOPS + "char: two\n", "line 4: char must be 0 or a prime"),
        (TWO_LOOPS + "comm: a*b*a\n",
         "line 4: relation 'a*b*a' must name two arrows"),
        (TWO_LOOPS + "koszul: maybe\n",
         "line 4: only 'koszul: asserted' is recognized"),
        ("arrows: a: x->x\nideal commutative\n", "missing vertices line"),
        ("vertices: x\narrows: a: x->x\n", "missing ideal flavor line"),
        (TWO_LOOPS + "char: 5\nchar: 5\n", "line 5: duplicate char line"),
        (TWO_LOOPS + "char: \u00b2\n", "line 4: char must be 0 or a prime"),
        (TWO_LOOPS + "char: \u0663\n", "line 4: char must be 0 or a prime"),
        ("vertices: x\narrows: a: x->x\nidealcommutative\n",
         "line 3: unrecognized line 'idealcommutative'"),
    ], ids=["empty-list-item", "bad-word", "duplicate-vertices",
            "duplicate-ideal", "bad-vertex-name", "bad-flavor",
            "non-numeric-char", "relation-not-two-arrows",
            "koszul-not-asserted", "missing-vertices", "missing-flavor",
            "duplicate-char", "superscript-digit-char",
            "arabic-indic-digit-char", "flavor-without-space"])
    def test_dsl_refusal(self, text, message, tmp_path, capsys):
        spec = tmp_path / "bad.quiver"
        spec.write_text(text, encoding="utf-8")
        assert run(["validate", str(spec)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("text, argv, out", [
        (TWO_LOOPS + "zero: a*b, b*a\ncomm: a*b\n", ["validate"],
         "note: relation a--b dropped: both a*b and b*a are monomial "
         "generators\nquiver: 1 vertices, 2 arrows\n"
         "flavor: commutative (char 0)\nmonomials: a*b, b*a\n"
         "relations: (none)\nvalid\n"),
        (TWO_LOOPS + "comm: a*b\n", ["fingen"],
         "status: finitely-generated\ngenerators: a, b\nS(x) = {a, b}\n"),
        ("vertices: x, y\narrows: c: x->x, d: x->x, e: x->y, f: x->y\n"
         "ideal commutative\nzero: c*e, d*f\ncomm: c*d\n", ["fingen"],
         "status: infinitely-generated\nwitness: clique {c,d} is central "
         "but member c is not: outsider f blocks it (missing edge {c} -> "
         "f)\nS(x) = {} with nontrivial center: not finitely generated\n"
         "S(y): center trivial at y\n"),
        (TWO_LOOPS + "zero: a*a, b*b\ncomm: a*b\n", ["hochschild"],
         "undecided (koszulity unknown)\n"),
        (TWO_LOOPS, ["center", "--max-degree", "3"],
         "mode: theorem\ndegree 0: identity (1 component(s))\n"
         "no central elements in degrees 1..3\n"),
    ], ids=["relation-dropped-note", "fingen-generators", "fingen-empty-s",
            "hochschild-undecided", "center-none"])
    def test_rare_report_line(self, text, argv, out, tmp_path, capsys):
        spec = tmp_path / "spec.quiver"
        spec.write_text(text)
        assert run([argv[0], str(spec), *argv[1:]]) == 0
        assert capsys.readouterr() == (out, "")
