import argparse
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, prod
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import (
    ZERO_WEIGHT_TRIPLES,
    count_calls,
    count_clearings,
    count_fractions,
    nondegenerate_analysis,
    random_fraction,
    wrong_kernel,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import doubleline
from doubleline import cli, engine
from doubleline.cli import (
    MAX_DOCUMENT_BYTES,
    MAX_NODES_RANGE,
    MAX_RATIONAL_CHARS,
    MAX_SLOPES_CHARS,
    MAX_TRIALS,
    RATIONAL_PATTERN,
    DecompositionDocument,
    DocumentError,
    document_to_parts,
    main,
    parse_document,
    parse_rational,
    render_document,
)
from doubleline.engine import verify_identity_slice
from doubleline.errors import InvalidInputError, StructuralError, TheoremViolationError
from doubleline.forms import BinaryQuadratic, HomogeneousForm, parse_form
from doubleline.linalg import format_rational

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
COMMAND_NAMES = ("verify", "theorem-check", "identity-check", "claim-check", "example")
# ASCII digit strings, leading zeros included; two of them and "-/" make at
# most MAX_RATIONAL_CHARS characters
_HALF = MAX_RATIONAL_CHARS // 2
_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=_HALF - 1)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def random_document(rng: random.Random) -> DecompositionDocument:
    n = rng.choice([1, 6, 7])
    return DecompositionDocument(
        variables=("x0", "x1", "x2"),
        line=tuple(random_fraction(rng) for _ in range(3)),
        terms=tuple(
            (
                random_fraction(rng),
                tuple(random_fraction(rng) for _ in range(3)),
            )
            for _ in range(n)
        ),
    )


class TestDocuments:
    def test_round_trip(self):
        rng = random.Random(73)
        for _ in range(100):
            doc = random_document(rng)
            assert parse_document(render_document(doc)) == doc

    def test_rational_grammar(self):
        assert parse_rational("-3/4") == Fraction(-3, 4)
        assert parse_rational("17") == 17
        # the last three use Arabic-Indic and fullwidth digits, not ASCII ones
        for bad in ("1.5", "+3", "3/-4", "1/0", "", "x", "\u0663", "\u0661/\u0662", "\uff13"):
            with pytest.raises(ValueError):
                parse_rational(bad)

    @settings(max_examples=300)
    @given(
        text=st.builds(
            lambda sign, num, den: sign + num + (den and "/" + den),
            st.sampled_from(["", "-"]),
            _DIGITS,
            st.one_of(st.just(""), _DIGITS.filter(lambda d: int(d) != 0)),
        )
    )
    @example(text="-0")
    @example(text="0/7")
    @example(text="-007/0014")
    @example(text="-" + "9" * (_HALF - 1) + "/" + "0" * (_HALF - 2) + "6")  # the longest
    def test_rational_from_its_parts(self, text):
        assert len(text) <= MAX_RATIONAL_CHARS and re.fullmatch(RATIONAL_PATTERN, text)
        assert parse_rational(text) == Fraction(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3/000", "zero denominator: '3/000'"),
            ("-0/0", "zero denominator: '-0/0'"),
            ("1" * (MAX_RATIONAL_CHARS + 1), "rational string longer than 1000 characters"),
            ("\u0663", "not a rational string: '\u0663'"),
            ("1/\uff13", "not a rational string: '1/\uff13'"),
        ],
        ids=["zero-denominator", "minus-zero-over-zero", "length-cap", "arabic-indic", "fullwidth"],
    )
    def test_rational_rejection_messages(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_rational(text)
        assert str(info.value) == message

    def test_missing_field(self):
        with pytest.raises(DocumentError):
            parse_document(json.dumps({"variables": ["x0", "x1", "x2"], "terms": []}))

    def test_float_alpha_rejected(self):
        raw = {
            "variables": ["x0", "x1", "x2"],
            "line": ["0", "0", "1"],
            "terms": [{"alpha": 1.5, "linear": ["1", "0", "0"]}],
        }
        with pytest.raises(DocumentError):
            parse_document(json.dumps(raw))

    def test_document_to_parts(self):
        doc = parse_document((FIXTURES / "example.json").read_text())
        dec, line = document_to_parts(doc)
        assert dec.n == 6
        assert line.linear_coefficients() == (0, 0, 1)


class TestVerify:
    def test_example_fixture(self):
        code, out, _ = run_cli(["verify", str(FIXTURES / "example.json")])
        assert code == 0
        assert "tangent: false" in out
        assert "conic-rank: 3" in out

    def test_tangent_fixture(self):
        code, out, _ = run_cli(["verify", str(FIXTURES / "tangent7.json")])
        assert code == 0
        assert "tangent: true" in out
        assert "certificate-annihilator:" in out
        assert "check certificate-verified: pass" in out

    def test_truncated_file(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text((FIXTURES / "example.json").read_text()[:40])
        code, out, err = run_cli(["verify", str(bad)])
        assert code == 2
        assert out == ""

    def test_deeply_nested_json(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(["verify", str(deep)])
        assert code == 2
        assert out == ""
        assert err == "error: invalid JSON: nested too deeply\n"

    def test_zero_linear_term_rejected(self, tmp_path):
        doc = json.loads((FIXTURES / "tangent7.json").read_text())
        doc["terms"].append({"alpha": "1", "linear": ["0", "0", "0"]})
        path = tmp_path / "zero-term.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["verify", str(path)])
        assert code == 2
        assert out == ""
        assert err == "error: term 7: linear must be a nonzero form\n"

    def test_zero_weight_term_rejected(self, tmp_path):
        doc = json.loads((FIXTURES / "tangent7.json").read_text())
        doc["terms"].append({"alpha": "0", "linear": ["1", "2", "3"]})
        path = tmp_path / "zero-weight.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["verify", str(path)])
        assert code == 2
        assert out == ""
        assert err == "error: term 7: alpha must be nonzero\n"

    @pytest.mark.parametrize("nested", [False, True])
    def test_duplicate_field_rejected(self, tmp_path, nested):
        text = (FIXTURES / "tangent7.json").read_text()
        if nested:
            # a second alpha inside the first term
            text = text.replace('"alpha": ', '"alpha": "5", "alpha": ', 1)
            key = "alpha"
        else:
            # an earlier line that json.loads would let the real one overwrite
            text = text.replace("{", '{"line": ["1", "0", "0"], ', 1)
            key = "line"
        path = tmp_path / "duplicate.json"
        path.write_text(text)
        code, out, err = run_cli(["verify", str(path)])
        assert code == 2
        assert out == ""
        assert err == f"error: duplicate field '{key}'\n"

    def test_unknown_top_level_field_rejected(self, tmp_path):
        doc = json.loads((FIXTURES / "tangent7.json").read_text())
        doc["comment"] = "tangent at the origin"
        path = tmp_path / "extra-field.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["verify", str(path)])
        assert code == 2
        assert out == ""
        assert err == "error: unknown field 'comment'\n"

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"line": ["0", "1"]}, "line must be a list of 3 rational strings"),
            ({"line": ["0", 1, "1"]}, "line entries must be strings, got 1"),
            ({"line": ["0", "1", "1.5"]}, "not a rational string: '1.5'"),
            (None, "document must be a JSON object"),
            ({"variables": ["x0", "x0", "x2"]}, "variables must be a list of 3 distinct names"),
            ({"terms": []}, "terms must be a non-empty list"),
            ({"terms": [{"alpha": "1"}]}, "term 0 must have exactly the fields alpha and linear"),
        ],
        ids=[
            "line-length", "entry-type", "entry-rational", "not-an-object",
            "variables", "empty-terms", "term-fields",
        ],
    )
    def test_malformed_document_rejected(self, tmp_path, patch, message):
        # None: the document wrapped in a list
        doc = json.loads((FIXTURES / "tangent7.json").read_text())
        text = json.dumps([doc] if patch is None else {**doc, **patch})
        with pytest.raises(DocumentError) as exc:
            parse_document(text)
        assert str(exc.value) == message
        path = tmp_path / "malformed.json"
        path.write_text(text)
        code, out, err = run_cli(["verify", str(path)])
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_missing_file(self):
        code, _, _ = run_cli(["verify", "no-such-file.json"])
        assert code == 2

    def test_not_double_line_exits_one(self, tmp_path):
        doc = {
            "variables": ["x0", "x1", "x2"],
            "line": ["0", "0", "1"],
            "terms": [{"alpha": "1", "linear": ["1", "0", "0"]}],
        }
        path = tmp_path / "plain.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["verify", str(path)])
        assert code == 1
        assert "remainder: x0^4" in out

    def test_line_override(self, tmp_path):
        # value is divisible by x0^2, not by the document's x2
        doc = {
            "variables": ["x0", "x1", "x2"],
            "line": ["0", "0", "1"],
            "terms": [{"alpha": "1", "linear": ["1", "0", "0"]}],
        }
        path = tmp_path / "x0quart.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["verify", str(path), "--line", "1,0,0"])
        assert code == 0
        assert "cofactor: x0^2" in out

    def test_zero_or_nonlinear_base_line_refused(self):
        # the line is checked once per analysis, by extract_cofactor
        dec = engine.WaringDecomposition(((1, HomogeneousForm.linear((1, 2, 3))),))
        for line in (HomogeneousForm.zero(3, 1), parse_form("x0^2 - x1*x2", 3)):
            with pytest.raises(InvalidInputError, match="^line must be a nonzero linear form$"):
                engine.analyze(dec, line)
        code, out, err = run_cli(["verify", "--line", "0,0,0", str(FIXTURES / "tangent7.json")])
        assert code == 2
        assert out == ""
        assert err == "error: line must be a nonzero linear form\n"

    def test_zero_cofactor(self, tmp_path):
        # seven concurrent lines x0 + h*x1 weighted by the sixth difference,
        # which kills every fourth power: the value is 0 = x2^2 * 0
        doc = {
            "variables": ["x0", "x1", "x2"],
            "line": ["0", "0", "1"],
            "terms": [
                {"alpha": str(comb(6, h) * (-1) ** h), "linear": ["1", str(h), "0"]}
                for h in range(7)
            ],
        }
        path = tmp_path / "concurrent.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["verify", str(path)])
        assert code == 0
        assert "cofactor: 0\nconic-rank: 0\ntangent: undefined (zero cofactor)\n" in out
        assert "certificate" not in out


class TestCommands:
    def test_example(self):
        code, out, _ = run_cli(["example"])
        assert code == 0
        assert "cofactor-normalized: -4 * (6*x0^2 + 6*x0*x1 + 3*x1^2 + x2^2)" in out
        assert "check value-identity: pass" in out

    def test_theorem_check(self):
        code, out, _ = run_cli(["theorem-check", "--trials", "5", "--seed", "7"])
        assert code == 0
        fields = _fields(out)
        assert int(fields["tangent"]) + int(fields["q-zero-degenerate"]) == 5

    def test_theorem_check_zero_cofactors(self, monkeypatch):
        # lift parameters (0, 0, 0) give every trial a zero cofactor
        original = cli.generate_tangent_instance
        monkeypatch.setattr(
            cli,
            "generate_tangent_instance",
            lambda slopes, params, seed: original(slopes, (0, 0, 0), seed=seed),
        )
        code, out, _ = run_cli(["theorem-check", "--trials", "3"])
        assert code == 0
        assert "tangent: 0\nq-zero-degenerate: 3\n" in out

    def test_theorem_check_hundred_trials(self):
        code, out, _ = run_cli(["theorem-check", "--trials", "100", "--seed", "1"])
        assert code == 0
        assert "tangent: 100" in out

    def test_theorem_check_zero_trials_usage_error(self):
        code, _, _ = run_cli(["theorem-check", "--trials", "0"])
        assert code == 2

    def test_identity_check(self):
        code, out, _ = run_cli(["identity-check", "--h", "0,1,2,3,4,5,6"])
        assert code == 0
        assert "check zero-polynomial: pass" in out

    def test_identity_check_fraction_slice(self):
        code, _, _ = run_cli(["identity-check", "--h", "0,1,-1,2,-2,1/2,-1/2"])
        assert code == 0

    def test_identity_check_repeated_nodes(self):
        code, out, _ = run_cli(["identity-check", "--h", "0,1,2,3,4,5,5"])
        assert code == 1
        assert "check distinct-nodes: fail" in out

    def test_identity_check_wrong_count(self):
        code, _, _ = run_cli(["identity-check", "--h", "0,1,2"])
        assert code == 2

    def test_claim_check_nodes(self):
        code, out, _ = run_cli(["claim-check", "--h", "0,1,2,3,4,5"])
        assert code == 0
        assert "quartic identically zero" in out

    def test_claim_check_repeated(self):
        code, _, _ = run_cli(["claim-check", "--h", "0,0,1,2,3,4"])
        assert code == 1

    def test_claim_check_random(self):
        code, out, _ = run_cli(["claim-check", "--random", "3", "--seed", "3"])
        assert code == 0
        assert "vanishing-pass: 3" in out

    def test_claim_check_random_fifty(self):
        code, out, _ = run_cli(["claim-check", "--random", "50", "--seed", "3"])
        assert code == 0
        assert "vanishing-pass: 50" in out
        assert "two-value-pass: 50" in out

    def test_claim_check_requires_mode(self):
        code, _, _ = run_cli(["claim-check"])
        assert code == 2

    def test_unknown_command(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["identity-check", "--h=0,1,2,3,4,5"],
            ["theorem-check", "--seed", "-1"],
            ["claim-check", "--h=1/0,1,2,3,4,5"],
            ["frobnicate"],
            # argparse quotes unrecognized arguments raw; the line breaks are escaped
            ["example", "a\fb\nc"],
            # open() would raise ValueError, not OSError, on a NUL or a lone surrogate
            ["verify", "tangent7\0.json"],
            ["verify", "tangent7\ud800.json"],
            # int() alone takes other Unicode digits, underscores and whitespace
            ["theorem-check", "--trials", "\u0662"],
            ["theorem-check", "--seed", " 1_0 "],
            ["claim-check", "--random", "\uff11"],
        ],
        ids=[
            "slope-count", "negative-seed", "zero-denominator", "unknown-command",
            "line-break-in-argument", "nul-in-file-name", "unencodable-file-name",
            "arabic-indic-trials", "underscore-and-spaces-seed", "fullwidth-random",
        ],
    )
    def test_usage_error_is_one_line(self, argv):
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["identity-check", "--h", "-1,0,1,2,3,4,5"], "h: -1,0,1,2,3,4,5"),
            (["claim-check", "--h", "-1/2,0,1,2,3,4"], "h: -1/2,0,1,2,3,4"),
            (["verify", str(FIXTURES / "example.json"), "--line", "-1,0,0"], "line: -1 0 0"),
        ],
        ids=["identity-check", "claim-check", "verify"],
    )
    def test_list_with_leading_minus(self, argv, expected):
        code, out, err = run_cli(argv)
        assert code != 2, err
        assert expected in out.splitlines()
        joined = [argv[0], *argv[1:-2], f"{argv[-2]}={argv[-1]}"]
        assert run_cli(joined)[:2] == (code, out)

    @pytest.mark.parametrize("prefix", ["--l", "--li", "--lin"])
    def test_line_prefix_with_leading_minus(self, prefix):
        # argparse takes any unambiguous prefix of --line for --line
        doc = str(FIXTURES / "example.json")
        code, out, err = run_cli(["verify", doc, prefix, "-1,0,0"])
        assert code != 2, err
        assert (code, out) == run_cli(["verify", doc, "--line=-1,0,0"])[:2]

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["-1,0,0"], "error: argument command: invalid choice: '-1,0,0'"),
            (["theorem-check", "--seed", "-1,2"], "error: argument --seed: invalid _seed value: '-1,2'\n"),
            (
                ["theorem-check", "--nodes-range", "-2,3"],
                "error: argument --nodes-range: invalid positive_int value: '-2,3'\n",
            ),
            (
                ["verify", str(FIXTURES / "example.json"), "--line", "-.5,0,0"],
                "error: argument --line: not a rational string: '-.5'\n",
            ),
        ],
        ids=["command", "seed", "nodes-range", "line-of-a-decimal"],
    )
    def test_negative_list_is_a_value_wherever_it_stands(self, argv, expected):
        # an argument with a minus and a digit is a value, not an option: the
        # error names the value, not a missing command or option value
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith(expected) and err.count("\n") == 1

    def test_file_name_with_leading_minus(self, tmp_path, monkeypatch):
        shutil.copy(FIXTURES / "example.json", tmp_path / "-1.json")
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(["verify", "-1.json"])
        assert code == 0, err
        assert (code, out) == run_cli(["verify", "--", "-1.json"])[:2]

    @pytest.mark.parametrize(
        "argv", [["verify", str(FIXTURES / "example.json"), "--h"], ["--h"]], ids=["verify", "no-command"]
    )
    def test_value_after_another_commands_list_option_stays_apart(self, argv):
        # with no --h option of its own, a parser takes --h for --help, which
        # takes no value: a value with a leading minus is left where it was typed
        code, out, err = run_cli([*argv, "-1,0,0"])
        assert (code, out, err) == run_cli([*argv, "1,0,0"])
        assert code == 0 and out.startswith("usage: doubleline")

    def test_unknown_option_is_reported_as_typed(self):
        code, out, err = run_cli(["theorem-check", "--lin", "-1"])
        assert (code, out, err) == (2, "", "error: unrecognized arguments: --lin -1\n")

    def test_list_option_still_needs_a_value(self):
        code, _, err = run_cli(["identity-check", "--h", "--json"])
        assert code == 2
        assert "expected one argument" in err


class TestParserReuse:
    """``main`` builds its parser once per process; parsing leaves no state
    behind that a later call could see."""

    SEQUENCE = [
        ["claim-check", "--h=0,1,2,3,4,5"],
        ["claim-check", "--random", "1"],
        ["claim-check", "--h=0,1,2,3,4,5", "--random", "1"],  # mutually exclusive
        ["theorem-check", "--trials", "1"],
        ["identity-check", "--h=0,1,2,3,4,5,6"],
    ]

    def test_reused_parser_keeps_no_state(self, monkeypatch):
        built = []

        class CountingParser(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", CountingParser)
        cli.build_parser.cache_clear()
        try:
            rounds = [[run_cli(argv)[:2] for argv in self.SEQUENCE] for _ in range(2)]
        finally:
            cli.build_parser.cache_clear()
        assert rounds[0] == rounds[1]
        assert [code for code, _ in rounds[0]] == [0, 0, 2, 0, 0]
        # subparsers are built with the parser's own class, once each
        assert built.count("doubleline") == 1
        for command in COMMAND_NAMES:
            assert built.count(f"doubleline {command}") == 1, command

    @pytest.mark.parametrize(
        "argv, passes",
        [
            # a positional, an abbreviation, a repeated option and a value
            # with a leading minus as its own token: the command's parser
            (["verify", str(FIXTURES / "example.json")], ["doubleline verify"]),
            (["theorem-check", "--tr", "1"], ["doubleline theorem-check"]),
            (["theorem-check", "--trials", "1", "--seed", "1", "--seed", "2"], ["doubleline theorem-check"]),
            (["claim-check", "--h", "-1/2,0,1,2,3,4"], ["doubleline claim-check"]),
            # whole options, each once: no argparse pass
            (["theorem-check", "--trials", "1"], []),
            (["identity-check", "--h=0,1,2,3,4,5,6"], []),
            (["claim-check", "--h=0,1,2,3,4,5"], []),
            (["example"], []),
        ],
        ids=[
            "verify", "abbreviation", "repeated-option", "negative-value-token",
            "theorem-check", "identity-check", "claim-check", "example",
        ],
    )
    def test_one_argparse_pass_per_command(self, monkeypatch, argv, passes):
        """A known command is never parsed by the full parser: an argv of whole
        options, each given once, takes no argparse pass, and any other takes
        one pass of the command's own parser."""
        seen = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counting(parser, *args, **kwargs):
            seen.append(parser.prog)
            return parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        assert run_cli(argv)[0] == 0
        assert seen == passes


class TestCommandTable:
    """argparse keeps the one command table: each command's parser holds its
    handler as the default ``run``, and ``--json`` is declared once for all."""

    @pytest.mark.parametrize("name", COMMAND_NAMES)
    def test_each_parser_runs_its_handler(self, name):
        handler = getattr(cli, "cmd_" + name.replace("-", "_"))
        assert cli.build_parser().commands[name].get_default("run") is handler

    @pytest.mark.parametrize(
        "name, usage",
        [
            ("verify", "[-h] [--line LINE] [--json] file"),
            ("theorem-check", "[-h] [--trials TRIALS] [--seed SEED] [--nodes-range NODES_RANGE] [--json]"),
            ("identity-check", "[-h] --h H [--json]"),
            ("claim-check", "[-h] (--h H | --random RANDOM) [--seed SEED] [--json]"),
            ("example", "[-h] [--json]"),
        ],
    )
    def test_usage_lines(self, name, usage):
        # --json is added after every other argument, so it ends each usage line
        text = cli.build_parser().commands[name].format_usage()
        assert " ".join(text.split()) == f"usage: doubleline {name} {usage}"


class TestAsciiDigits:
    """A rational is ``p`` or ``p/q`` in ASCII digits; other Unicode decimal
    digits, which ``Fraction`` and ``\\d`` accept, are bad input."""

    def test_arabic_indic_digits_in_argv(self):
        h = ",".join(chr(0x0660 + i) for i in range(7))
        code, out, err = run_cli(["identity-check", f"--h={h}"])
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err

    def test_fullwidth_digit_in_line(self):
        code, out, err = run_cli(["verify", str(FIXTURES / "example.json"), "--line=0,0,\uff11"])
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err

    def test_non_ascii_digit_in_document(self, tmp_path):
        doc = json.loads((FIXTURES / "tangent7.json").read_text())
        doc["terms"][0]["alpha"] = "\u0663"
        path = tmp_path / "arabic-indic.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["verify", str(path)])
        assert code == 2 and out == ""
        assert err == "error: not a rational string: '\u0663'\n"


class TestOneDerivationPerTrial:
    """The generators only build instances; ``analyze`` derives each trial's
    cofactor and its rank once."""

    def test_theorem_check(self, monkeypatch):
        extractions = count_calls(monkeypatch, engine, "extract_cofactor")
        code, out, _ = run_cli(["theorem-check", "--trials", "20", "--seed", "1"])
        assert code == 0 and "tangent: 20" in out.splitlines()
        assert len(extractions) == 20

    def test_claim_check_random(self, monkeypatch):
        extractions = count_calls(monkeypatch, engine, "extract_cofactor")
        ranks = count_calls(monkeypatch, engine, "conic_rank")
        code, out, _ = run_cli(["claim-check", "--random", "20", "--seed", "3"])
        assert code == 0 and "two-value-pass: 20" in out.splitlines()
        assert len(extractions) == 20 and len(ranks) == 20

    def test_weight_sampling_exhausted(self, monkeypatch):
        monkeypatch.setattr(engine, "MAX_WEIGHT_SAMPLES", 0)
        code, out, _ = run_cli(["theorem-check", "--trials", "2"])
        assert code == 1
        assert (
            "check all-nonzero-cofactors-tangent-with-certificate: fail "
            "(trial 0: weight sampling exhausted; trial 1: weight sampling exhausted)"
        ) in out.splitlines()


class TestFormBudget:
    """A trial's decomposition is its instance's cleared pairs, so the forms a
    ``theorem-check`` or ``claim-check --random`` trial builds are six: the
    value, the quotient and remainder of each of ``extract_cofactor``'s two
    divisions, and the cofactor's restriction."""

    @pytest.mark.parametrize(
        "argv", [["theorem-check", "--trials", "20", "--seed", "1"], ["claim-check", "--random", "20", "--seed", "3"]]
    )
    def test_constructions_per_trial(self, monkeypatch, argv):
        built = count_calls(monkeypatch, engine.HomogeneousForm, "__init__")
        code, _, _ = run_cli(argv)
        monkeypatch.undo()
        assert code == 0 and 0 < len(built) <= 6 * 20


class TestFractionBudget:
    """``theorem-check`` carries each trial's rationals as cleared pairs from
    the generator to the checks, the restricted conic included.  The
    Fractions it builds, counted through ``Fraction.__new__``, are four a
    trial (the three lift parameters the command draws and the defect) and
    the slope pool, once (457 for 100 trials); ``linalg.clear_denominators``
    runs twice a trial (the slopes and the lift parameters), as the
    decomposition takes the instance's weight pair as it is."""

    @staticmethod
    def run_hundred_trials() -> None:
        with redirect_stderr(io.StringIO()):
            code = main(["theorem-check", "--trials", "100", "--seed", "1"], out=io.StringIO())
        assert code == 0

    def test_theorem_check_hundred_trials(self, monkeypatch):
        made = count_fractions(monkeypatch)
        self.run_hundred_trials()
        monkeypatch.undo()
        assert 0 < len(made) <= 500

    def test_clearings_per_trial(self, monkeypatch):
        cleared = count_clearings(monkeypatch)
        self.run_hundred_trials()
        assert 0 < len(cleared) <= 2 * 100


class TestInputCaps:
    """Each cap is probed only at cap + 1, which parsing rejects before any work."""

    @pytest.mark.parametrize(
        "command, option, cap",
        [
            ("theorem-check", "--trials", MAX_TRIALS),
            ("theorem-check", "--nodes-range", MAX_NODES_RANGE),
            ("claim-check", "--random", MAX_TRIALS),
        ],
        ids=["trials", "nodes-range", "random"],
    )
    def test_count_above_cap_is_a_usage_error(self, command, option, cap):
        code, out, err = run_cli([command, option, str(cap + 1)])
        assert code == 2
        assert out == ""
        assert f"must be between 1 and {cap}" in err

    def test_long_rational_rejected(self):
        long = "1" * (MAX_RATIONAL_CHARS + 1)
        with pytest.raises(ValueError, match="longer than"):
            parse_rational(long)
        assert parse_rational(long[1:]) == int(long[1:])

    def test_long_rational_in_argv_is_a_usage_error(self):
        long = "1" * (MAX_RATIONAL_CHARS + 1)
        code, out, err = run_cli(["claim-check", f"--h=0,1,2,3,4,{long}"])
        assert code == 2
        assert out == ""
        assert "longer than" in err

    def test_identity_check_slope_list_cap(self):
        # zero-padded slopes 0..6 keep the list at the cap as cheap as 0,...,6
        slopes = [str(k).zfill((MAX_SLOPES_CHARS - 6) // 7) for k in range(7)]
        at_cap = "--h=" + ",".join(slopes)
        assert len(at_cap) == len("--h=") + MAX_SLOPES_CHARS
        code, out, err = run_cli(["identity-check", at_cap])
        assert code == 0, err
        assert out == run_cli(["identity-check", "--h=0,1,2,3,4,5,6"])[1]
        code, out, err = run_cli(["identity-check", at_cap.replace("=", "=0", 1)])
        assert code == 2
        assert out == ""
        assert err == (
            f"error: argument --h: slope list longer than {MAX_SLOPES_CHARS} characters\n"
        )

    def test_long_rational_in_document_is_a_usage_error(self, tmp_path):
        doc = json.loads((FIXTURES / "tangent7.json").read_text())
        doc["terms"][0]["alpha"] = "1" * (MAX_RATIONAL_CHARS + 1)
        path = tmp_path / "long-alpha.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["verify", str(path)])
        assert code == 2
        assert out == ""
        assert err == f"error: rational string longer than {MAX_RATIONAL_CHARS} characters\n"

    def test_document_size_cap(self, tmp_path):
        data = (FIXTURES / "tangent7.json").read_bytes()
        path = tmp_path / "padded.json"
        path.write_bytes(data + b" " * (MAX_DOCUMENT_BYTES - len(data)))
        assert run_cli(["verify", str(path)])[0] == 0
        path.write_bytes(data + b" " * (MAX_DOCUMENT_BYTES + 1 - len(data)))
        code, out, err = run_cli(["verify", str(path)])
        assert code == 2
        assert out == ""
        assert err == f"error: document longer than {MAX_DOCUMENT_BYTES} bytes\n"

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_file_is_a_usage_error(self):
        code, out, err = run_cli(["verify", "/dev/zero"])
        assert code == 2
        assert out == ""
        assert err == f"error: document longer than {MAX_DOCUMENT_BYTES} bytes\n"


def _exact(text: str) -> Fraction:
    """``p`` or ``p/q`` at any size (``int`` of a str refuses more than 4,300
    digits, ``int`` of a Decimal does not)."""
    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


def _fields(out: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in out.splitlines())


class TestLargeNumbers:
    """Numbers past the 4,300-digit limit of ``str`` on an int print exactly,
    and ``main()`` leaves that process-wide limit as it found it."""

    def run_checked(self, argv) -> dict[str, str]:
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(argv)
        assert sys.get_int_max_str_digits() == limit
        assert code == 0, err
        assert "Traceback" not in err
        return _fields(out)

    def test_identity_check_node_difference_product(self):
        # slopes of 220 digits and more are past MAX_SLOPES_CHARS, so the
        # slice is checked in process and its product printed as
        # identity-check prints it; the multiples k * n of one n keep the
        # kernels small, so the expansion is quick, while the product
        # n**21 * prod(k_i - k_j) has 4,615 digits
        n = random.Random(5).randrange(10**219, 10**220)
        hs = [k * n for k in range(1, 8)]
        report = verify_identity_slice(hs)
        product = prod(a - b for a, b in combinations(hs, 2))
        assert abs(product) >= 10**4300
        assert _exact(format_rational(report.node_difference_product)) == product

    def test_claim_check_annihilator(self):
        rng = random.Random(6)
        hs = [rng.randrange(10**998, 10**999) for _ in range(6)]
        fields = self.run_checked(["claim-check", "--h=" + ",".join(map(str, hs))])
        annihilator = [_exact(a) for a in fields["annihilator"].split()]
        assert max(map(abs, annihilator)) >= 10**4300
        assert annihilator[0] > 0 and gcd(*map(int, annihilator)) == 1
        for d in range(5):
            assert sum(a * h**d for a, h in zip(annihilator, hs)) == 0

    def test_verify_scaled_document(self, tmp_path):
        doc = json.loads((FIXTURES / "example.json").read_text())
        alpha_scale, linear_scale = 10**998 + 7, 10**900 + 3
        for term in doc["terms"]:
            term["alpha"] = str(int(term["alpha"]) * alpha_scale)
            term["linear"] = [str(int(c) * linear_scale) for c in term["linear"]]
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(doc))
        fields = self.run_checked(["verify", str(path)])
        scale = alpha_scale * linear_scale**4
        assert scale >= 10**4300
        terms = fields["cofactor"].replace(" - ", " + -").split(" + ")
        assert [_exact(t.split("*")[0]) for t in terms] == [c * scale for c in (-24, -24, -12, -4)]
        factor, primitive = fields["cofactor-normalized"].split(" * ", 1)
        assert _exact(factor) == -4 * scale
        assert primitive == "(6*x0^2 + 6*x0*x1 + 3*x1^2 + x2^2)"


class TestExitTable:
    def test_bug_exception_propagates(self, monkeypatch):
        # a StructuralError from the engine is a bug, not bad input
        def broken(*args):
            raise StructuralError("target is not line^2 * cofactor")

        monkeypatch.setattr(cli, "analyze", broken)
        with pytest.raises(StructuralError, match="target is not line"):
            main(["example"], out=io.StringIO())

    @pytest.mark.parametrize(
        "argv, check",
        [
            (["verify", str(FIXTURES / "tangent7.json")], "analyze"),
            (["example"], "analyze"),
            (["theorem-check", "--trials", "1"], "analyze"),
            (["claim-check", "--random", "1"], "two_value_collapse_check"),
        ],
        ids=["verify", "example", "theorem-check", "claim-check"],
    )
    def test_violation_is_one_stderr_line(self, monkeypatch, argv, check):
        # every command reports a violation the same way: no report, one line
        message = "certificate contact point disagrees with kernel point"

        def violated(*args):
            raise TheoremViolationError(message)

        monkeypatch.setattr(cli, check, violated)
        code, out, err = run_cli(argv)
        assert code == 1
        assert out == ""
        assert err == f"internal consistency failure: {message}\n"

    @pytest.mark.parametrize(
        "fault, failed",
        [
            ("degree-2", "lift-family-is-translations"),
            ("one-entry", "lift-family-is-translations"),
            ("zero-annihilator", "annihilator-nonzero"),
            ("off-kernel", "quartic-identically-zero"),
        ],
    )
    def test_six_term_check_fires(self, monkeypatch, fault, failed):
        # a wrong kernel is a failed check (exit 1), never bad input (exit 2)
        wrong_kernel(monkeypatch, fault)
        code, out, err = run_cli(["claim-check", "--h=0,1,2,3,4,5"])
        assert code == 1
        assert f"check {failed}: fail\n" in out
        assert out.endswith("result: fail\n")
        assert err.startswith("wall-time: ") and "error:" not in err

    def test_claim_check_two_value_violation_fires(self, monkeypatch):
        # a generated family with a zero weight, reported nondegenerate
        nondegenerate_analysis(monkeypatch)
        monkeypatch.setattr(cli, "generate_six_term_family", lambda pair, seed: ZERO_WEIGHT_TRIPLES)
        code, out, err = run_cli(["claim-check", "--random", "1"])
        assert code == 1
        assert out == ""
        assert err == "internal consistency failure: a weight vanishes on a nondegenerate instance\n"

    def test_claim_check_random_failures_name_their_trial(self, monkeypatch):
        # a failed vanishing check and a family the collapse does not apply to
        # are failed checks (exit 1), each named with its trial
        monkeypatch.setattr(cli, "six_term_vanishing_check", lambda slopes: SimpleNamespace(passed=False))
        monkeypatch.setattr(cli, "two_value_collapse_check", lambda inst: SimpleNamespace(applicable=False))
        code, out, err = run_cli(["claim-check", "--random", "1"])
        assert code == 1
        assert (
            "check all-trials: fail (trial 0: vanishing failed; trial 0: generated family not applicable)\n"
        ) in out
        assert out.endswith("result: fail\n")
        assert err.startswith("wall-time: ") and "error:" not in err

    def test_theorem_check_defect_fires(self, monkeypatch):
        # seed 0, trial 0 is tangent with a certificate: only the defect fails
        monkeypatch.setattr(cli, "tangency_defect", lambda inst: Fraction(1))
        code, out, err = run_cli(["theorem-check", "--trials", "1"])
        assert code == 1
        assert (
            "check all-nonzero-cofactors-tangent-with-certificate: fail (trial 0: defect=1)\n"
        ) in out
        assert err.startswith("wall-time: ") and "error:" not in err

    @pytest.mark.parametrize(
        "wrong, message",
        [
            (
                lambda tangent, point: (False, None),
                "certificate exists but discriminant test disagrees",
            ),
            (
                lambda tangent, point: (True, (point[0] + 1, point[1])),
                "certificate contact point disagrees with kernel point",
            ),
        ],
        ids=["discriminant", "contact-point"],
    )
    def test_theorem_check_cross_check_fires(self, monkeypatch, wrong, message):
        # the discriminant test disagreeing with a certificate is a violation
        original = BinaryQuadratic.tangency
        monkeypatch.setattr(BinaryQuadratic, "tangency", lambda self: wrong(*original(self)))
        code, out, err = run_cli(["theorem-check", "--trials", "1"])
        assert code == 1
        assert out == ""
        assert err == f"internal consistency failure: {message}\n"

    def test_document_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes((FIXTURES / "tangent7.json").read_bytes().replace(b'"x0"', b'"x\xe9"'))
        code, out, err = run_cli(["verify", str(path)])
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


    @pytest.mark.parametrize("field", ["line", "alpha"])
    def test_document_integer_past_digit_limit(self, tmp_path, field):
        # json.loads raises a plain ValueError, not JSONDecodeError, on an
        # integer literal longer than int's string-conversion limit
        doc = json.loads((FIXTURES / "tangent7.json").read_text())
        if field == "line":
            doc["line"][0] = "BIG"
        else:
            doc["terms"][0]["alpha"] = "BIG"
        path = tmp_path / "bigint.json"
        path.write_text(json.dumps(doc).replace('"BIG"', "7" * 5000))
        code, out, err = run_cli(["verify", str(path)])
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: invalid JSON:"), err


# argv tokens for the fuzz test.  theorem-check and claim-check are left out,
# and random tokens (at most 6 characters) can neither spell them nor name a
# device file such as /dev/zero, so no case can ask for a long run.
FUZZ_TOKENS = [
    "verify", "example", "identity-check", "{doc}", "--json", "--line", "--h", "--",
    "-h", "0,0,1", "1,0,0", "0,0,0", "-1,0,1", "1/0,0,1", "0,1,2,3,4,5,6", "0,1,2,3,4,5,5",
]
_fuzz_token = st.one_of(st.sampled_from(FUZZ_TOKENS), st.text(max_size=6))
# any byte, or one that keeps a rational string a rational string
_byte = st.one_of(st.integers(0, 255), st.sampled_from(b"0123456789/-"))
_byte_edit = st.tuples(
    st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 10**6), _byte
)
_fuzz_argv = st.one_of(
    st.sampled_from([["verify", "{doc}"], ["verify", "{doc}", "--json"]]),
    st.lists(_fuzz_token, max_size=3).map(lambda extra: ["verify", "{doc}", *extra]),
    st.lists(_fuzz_token, max_size=5),
)


def _mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for kind, pos, byte in edits:
        if kind == "insert":
            buf.insert(pos % (len(buf) + 1), byte)
        elif buf and kind == "replace":
            buf[pos % len(buf)] = byte
        elif buf:
            del buf[pos % len(buf)]
    return bytes(buf)


class TestFuzz:
    @settings(max_examples=200)
    @given(edits=st.lists(_byte_edit, max_size=6), argv=_fuzz_argv)
    def test_mutated_document_and_argv(self, tmp_path_factory, edits, argv):
        """Any mutation of ``tangent7.json`` (bytes that are not UTF-8 included)
        and of argv exits 0, 1 or 2 in process, with at most one stderr line
        besides ``wall-time:``, and exactly one ``error:`` line on exit 2."""
        path = tmp_path_factory.getbasetemp() / "fuzzed.json"
        path.write_bytes(_mutate((FIXTURES / "tangent7.json").read_bytes(), edits))
        code, _, err = run_cli([str(path) if a == "{doc}" else a for a in argv])
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        others = [line for line in err.splitlines() if not line.startswith("wall-time:")]
        assert len(others) <= 1, err
        if code == 2:
            assert len(others) == 1 and others[0].startswith("error: "), err


# the fuzz tokens, the two commands they leave out with their options and
# abbreviations of them, and tokens that argparse treats specially
PARSE_TOKENS = FUZZ_TOKENS + [
    "theorem-check", "claim-check", "--trials", "--tr", "--seed", "--se", "--nodes-range",
    "--no", "--random", "--ra", "--json", "--js", "--help", "--he", "--h=-1,0,1,2,3,4",
    "--seed=-1", "1", "0", "-1", "7", "frobnicate", "",
    # whole options joined to their values, which the exact path takes
    "--trials=1", "--seed=7", "--nodes-range=9", "--random=2", "--json=1",
    "--h=0,1,2,3,4,5", "--h=0,1,2,3,4,5,6",
]
_parse_token = st.one_of(st.sampled_from(PARSE_TOKENS), st.text(max_size=6))


def _parse_outcome(parse, argv):
    """The Namespace that ``parse(argv)`` returns, or the exit code, stdout
    and stderr with which it exits."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


class TestParseArgv:
    @settings(max_examples=500)
    @given(
        argv=st.one_of(
            st.lists(_parse_token, max_size=6),
            st.tuples(st.sampled_from(COMMAND_NAMES), st.lists(_parse_token, max_size=5)).map(
                lambda parts: [parts[0], *parts[1]]
            ),
        )
    )
    @example(argv=[])
    @example(argv=["-h"])
    @example(argv=["--", "example"])
    @example(argv=["verify", "--help"])
    @example(argv=["claim-check", "--ra", "1", "--h=0,1,2,3,4,5"])
    # one argv of each bench workload
    @example(argv=["theorem-check", "--trials", "1", "--seed", "3735928559"])
    @example(argv=["identity-check", "--h=-12,5/3,0,1/5,7,-1/2,11"])
    @example(argv=["claim-check", "--random", "1", "--seed", "3735928559"])
    @example(argv=["claim-check", "--h=-12,5/3,0,1/5,7,-1/2"])
    @example(argv=["theorem-check", "--trials", "0"])  # the type refuses it
    @example(argv=["theorem-check", "--seed", "1", "--seed", "2"])  # argparse keeps the last
    @example(argv=["claim-check", "--random", "1", "--h=0,1,2,3,4,5"])  # mutually exclusive
    def test_dispatch_matches_the_full_parser(self, argv):
        """Only parses: a known command is built by the exact path or goes to
        its own parser, any other argv to the full one, and both give the
        same Namespace or the same exit."""
        assert _parse_outcome(cli.parse_argv, argv) == _parse_outcome(
            cli.build_parser().parse_args, argv
        )


class TestDeterminismAndJson:
    COMMANDS = [
        ["example"],
        ["verify", str(FIXTURES / "example.json")],
        ["verify", str(FIXTURES / "tangent7.json")],
        ["theorem-check", "--trials", "5", "--seed", "7"],
        ["identity-check", "--h", "0,1,2,3,4,5,6"],
        ["claim-check", "--h", "0,1,2,3,4,5"],
        ["claim-check", "--random", "3", "--seed", "3"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: " ".join(a[:2]))
    def test_byte_identical_runs(self, argv):
        first = run_cli(argv)
        second = run_cli(argv)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: " ".join(a[:2]))
    def test_json_mode(self, argv):
        code, out, _ = run_cli(argv + ["--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "pass"
        again = run_cli(argv + ["--json"])
        assert again[1] == out

    def test_exit_codes_are_limited(self):
        cases = [
            (["example"], 0),
            (["identity-check", "--h", "0,1,2,3,4,5,5"], 1),
            (["identity-check", "--h", "nonsense"], 2),
        ]
        for argv, expected in cases:
            code, _, _ = run_cli(argv)
            assert code == expected


def test_module_entry_point():
    # the child imports the same package as this process, installed or not
    package_root = str(Path(doubleline.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "doubleline", "example"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert "result: pass" in result.stdout
    assert "wall-time" in result.stderr


def test_module_entry_point_reads_a_negative_list_from_argv():
    # the one module entry point, reading sys.argv as the shell passes it
    argv = ["claim-check", "--h", "-1/2,0,1,2,3,4"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run(
        [sys.executable, "-m", "doubleline", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == run_cli(argv)[1]
