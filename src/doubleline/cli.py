"""Command-line driver: verify, theorem-check, identity-check, claim-check, example.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage or
parse error (``_INPUT_ERRORS``); any other exception is a bug and propagates.
Reports are deterministic functions of flags, files and seed;
wall time is printed to stderr so that stdout is byte-identical across runs.
Rationals are serialized as strings of the shape ``p`` or ``p/q`` and never
as floating-point numbers.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import re
import sys
import time
from fractions import Fraction
from typing import NoReturn, Sequence, TextIO

from .engine import (
    AnalysisReport,
    WaringDecomposition,
    analyze,
    generate_six_term_family,
    generate_tangent_instance,
    line_x2,
    six_term_vanishing_check,
    tangency_defect,
    two_value_collapse_check,
    verify_identity_slice,
)
from .errors import (
    DegenerateNodesError,
    GenerationFailureError,
    InvalidInputError,
    TheoremViolationError,
)
from .forms import (
    HomogeneousForm,
    content_normalize,
    embed_in_plane,
    parse_form,
    render_form,
)
from .linalg import format_rational
from .record import Record

# [0-9], not \d: \d, int and Fraction also accept the other Unicode digits
INTEGER_PATTERN = re.compile(r"-?[0-9]+")
RATIONAL_PATTERN = re.compile(INTEGER_PATTERN.pattern + r"(/[0-9]+)?")

# input caps, enforced while parsing (exit 2)
MAX_RATIONAL_CHARS = 1_000  # one rational string, in argv or in a document
MAX_NODES_RANGE = 1_000  # theorem-check --nodes-range (a pool of about 6N slopes)
MAX_TRIALS = 100_000  # theorem-check --trials and claim-check --random
MAX_DOCUMENT_BYTES = 1_000_000  # one verify document (fixtures/tangent7.json is about 2 KB)
MAX_SLOPES_CHARS = 1_000  # identity-check --h: its expansion's cost grows with the slopes' digits


def parse_rational(text: str) -> Fraction:
    if len(text) > MAX_RATIONAL_CHARS:
        raise ValueError(f"rational string longer than {MAX_RATIONAL_CHARS} characters")
    if not RATIONAL_PATTERN.fullmatch(text):
        raise ValueError(f"not a rational string: {text!r}")
    num, _, den = text.partition("/")
    if den and not int(den):
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(num), int(den or 1))  # Fraction(text) would match its own regex


# decomposition documents


class DecompositionDocument(Record):
    """JSON-serializable decomposition: variables, line, weighted lines."""

    variables: tuple[str, str, str]
    line: tuple[Fraction, Fraction, Fraction]
    terms: tuple[tuple[Fraction, tuple[Fraction, Fraction, Fraction]], ...]


class DocumentError(ValueError):
    pass


def _rational_field(value, message: str) -> Fraction:
    """A document's rational string; DocumentError(message) for another JSON value."""
    if not isinstance(value, str):
        raise DocumentError(message)
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def _rational_triple(values, what: str) -> tuple[Fraction, Fraction, Fraction]:
    if not isinstance(values, list) or len(values) != 3:
        raise DocumentError(f"{what} must be a list of 3 rational strings")
    return tuple(_rational_field(v, f"{what} entries must be strings, got {v!r}") for v in values)


def _unique_fields(pairs: list[tuple[str, object]]) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise DocumentError(f"duplicate field {key!r}")
        out[key] = value
    return out


def parse_document(text: str) -> DecompositionDocument:
    import json  # here, not at module level: only documents and --json output use it

    try:
        raw = json.loads(text, object_pairs_hook=_unique_fields)
    except DocumentError:  # a duplicate field, from _unique_fields
        raise
    except ValueError as exc:
        # JSONDecodeError, or an integer literal past int's digit limit
        raise DocumentError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError("invalid JSON: nested too deeply") from exc
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")
    fields = ("variables", "line", "terms")
    for key in fields:
        if key not in raw:
            raise DocumentError(f"missing field {key!r}")
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise DocumentError(f"unknown field {unknown[0]!r}")
    variables = raw["variables"]
    if (
        not isinstance(variables, list)
        or len(variables) != 3
        or not all(isinstance(v, str) for v in variables)
        or len(set(variables)) != 3
    ):
        raise DocumentError("variables must be a list of 3 distinct names")
    line = _rational_triple(raw["line"], "line")
    if not isinstance(raw["terms"], list) or not raw["terms"]:
        raise DocumentError("terms must be a non-empty list")
    terms = []
    for i, term in enumerate(raw["terms"]):
        if not isinstance(term, dict) or set(term) != {"alpha", "linear"}:
            raise DocumentError(f"term {i} must have exactly the fields alpha and linear")
        alpha = _rational_field(term["alpha"], f"term {i}: alpha must be a rational string")
        linear = _rational_triple(term["linear"], f"term {i} linear")
        if not any(linear):
            raise DocumentError(f"term {i}: linear must be a nonzero form")
        terms.append((alpha, linear))
    return DecompositionDocument(
        variables=tuple(variables), line=line, terms=tuple(terms)
    )


def render_document(doc: DecompositionDocument) -> str:
    import json

    payload = {
        "variables": list(doc.variables),
        "line": [format_rational(c) for c in doc.line],
        "terms": [
            {
                "alpha": format_rational(alpha),
                "linear": [format_rational(c) for c in linear],
            }
            for alpha, linear in doc.terms
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def document_to_parts(doc: DecompositionDocument) -> tuple[WaringDecomposition, HomogeneousForm]:
    # a zero weight still parses, so that every document renders and parses
    # back, but it is not a term of a decomposition
    for i, (alpha, _) in enumerate(doc.terms):
        if not alpha:
            raise DocumentError(f"term {i}: alpha must be nonzero")
    dec = WaringDecomposition(
        tuple((alpha, HomogeneousForm.linear(linear)) for alpha, linear in doc.terms)
    )
    return dec, HomogeneousForm.linear(doc.line)


# run reports


class RunReport:
    def __init__(self, command: str, seed: int | None = None):
        self.command = command
        self.seed = seed
        self.fields: list[tuple[str, str]] = []
        self.checks: list[tuple[str, str, str | None]] = []

    def add(self, key: str, value: str | int | Fraction) -> None:
        self.fields.append((key, value if isinstance(value, str) else format_rational(value)))

    def check(self, name: str, ok: bool, witness: str | None = None) -> None:
        self.checks.append((name, "pass" if ok else "fail", witness))

    @property
    def result(self) -> str:
        if any(status == "fail" for _, status, _ in self.checks):
            return "fail"
        return "pass"

    @property
    def exit_code(self) -> int:
        return 0 if self.result == "pass" else 1

    def render_text(self) -> str:
        lines = [f"command: {self.command}"]
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        lines.extend(f"{key}: {value}" for key, value in self.fields)
        for name, status, witness in self.checks:
            suffix = f" ({witness})" if witness else ""
            lines.append(f"check {name}: {status}{suffix}")
        lines.append(f"result: {self.result}")
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        import json

        payload = {
            "command": self.command,
            "seed": self.seed,
            "fields": {key: value for key, value in self.fields},
            "checks": [
                {"name": name, "status": status, "witness": witness}
                for name, status, witness in self.checks
            ],
            "result": self.result,
        }
        return json.dumps(payload, indent=2) + "\n"


def _format_vector(values) -> str:
    return " ".join(map(format_rational, values))


def _add_analysis(report: RunReport, analysis: AnalysisReport, line: HomogeneousForm) -> None:
    report.add("input", analysis.summary)
    report.check("divisible-by-line-squared", analysis.divisible)
    if not analysis.divisible:
        report.add("remainder", render_form(analysis.remainder))
        return
    cofactor = analysis.cofactor
    report.add("cofactor", render_form(cofactor))
    factor, primitive = content_normalize(cofactor)
    if factor != 1 and not cofactor.is_zero():
        report.add("cofactor-normalized", f"{format_rational(factor)} * ({render_form(primitive)})")
    report.add("conic-rank", analysis.conic_rank)
    if analysis.tangent is None:
        report.add("tangent", "undefined (zero cofactor)")
    else:
        report.add("tangent", "true" if analysis.tangent else "false")
    if analysis.tangency_point is not None:
        report.add("tangency-point", _format_vector(analysis.tangency_point))
        report.add(
            "tangency-point-in-plane",
            _format_vector(embed_in_plane(line, analysis.tangency_point)),
        )
    cert = analysis.certificate
    if cert is not None:
        report.add("certificate-annihilator", _format_vector(cert.annihilator))
        report.add("certificate-contact-vector", _format_vector(cert.contact_vector))
        report.add("certificate-transversal-point", _format_vector(cert.transversal_point))
        report.add("certificate-line-values", _format_vector(cert.line_values))
        report.add("certificate-bridge", render_form(cert.bridge.to_form()))
        report.add("certificate-restricted-conic", render_form(cert.restricted_conic.to_form()))
        report.check("certificate-verified", True)


# commands


def cmd_verify(args) -> RunReport:
    report = RunReport(command="verify")
    report.add("file", args.file)
    with open(args.file, "rb") as handle:
        data = handle.read(MAX_DOCUMENT_BYTES + 1)
    if len(data) > MAX_DOCUMENT_BYTES:
        raise DocumentError(f"document longer than {MAX_DOCUMENT_BYTES} bytes")
    dec, doc_line = document_to_parts(parse_document(data.decode("utf-8")))
    line = HomogeneousForm.linear(args.line) if args.line else doc_line
    report.add("line", _format_vector(line.linear_coefficients()))
    _add_analysis(report, analyze(dec, line), line)
    return report


def cmd_example(args) -> RunReport:
    report = RunReport(command="example")
    lines = [
        (2, (1, 0, 0)),
        (-1, (1, 0, 1)),
        (-1, (1, 0, -1)),
        (2, (1, 1, 0)),
        (-1, (1, 1, 1)),
        (-1, (1, 1, -1)),
    ]
    dec = WaringDecomposition(
        tuple((Fraction(w), HomogeneousForm.linear(coeffs)) for w, coeffs in lines)
    )
    value = dec.value()
    conic = parse_form("6*x0^2 + 6*x0*x1 + 3*x1^2 + x2^2", 3)
    expected = Fraction(-4) * conic * HomogeneousForm.variable(3, 2) ** 2
    report.add("value", render_form(value))
    report.check("value-identity", value == expected)
    analysis = analyze(dec, line_x2())
    _add_analysis(report, analysis, line_x2())
    report.check("conic-rank-3", analysis.conic_rank == 3)
    report.check("not-tangent", analysis.tangent is False)
    return report


# kept per process: claim-check uses 6, theorem-check its --nodes-range (9)
@functools.lru_cache(maxsize=4)
def _node_pool(max_abs: int) -> tuple[Fraction, ...]:
    pool = {Fraction(n, d) for d in (1, 2, 3) for n in range(-max_abs, max_abs + 1)}
    return tuple(sorted(pool))


def cmd_theorem_check(args) -> RunReport:
    report = RunReport(command="theorem-check", seed=args.seed)
    report.add("trials", args.trials)
    report.add("nodes-range", args.nodes_range)
    pool = _node_pool(args.nodes_range)
    tangent = degenerate = retries = 0
    failures: list[str] = []
    for trial in range(args.trials):
        rng = random.Random(f"theorem:{args.seed}:{trial}")
        slopes = tuple(rng.sample(pool, 7))
        params = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)
        )
        try:
            generated = generate_tangent_instance(
                slopes, params, seed=args.seed * 1_000_003 + trial
            )
        except GenerationFailureError:
            failures.append(f"trial {trial}: weight sampling exhausted")
            continue
        retries += generated.weight_retries
        analysis = analyze(generated.instance.to_decomposition(), line_x2())
        if analysis.cofactor.is_zero():
            degenerate += 1
            continue
        defect = tangency_defect(generated.instance)
        ok = (
            defect == 0
            and analysis.tangent is True
            and analysis.certificate is not None
        )
        if ok:
            tangent += 1
        else:
            failures.append(f"trial {trial}: defect={format_rational(defect)}")
    report.add("tangent", tangent)
    report.add("q-zero-degenerate", degenerate)
    report.add("weight-retries", retries)
    report.check(
        "all-nonzero-cofactors-tangent-with-certificate",
        not failures,
        "; ".join(failures) if failures else None,
    )
    return report


def cmd_identity_check(args) -> RunReport:
    report = RunReport(command="identity-check")
    report.add("h", ",".join(map(format_rational, args.h)))
    try:
        slice_report = verify_identity_slice(args.h)
    except DegenerateNodesError as exc:
        report.check("distinct-nodes", False, str(exc))
        return report
    report.check("distinct-nodes", True)
    report.add("alpha-dim", slice_report.alpha_dim)
    report.add("beta-dim", slice_report.beta_dim)
    report.add("expanded-monomials", slice_report.expanded_monomials)
    report.add("node-difference-product", slice_report.node_difference_product)
    report.check("zero-polynomial", slice_report.is_zero)
    return report


def cmd_claim_check(args) -> RunReport:
    report = RunReport(command="claim-check", seed=args.seed if args.random else None)
    if args.h is not None:
        report.add("h", ",".join(map(format_rational, args.h)))
        try:
            result = six_term_vanishing_check(args.h)
        except DegenerateNodesError as exc:
            report.check("distinct-nodes", False, str(exc))
            return report
        report.check("distinct-nodes", True)
        report.add("annihilator", _format_vector(result.annihilator))
        report.check("annihilator-nonzero", result.all_weights_nonzero)
        report.check("lift-family-is-translations", result.family_is_translations)
        report.check(
            "quartic-identically-zero",
            result.quartic_vanishes,
            "quartic identically zero" if result.quartic_vanishes else None,
        )
        return report

    report.add("random-trials", args.random)
    pool = _node_pool(6)
    vanishing_ok = families_ok = 0
    failures: list[str] = []
    for trial in range(args.random):
        rng = random.Random(f"claim:{args.seed}:{trial}")
        slopes = tuple(rng.sample(pool, 6))
        result = six_term_vanishing_check(slopes)
        if result.passed:
            vanishing_ok += 1
        else:
            failures.append(f"trial {trial}: vanishing failed")
        pair = tuple(rng.sample(pool, 2))
        inst = generate_six_term_family(pair, seed=args.seed * 1_000_003 + trial + 1)
        if two_value_collapse_check(inst).applicable:
            families_ok += 1
        else:
            failures.append(f"trial {trial}: generated family not applicable")
    report.add("vanishing-pass", vanishing_ok)
    report.add("two-value-pass", families_ok)
    report.check("all-trials", not failures, "; ".join(failures) if failures else None)
    return report


# argument parsing


def _rational_list(text: str, count: int, max_chars: int | None = None) -> tuple[Fraction, ...]:
    if max_chars is not None and len(text) > max_chars:
        raise argparse.ArgumentTypeError(f"slope list longer than {max_chars} characters")
    parts = text.split(",")
    if len(parts) != count:
        raise argparse.ArgumentTypeError(f"expected {count} comma-separated rationals")
    try:
        return tuple(parse_rational(p.strip()) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _ascii_int(text: str) -> int:
    if not INTEGER_PATTERN.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")  # argparse: "invalid ... value"
    return int(text)


def _positive_int(cap: int):
    def positive_int(text: str) -> int:
        value = _ascii_int(text)
        if not 1 <= value <= cap:
            raise argparse.ArgumentTypeError(f"must be between 1 and {cap}")
        return value

    return positive_int


def _file_name(text: str) -> str:
    # open() raises ValueError, not OSError, on a NUL byte or on a name that
    # the file system encoding cannot encode (a lone surrogate)
    if "\0" in text:
        raise argparse.ArgumentTypeError("file name contains a NUL character")
    try:
        os.fsencode(text)
    except UnicodeEncodeError as exc:
        raise argparse.ArgumentTypeError(f"file name cannot be encoded: {text!r}") from exc
    return text


def _seed(text: str) -> int:
    value = _ascii_int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


# every character at which str.splitlines breaks, mapped to its escape, so
# that an error message quoting raw input (argparse's "unrecognized
# arguments" does) stays on one line
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line, ``error: <message>``, and
    exits 2; subparsers are built with the same class."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message.translate(_LINE_BREAKS)}\n")


# built on the first main() call and reused: parse_args keeps no state between calls
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="doubleline",
        description="Exact decomposition checks for double-line plane quartics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's own parser, for parse_argv

    p_verify = sub.add_parser("verify", help="verify a decomposition document")
    p_verify.add_argument("file", type=_file_name)
    p_verify.add_argument("--line", type=lambda s: _rational_list(s, 3), default=None)
    p_verify.add_argument("--json", action="store_true")

    p_theorem = sub.add_parser("theorem-check", help="randomized seven-term tangency suite")
    p_theorem.add_argument("--trials", type=_positive_int(MAX_TRIALS), default=20)
    p_theorem.add_argument("--seed", type=_seed, default=0)
    p_theorem.add_argument("--nodes-range", type=_positive_int(MAX_NODES_RANGE), default=9)
    p_theorem.add_argument("--json", action="store_true")

    p_identity = sub.add_parser("identity-check", help="symbolic identity on a slope slice")
    p_identity.add_argument("--h", type=lambda s: _rational_list(s, 7, MAX_SLOPES_CHARS), required=True)
    p_identity.add_argument("--json", action="store_true")

    p_claim = sub.add_parser("claim-check", help="six-term collapse checks")
    group = p_claim.add_mutually_exclusive_group(required=True)
    group.add_argument("--h", type=lambda s: _rational_list(s, 6), default=None)
    group.add_argument("--random", type=_positive_int(MAX_TRIALS), default=None)
    p_claim.add_argument("--seed", type=_seed, default=0)
    p_claim.add_argument("--json", action="store_true")

    p_example = sub.add_parser("example", help="built-in six-term reference identity")
    p_example.add_argument("--json", action="store_true")

    # argparse reads an argument that this matches as a value, not an option,
    # while no option of the parser looks like a negative number; its own
    # pattern takes one number (-1, -.5), this one a list too (-1,0,1)
    for p in (parser, *parser.commands.values()):
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "theorem-check": cmd_theorem_check,
    "identity-check": cmd_identity_check,
    "claim-check": cmd_claim_check,
    "example": cmd_example,
}


# exceptions that mean bad input (exit 2); TheoremViolationError exits 1 and
# any other exception is a bug and propagates with its traceback
_INPUT_ERRORS = (OSError, UnicodeDecodeError, InvalidInputError, DocumentError)


def parse_argv(argv: Sequence[str]) -> argparse.Namespace:
    # build_parser().parse_args(argv), but a known command takes one argparse pass, not two
    parser = build_parser()
    if argv and argv[0] in parser.commands:
        return parser.commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None, out: TextIO | None = None) -> int:
    args = parse_argv(sys.argv[1:] if argv is None else argv)
    stream = out if out is not None else sys.stdout
    started = time.perf_counter()
    try:
        report = _COMMANDS[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TheoremViolationError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1
    stream.write(report.render_json() if args.json else report.render_text())
    print(f"wall-time: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return report.exit_code
