"""The refusal table: the exception type and message of every raise site in
``engine``, ``forms`` and ``linalg`` that refuses a shape or a domain and
that no other test reaches, each called once with the smallest input that
reaches it.  The two ``engine`` checks that cannot fire on any input are
left out."""

from fractions import Fraction

import pytest
from conftest import replace

from doubleline.engine import (
    CoordinateInstance,
    DoubleLineQuartic,
    analyze,
    extract_cofactor,
    generate_tangent_instance,
    line_x2,
    power_kernel,
    six_term_vanishing_check,
    two_value_collapse_check,
    verify_identity_slice,
)
from doubleline.errors import InvalidInputError, PreconditionError, StructuralError
from doubleline.forms import HomogeneousForm, conic_rank, divide_by_linear, parse_form
from doubleline.linalg import moment_kernel, weighted_moment_kernel

X0 = HomogeneousForm.linear((1, 0, 0))
CONIC = parse_form("x0^2 + x1^2", 3)
SEVEN = tuple(range(7))


def certificate():
    """The certificate of seven lines on slopes 0..6 whose weights and lifts
    solve both moment systems."""
    weights = (2, -11, 25, -30, 20, -7, 1)
    lifts = tuple(Fraction(b, w) for b, w in zip((1, -4, 6, -4, 1, 0, 0), weights))
    dec = CoordinateInstance(SEVEN, lifts, weights).to_decomposition()
    return analyze(dec, line_x2()).certificate


REFUSALS = {
    # engine
    "double-line-quartic-degrees": (
        lambda: DoubleLineQuartic(line=X0, cofactor=X0, target=CONIC),
        StructuralError, "expected degrees 1, 2 and 4",
    ),
    "extract-cofactor-of-a-conic": (
        lambda: extract_cofactor(CONIC, line_x2()),
        StructuralError, "expected a quartic in three variables",
    ),
    "power-kernel-negative-degree": (
        lambda: power_kernel((HomogeneousForm.linear((1, 0)),), -1),
        StructuralError, "degree must be non-negative",
    ),
    "certificate-short-annihilator": (
        lambda: (c := certificate(), replace(c, annihilator=c.annihilator[:-1]).verify()),
        StructuralError, "certificate vectors do not match the point count",
    ),
    "identity-slice-six-slopes": (
        lambda: verify_identity_slice(SEVEN[:6]),
        StructuralError, "expected 7 slopes, got 6",
    ),
    "six-term-check-five-slopes": (
        lambda: six_term_vanishing_check(SEVEN[:5]),
        StructuralError, "expected 6 slopes, got 5",
    ),
    "two-value-check-seven-terms": (
        lambda: two_value_collapse_check(CoordinateInstance(SEVEN, (0,) * 7, (1,) * 7)),
        PreconditionError, "expected a 6-term instance, got 7",
    ),
    "tangent-instance-six-slopes": (
        lambda: generate_tangent_instance(SEVEN[:6], (1, 2, 3), seed=0),
        StructuralError, "expected 7 slopes, got 6",
    ),
    "tangent-instance-two-parameters": (
        lambda: generate_tangent_instance(SEVEN, (1, 2), seed=0),
        StructuralError, "expected 3 lift parameters",
    ),
    # forms
    "from-terms-four-variables": (
        lambda: HomogeneousForm.from_terms(4, 1, {}),
        StructuralError, "num_vars must be 2 or 3, got 4",
    ),
    "from-terms-negative-degree": (
        lambda: HomogeneousForm.from_terms(3, -1, {}),
        StructuralError, "degree must be non-negative, got -1",
    ),
    "from-terms-short-monomial": (
        lambda: HomogeneousForm.from_terms(3, 1, {(1, 0): 1}),
        StructuralError, "bad monomial (1, 0) for 3 variables",
    ),
    "from-terms-monomial-degree": (
        lambda: HomogeneousForm.from_terms(3, 2, {(1, 0, 0): 1}),
        StructuralError, "monomial (1, 0, 0) does not have degree 2",
    ),
    "variable-index": (
        lambda: HomogeneousForm.variable(3, 3),
        StructuralError, "variable index 3 out of range",
    ),
    "sum-of-variable-counts": (
        lambda: X0 + HomogeneousForm.linear((1, 0)),
        StructuralError, "variable counts differ",
    ),
    "parse-empty": (
        lambda: parse_form(" \t", 3),
        InvalidInputError, "empty form text",
    ),
    "parse-zero-without-degree": (
        lambda: parse_form("0", 3),
        InvalidInputError, "degree required to parse the zero form",
    ),
    "parse-two-signs": (
        lambda: parse_form("x0++x1", 3),
        InvalidInputError, "cannot tokenize 'x0++x1'",
    ),
    "parse-variable-index": (
        lambda: parse_form("x3", 3),
        InvalidInputError, "variable x3 out of range",
    ),
    "parse-unequal-degrees": (
        lambda: parse_form("x0 + x1^2", 3),
        InvalidInputError, "terms of unequal degree",
    ),
    "divide-by-a-conic": (
        lambda: divide_by_linear(CONIC, CONIC),
        StructuralError, "divisor must be a linear form in the same variables",
    ),
    "divide-by-zero": (
        lambda: divide_by_linear(CONIC, HomogeneousForm.zero(3, 1)),
        InvalidInputError, "division by the zero form",
    ),
    "divide-a-constant": (
        lambda: divide_by_linear(HomogeneousForm.from_terms(3, 0, {(0, 0, 0): 1}), X0),
        StructuralError, "dividend degree must be at least 1",
    ),
    "conic-rank-of-a-line": (
        lambda: conic_rank(X0),
        StructuralError, "expected a quadratic form in three variables",
    ),
    # linalg
    "weighted-kernel-lengths": (
        lambda: weighted_moment_kernel((1, 2, 3), (1, 2), 1),
        StructuralError, "nodes and weights must have equal length",
    ),
    "moment-kernel-one-coordinate": (
        lambda: moment_kernel([(1,)], (1,)),
        StructuralError, "expected points of two coordinates, got [(1,)]",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
