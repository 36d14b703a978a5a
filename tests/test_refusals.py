"""The refusal tables: the exception type and message of every raise site in
``engine``, ``forms`` and ``linalg`` that refuses a shape or a domain and
that no other test reaches, each called once with the smallest input that
reaches it (the two ``engine`` checks that cannot fire on any input are left
out); and the int rows and ``(den, ints)`` pairs that each function taking
them passes through ``linalg.as_pair`` and ``linalg.int_rows``, against a
non-sequence, a wrong width or count, a float and a Fraction.  A
non-sequence given where a sequence of rationals, forms or rows is taken is
refused at the first place that reads it, so several calls share a site, as
do the malformed matrices of ``rank`` and ``rref``."""

from fractions import Fraction

import pytest
from conftest import replace

from doubleline.engine import (
    CoordinateInstance,
    DoubleLineQuartic,
    WaringDecomposition,
    analyze,
    extract_cofactor,
    generate_six_term_family,
    generate_tangent_instance,
    line_x2,
    power_kernel,
    six_term_vanishing_check,
    two_value_collapse_check,
    verify_identity_slice,
)
from doubleline.errors import InvalidInputError, PreconditionError, StructuralError
from doubleline.forms import (
    BinaryQuadratic,
    HomogeneousForm,
    cleared_rows,
    conic_rank,
    divide_by_linear,
    embed_in_plane,
    interpolate,
    parse_form,
    power_sum,
)
from doubleline.linalg import VandermondeSystem, moment_kernel, rank, rref, weighted_moment_kernel

X0 = HomogeneousForm.linear((1, 0, 0))
CONIC = parse_form("x0^2 + x1^2", 3)
SEVEN = tuple(range(7))
HALF = Fraction(1, 2)


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
    "identity-slice-not-a-sequence": (
        lambda: verify_identity_slice(5),
        StructuralError, "expected a sequence of rationals, got 5",
    ),
    "six-term-check-not-a-sequence": (
        lambda: six_term_vanishing_check(5),
        StructuralError, "expected a sequence of rationals, got 5",
    ),
    "tangent-instance-parameters-not-a-sequence": (
        lambda: generate_tangent_instance(range(7), 5, seed=0),
        StructuralError, "expected a sequence of rationals, got 5",
    ),
    "six-term-family-not-a-sequence": (
        lambda: generate_six_term_family(5, seed=0),
        StructuralError, "expected a sequence of rationals, got 5",
    ),
    "power-kernel-not-a-sequence": (
        lambda: power_kernel(5, 1),
        StructuralError, "expected a nonempty tuple of binary linear forms",
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
    "parse-bare-star": (
        lambda: parse_form("2*", 3),
        InvalidInputError, "bad term '2*'",
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
    "cleared-rows-not-a-sequence": (
        lambda: cleared_rows(5),
        StructuralError, "expected a sequence of linear forms, got 5",
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
    "vandermonde-system-not-a-sequence": (
        lambda: VandermondeSystem(5, (4,)),
        StructuralError, "expected a sequence of rationals, got 5",
    ),
    "weighted-kernel-not-a-sequence": (
        lambda: weighted_moment_kernel(5, (1,), 1),
        StructuralError, "expected a sequence of rationals, got 5",
    ),
    "weighted-kernel-weights-not-a-sequence": (
        lambda: weighted_moment_kernel((1, 2, 3), 5, 1),
        StructuralError, "expected a sequence of rationals, got 5",
    ),
    "rank-not-a-sequence": (
        lambda: rank(5),
        StructuralError, "expected a sequence of rows, got 5",
    ),
    "rank-ragged": (
        lambda: rank([[1, 2], [2, 4, 1]]),
        StructuralError, "expected rows of one length, got rows of lengths [2, 3]",
    ),
    "rank-float": (
        lambda: rank([[0.5, 1], [1, 3]]),
        InvalidInputError, "expected int entries, got [[0.5, 1], [1, 3]]",
    ),
    "rank-Fraction": (
        lambda: rank([[HALF, 1], [1, 3]]),
        InvalidInputError, "expected int entries, got [[Fraction(1, 2), 1], [1, 3]]",
    ),
    "rank-str": (
        lambda: rank([["a", "b"]]),
        InvalidInputError, "expected int entries, got [['a', 'b']]",
    ),
    "rref-ragged": (
        lambda: rref([[1, 2], [2, 4, 1]]),
        StructuralError, "expected rows of one length, got rows of lengths [2, 3]",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


INT_ROWS_AND_PAIRS = {
    # WaringDecomposition
    "decomposition-not-a-sequence": (
        lambda: WaringDecomposition(5),
        StructuralError, "expected decomposition pairs or terms, got 5",
    ),
    "decomposition-rows-not-a-pair": (
        lambda: WaringDecomposition(((1, (1,)), 5)),
        StructuralError, "expected one weight per row, each row of length 3, got 5",
    ),
    "decomposition-short-row": (
        lambda: WaringDecomposition(((1, (1,)), (1, ((1, 0),)))),
        StructuralError, "expected one weight per row, each row of length 3, got ((1, 0),)",
    ),
    "decomposition-weight-count": (
        lambda: WaringDecomposition(((1, (1, 1)), (1, ((1, 0, 0),)))),
        StructuralError, "expected one weight per row, each row of length 3, got ((1, 1),)",
    ),
    "decomposition-float-weight": (
        lambda: WaringDecomposition(((1, (0.5,)), (1, ((1, 0, 0),)))),
        InvalidInputError, "expected ints in one weight per row, each row of length 3, got (1, 1, (0.5,))",
    ),
    "decomposition-Fraction-row": (
        lambda: WaringDecomposition(((1, (1,)), (1, ((1, HALF, 0),)))),
        InvalidInputError,
        "expected ints in one weight per row, each row of length 3, got ((1, Fraction(1, 2), 0),)",
    ),
    # CoordinateInstance
    "instance-not-a-sequence": (
        lambda: CoordinateInstance(5, 5, 5),
        StructuralError, "expected slopes, lifts and weights as (den, ints) pairs or rationals, got 5",
    ),
    "instance-lift-count": (
        lambda: CoordinateInstance((1, SEVEN), (0,) * 6, (1,) * 7),
        StructuralError,
        "expected slopes, lifts and weights of equal length, got "
        "((0, 1, 2, 3, 4, 5, 6), (0, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1, 1))",
    ),
    "instance-float-pair": (
        lambda: CoordinateInstance((1, (0.5, 1)), (0, 0), (1, 1)),
        InvalidInputError, "expected ints in slopes, lifts and weights of equal length, got (1, 1, 1, (0.5, 1), (0, 0), (1, 1))",
    ),
    "instance-Fraction-pair": (
        lambda: CoordinateInstance((1, (HALF, 1)), (0, 0), (1, 1)),
        InvalidInputError,
        "expected ints in slopes, lifts and weights of equal length, got (1, 1, 1, (Fraction(1, 2), 1), (0, 0), (1, 1))",
    ),
    # BinaryQuadratic
    "quadratic-ints-not-a-sequence": (
        lambda: BinaryQuadratic((1, 5)),
        StructuralError, "expected three coefficients over a den, got (5,)",
    ),
    "quadratic-two-coefficients": (
        lambda: BinaryQuadratic((1, (1, 2))),
        StructuralError, "expected three coefficients over a den, got ((1, 2),)",
    ),
    "quadratic-float": (
        lambda: BinaryQuadratic((1, (1, 0.5, 0))),
        InvalidInputError, "expected ints in three coefficients over a den, got (1, (1, 0.5, 0))",
    ),
    "quadratic-float-den": (
        lambda: BinaryQuadratic((2.0, (1, 0, 1))),
        InvalidInputError, "expected ints in three coefficients over a den, got (2.0, (1, 0, 1))",
    ),
    "quadratic-Fraction": (
        lambda: BinaryQuadratic((1, (1, HALF, 0))),
        InvalidInputError, "expected ints in three coefficients over a den, got (1, (1, Fraction(1, 2), 0))",
    ),
    # moment_kernel
    "kernel-not-a-sequence": (
        lambda: moment_kernel(5, (1,)),
        StructuralError, "expected points of two coordinates, got 5",
    ),
    "kernel-point-not-a-sequence": (
        lambda: moment_kernel([5, (1, 2)], (1,)),
        StructuralError, "expected points of two coordinates, got [5, (1, 2)]",
    ),
    "kernel-float": (
        lambda: moment_kernel([(0.5, 1), (1, 0)], (1,)),
        InvalidInputError, "expected ints in points of two coordinates, got ((0.5, 1), (1, 0))",
    ),
    "kernel-Fraction": (
        lambda: moment_kernel([(HALF, 1), (1, 0)], (1,)),
        InvalidInputError, "expected ints in points of two coordinates, got ((Fraction(1, 2), 1), (1, 0))",
    ),
    "kernel-degrees-not-a-sequence": (
        lambda: moment_kernel([(1, 0), (0, 1)], 5),
        StructuralError, "expected degrees, got (5,)",
    ),
    "kernel-degree-one-half": (
        lambda: moment_kernel([(1, 0), (0, 1)], (0.5,)),
        InvalidInputError, "expected ints in degrees, got ((0.5,),)",
    ),
    "kernel-degree-three-halves": (
        lambda: moment_kernel([(1, 0), (0, 1)], (1.5,)),
        InvalidInputError, "expected ints in degrees, got ((1.5,),)",
    ),
    # interpolate
    "interpolate-not-a-sequence": (
        lambda: interpolate(5, [1]),
        StructuralError, "expected points of two coordinates, got 5",
    ),
    "interpolate-point-not-a-sequence": (
        lambda: interpolate([5, (0, 1)], [1, 1]),
        StructuralError, "expected points of two coordinates, got [5, (0, 1)]",
    ),
    "interpolate-three-coordinates": (
        lambda: interpolate([(1, 0, 0), (0, 1)], [1, 1]),
        StructuralError, "expected points of two coordinates, got [(1, 0, 0), (0, 1)]",
    ),
    "interpolate-values-not-a-sequence": (
        lambda: interpolate([(1, 0), (0, 1)], 5),
        StructuralError, "expected values over a den, one per point, got (5,)",
    ),
    "interpolate-value-count": (
        lambda: interpolate([(1, 0), (0, 1)], [1]),
        StructuralError, "expected values over a den, one per point, got ([1],)",
    ),
    "interpolate-float": (
        lambda: interpolate([(1, 0), (0, 1)], [0.5, 1]),
        InvalidInputError, "expected ints in values over a den, one per point, got (1, [0.5, 1])",
    ),
    "interpolate-Fraction-den": (
        lambda: interpolate([(1, 0), (0, 1)], [1, 1], HALF),
        InvalidInputError, "expected ints in values over a den, one per point, got (Fraction(1, 2), [1, 1])",
    ),
    # power_sum
    "power-sum-weights-not-a-pair": (
        lambda: power_sum(5, (1, ((1, 0, 0),)), 2),
        StructuralError, "expected a (den, ints) pair, got 5",
    ),
    "power-sum-rows-not-a-pair": (
        lambda: power_sum((1, (1,)), 5, 2),
        StructuralError, "expected a (den, rows) pair, got 5",
    ),
    "power-sum-row-not-a-sequence": (
        lambda: power_sum((1, (1,)), (1, (5,)), 2),
        StructuralError, "expected rows all of length 2 or all of 3, got (5,)",
    ),
    "power-sum-weight-count": (
        lambda: power_sum((1, (1, 1)), (1, ((1, 0),)), 2),
        StructuralError, "expected one weight per row and an int power, got ((1, 1),)",
    ),
    "power-sum-float": (
        lambda: power_sum((1, (0.5,)), (1, ((1, 0),)), 2),
        InvalidInputError, "expected ints in one weight per row and an int power, got (1, 1, 2, (0.5,))",
    ),
    "power-sum-Fraction": (
        lambda: power_sum((1, (1,)), (1, ((HALF, 0),)), 2),
        InvalidInputError, "expected ints in rows all of length 2 or all of 3, got ((Fraction(1, 2), 0),)",
    ),
    "power-sum-float-exponent": (
        lambda: power_sum((1, (1,)), (1, ((1, 0),)), 2.0),
        InvalidInputError, "expected ints in one weight per row and an int power, got (1, 1, 2.0, (1,))",
    ),
    # _plane_point, through its two callers
    "plane-point-not-a-sequence": (
        lambda: embed_in_plane(line_x2(), 5),
        StructuralError, "expected a point of two coordinates, got 5",
    ),
    "polar-point-not-a-sequence": (
        lambda: BinaryQuadratic((1, (1, 0, 1))).polar(5, (1, 0)),
        StructuralError, "expected a point of two coordinates, got 5",
    ),
    # HomogeneousForm.linear, whose coefficients are rationals
    "linear-not-a-sequence": (
        lambda: HomogeneousForm.linear(5),
        StructuralError, "expected two or three coefficients, got 5",
    ),
}


@pytest.mark.parametrize("call, error, message", INT_ROWS_AND_PAIRS.values(), ids=INT_ROWS_AND_PAIRS.keys())
def test_int_rows_and_pairs_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
