import random
from fractions import Fraction

import pytest
from conftest import minor_rank, random_fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleline.errors import InvalidInputError, StructuralError
from doubleline.forms import (
    BinaryQuadratic,
    FormTuple,
    HomogeneousForm,
    conic_rank,
    content_normalize,
    divide_by_linear,
    line_kernel_basis,
    line_tangent_to_conic,
    monomials_of_degree,
    parse_form,
    render_form,
    restrict,
)

X0 = HomogeneousForm.variable(3, 0)
X1 = HomogeneousForm.variable(3, 1)
X2 = HomogeneousForm.variable(3, 2)

fractions_st = st.fractions(min_value=-6, max_value=6, max_denominator=6)


def form_st(num_vars: int, degree: int, min_terms: int = 0):
    monos = monomials_of_degree(num_vars, degree)
    return st.dictionaries(
        st.sampled_from(monos), fractions_st, min_size=min_terms, max_size=len(monos)
    ).map(lambda terms: HomogeneousForm(num_vars, degree, terms))


def linear_st(num_vars: int):
    return st.tuples(*([fractions_st] * num_vars)).map(HomogeneousForm.linear)


def nonzero_linear_st(num_vars: int):
    return linear_st(num_vars).filter(lambda f: not f.is_zero())


class TestAddMul:
    def test_additive_inverse(self):
        f = X0**4
        assert (f + (-f)) == HomogeneousForm.zero(3, 4)
        assert (f + (-f)).terms == {}

    def test_like_terms(self):
        f = X0**2 * X2**2
        assert f + 3 * f == 4 * f

    def test_disjoint_supports(self):
        assert (X0**4 + X1**4) + X2**4 == parse_form("x0^4 + x1^4 + x2^4", 3)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            X0**2 + X0**3

    def test_conic_times_squared_line(self):
        conic = parse_form("6*x0^2 + 6*x0*x1 + 3*x1^2 + x2^2", 3)
        product = X2**2 * conic
        assert product == parse_form(
            "6*x0^2*x2^2 + 6*x0*x1*x2^2 + 3*x1^2*x2^2 + x2^4", 3
        )

    def test_unit_and_plain_product(self):
        f = parse_form("x0^2 + 2*x1*x2", 3)
        assert HomogeneousForm.constant(3, 1) * f == f
        assert X0 * X1 == parse_form("x0*x1", 3)

    @given(form_st(3, 2), form_st(3, 2), form_st(3, 1))
    def test_distributive(self, f, g, h):
        assert (f + g) * h == f * h + g * h

    @given(form_st(3, 1), form_st(3, 2))
    def test_commutative(self, f, g):
        assert f * g == g * f

    @given(form_st(2, 1), form_st(2, 1), form_st(2, 2))
    def test_associative(self, f, g, h):
        assert (f * g) * h == f * (g * h)


class TestPow:
    def test_binomial(self):
        assert (X0 + X2) ** 4 == parse_form(
            "x0^4 + 4*x0^3*x2 + 6*x0^2*x2^2 + 4*x0*x2^3 + x2^4", 3
        )

    def test_single_variable(self):
        assert X0**4 == parse_form("x0^4", 3)

    def test_multinomial_square(self):
        assert (X0 + X1 + X2) ** 2 == parse_form(
            "x0^2 + x1^2 + x2^2 + 2*x0*x1 + 2*x0*x2 + 2*x1*x2", 3
        )

    @settings(max_examples=200)
    @given(linear_st(3))
    def test_fourth_power_matches_repeated_mul(self, l):
        square = l * l
        assert l**4 == square * square


def assert_canonical(f: HomogeneousForm) -> None:
    """Only nonzero Fractions on monomials of the declared shape, and equal to
    the same terms passed through the validating constructor."""
    for mono, c in f.terms.items():
        assert type(mono) is tuple and len(mono) == f.num_vars
        assert min(mono) >= 0 and sum(mono) == f.degree
        assert type(c) is Fraction and c != 0
    rebuilt = HomogeneousForm(f.num_vars, f.degree, f.terms)
    assert rebuilt == f and rebuilt.terms == f.terms


class TestTrustedArithmetic:
    """The operators build their results without re-validation; check that
    every result is still a canonical form."""

    @given(form_st(3, 2), form_st(3, 2))
    def test_add_sub_neg(self, f, g):
        for result in (f + g, f - g, -f, f + (-f), (f + g) - g):
            assert_canonical(result)
        assert (f + g) - g == f
        assert (f + (-f)).terms == {}

    @given(form_st(3, 2), st.one_of(fractions_st, st.integers(-3, 3)))
    def test_scalar_mul(self, f, c):
        for result in (f * c, c * f, f * 0):
            assert_canonical(result)
        assert (f * 0).is_zero()

    @given(form_st(3, 2), form_st(3, 1), form_st(2, 1), form_st(2, 2))
    def test_form_mul(self, f, g, h, k):
        assert_canonical(f * g)
        assert_canonical(h * k)
        assert_canonical(HomogeneousForm.constant(3, 0) * f)

    @given(linear_st(3), st.integers(0, 5))
    def test_linear_pow(self, l, e):
        assert_canonical(l**e)
        assert l**e == HomogeneousForm(3, e, (l**e).terms)


class TestTuples:
    def test_dot_of_ones_with_fourth_powers(self):
        lines = [
            HomogeneousForm.linear(c)
            for c in [(1, 0, 0), (1, 0, 1), (1, 0, -1), (1, 1, 0), (1, 1, 1), (1, 1, -1), (1, 2, 0)]
        ]
        tup = FormTuple(tuple(lines)).power(4)
        ones = FormTuple.scalars([1] * 7, 3)
        total = HomogeneousForm.zero(3, 4)
        for f in lines:
            total = total + f**4
        assert ones.dot(tup) == total

    def test_dot_cancellation(self):
        f = FormTuple.scalars([1, -1], 3)
        g = FormTuple((X0**4, X0**4))
        assert f.dot(g).is_zero()

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            FormTuple.scalars([1, 2], 3).dot(FormTuple.scalars([1, 2, 3], 3))


class TestEvaluate:
    def test_monomial(self):
        assert (X0**2 * X2**2).evaluate((1, 0, 2)) == 4

    def test_binary_conic(self):
        # direct substitution oracle: 6 - 6 + 3 = 3
        f = parse_form("6*x0^2 + 6*x0*x1 + 3*x1^2", 2)
        assert f.evaluate((1, -1)) == 3

    def test_zero_form(self):
        assert HomogeneousForm.zero(3, 4).evaluate((5, 7, 9)) == 0


class TestRestrict:
    def test_reference_conic(self):
        q = parse_form("6*x0^2 + 6*x0*x1 + 3*x1^2 + x2^2", 3)
        assert restrict(q, X2) == parse_form("6*x0^2 + 6*x0*x1 + 3*x1^2", 2)

    def test_double_line_restricts_to_zero(self):
        q = parse_form("x0^2 + x1^2", 3)
        assert restrict(X2**2 * q, X2).is_zero()

    def test_linear_form(self):
        l = HomogeneousForm.linear((1, Fraction(5, 2), 7))
        assert restrict(l, X2) == HomogeneousForm.linear((1, Fraction(5, 2)))

    def test_zero_line_rejected(self):
        with pytest.raises(InvalidInputError):
            restrict(X0**2, HomogeneousForm.zero(3, 1))

    def test_kernel_basis_vanishes_on_line(self):
        rng = random.Random(7)
        for _ in range(25):
            coeffs = [random_fraction(rng) for _ in range(3)]
            if all(c == 0 for c in coeffs):
                continue
            line = HomogeneousForm.linear(coeffs)
            b0, b1 = line_kernel_basis(line)
            assert line.evaluate(b0) == 0
            assert line.evaluate(b1) == 0

    @pytest.mark.parametrize("pivot", [0, 1, 2])
    @given(linear_st(3), st.data())
    def test_linear_fast_path_matches_substitution(self, pivot, l, data):
        # the kernel basis is built on the last nonzero coefficient of the line
        coeffs = [data.draw(fractions_st) for _ in range(pivot)]
        coeffs.append(data.draw(fractions_st.filter(bool)))
        line = HomogeneousForm.linear(coeffs + [0] * (2 - pivot))
        b0, b1 = line_kernel_basis(line)
        images = [HomogeneousForm.linear((b0[i], b1[i])) for i in range(3)]
        restricted = restrict(l, line)
        assert restricted == l.substitute(images)
        assert_canonical(restricted)

    @given(form_st(3, 2), form_st(3, 2), nonzero_linear_st(3))
    def test_ring_homomorphism(self, f, g, line):
        assert restrict(f * g, line) == restrict(f, line) * restrict(g, line)


def random_invertible_3x3(rng):
    from conftest import determinant

    while True:
        rows = [[random_fraction(rng, 4, 3) for _ in range(3)] for _ in range(3)]
        if determinant([row[:] for row in rows]) != 0:
            return rows


def apply_change(q, rows):
    images = [
        HomogeneousForm.linear(tuple(rows[i][j] for i in range(3)))
        for j in range(3)
    ]
    return q.substitute(images)


class TestConics:
    def test_reference_conic_rank(self):
        assert conic_rank(parse_form("6*x0^2 + 6*x0*x1 + 3*x1^2 + x2^2", 3)) == 3

    def test_double_line_rank(self):
        assert conic_rank(X2**2) == 1

    def test_line_pair_rank(self):
        assert conic_rank(X2 * X0) == 2

    def test_rank_of_weighted_independent_squares(self):
        # r nonzero multiples of squares of independent linear forms: rank r
        rng = random.Random(29)
        for r in range(4):
            cases = 0
            while cases < 8:
                rows = [[random_fraction(rng) for _ in range(3)] for _ in range(r)]
                weights = [random_fraction(rng) for _ in range(r)]
                if minor_rank(rows) != r or not all(weights):
                    continue
                q = HomogeneousForm.zero(3, 2)
                for w, row in zip(weights, rows):
                    q = q + w * HomogeneousForm.linear(row) ** 2
                assert conic_rank(q) == r
                cases += 1

    def test_rank_invariant_under_coordinate_changes(self):
        rng = random.Random(11)
        for q_text, expected in [
            ("6*x0^2 + 6*x0*x1 + 3*x1^2 + x2^2", 3),
            ("x2^2", 1),
            ("x0*x2", 2),
        ]:
            q = parse_form(q_text, 3)
            for _ in range(20):
                rows = random_invertible_3x3(rng)
                assert conic_rank(apply_change(q, rows)) == expected

    def test_not_tangent_reference(self):
        q = parse_form("6*x0^2 + 6*x0*x1 + 3*x1^2 + x2^2", 3)
        flag, point = line_tangent_to_conic(X2, q)
        assert flag is False and point is None
        restricted = BinaryQuadratic.from_form(restrict(q, X2))
        assert restricted.discriminant() == 6 * 6 - 4 * 6 * 3 == -36

    def test_tangent_with_contact_point(self):
        q = X0 * X2 - X1 * X1
        flag, point = line_tangent_to_conic(X2, q)
        assert flag is True
        assert point == (1, 0)

    def test_line_divides_conic(self):
        flag, point = line_tangent_to_conic(X2, X2 * X0)
        assert flag is True and point is None

    def test_invalid_inputs(self):
        q = X0 * X2
        with pytest.raises(InvalidInputError):
            line_tangent_to_conic(HomogeneousForm.zero(3, 1), q)
        with pytest.raises(InvalidInputError):
            line_tangent_to_conic(X2, HomogeneousForm.zero(3, 2))

    def test_flag_invariant_under_line_preserving_changes(self):
        rng = random.Random(13)
        for q_text in ["6*x0^2 + 6*x0*x1 + 3*x1^2 + x2^2", "x0*x2 - x1^2"]:
            q = parse_form(q_text, 3)
            expected = line_tangent_to_conic(X2, q)[0]
            count = 0
            while count < 10:
                rows = random_invertible_3x3(rng)
                # the substitution maps x_j to sum_i rows[i][j]*x_i, so fixing
                # x2 = 0 setwise means zeroing the last column above the corner
                rows[0][2] = rows[1][2] = Fraction(0)
                if rows[2][2] == 0 or minor_rank_2x2(rows) == 0:
                    continue
                changed = apply_change(q, rows)
                assert line_tangent_to_conic(X2, changed)[0] is expected
                count += 1


def minor_rank_2x2(rows):
    return 1 if rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0] != 0 else 0


class TestDivision:
    def test_exact_division_invariant(self):
        rng = random.Random(17)
        for _ in range(50):
            terms = {
                m: random_fraction(rng)
                for m in rng.sample(monomials_of_degree(3, 4), 6)
            }
            f = HomogeneousForm(3, 4, terms)
            coeffs = [random_fraction(rng) for _ in range(3)]
            if all(c == 0 for c in coeffs):
                continue
            line = HomogeneousForm.linear(coeffs)
            quotient, remainder = divide_by_linear(f, line)
            assert line * quotient + remainder == f
            pivot = next(i for i, c in enumerate(coeffs) if c != 0)
            assert all(m[pivot] == 0 for m in remainder.terms)


class TestRendering:
    def test_reference_rendering(self):
        q = parse_form("6*x0^2 + 6*x0*x1 + 3*x1^2 + x2^2", 3)
        assert render_form(q) == "6*x0^2 + 6*x0*x1 + 3*x1^2 + x2^2"

    def test_negative_and_unit_coefficients(self):
        f = HomogeneousForm(3, 2, {(2, 0, 0): 1, (0, 2, 0): -1, (0, 0, 2): Fraction(-3, 4)})
        assert render_form(f) == "x0^2 - x1^2 - 3/4*x2^2"

    def test_zero(self):
        assert render_form(HomogeneousForm.zero(3, 4)) == "0"
        assert parse_form("0", 3, degree=4) == HomogeneousForm.zero(3, 4)

    def test_whitespace_tolerated(self):
        assert parse_form("  6*x0^2+6*x0 * x1\n+ 3*x1^2 + x2^2 ", 3) == parse_form(
            "6*x0^2 + 6*x0*x1 + 3*x1^2 + x2^2", 3
        )

    @given(form_st(3, 3))
    def test_round_trip(self, f):
        assert parse_form(render_form(f), 3, degree=3) == f

    @given(form_st(2, 4))
    def test_round_trip_binary(self, f):
        assert parse_form(render_form(f), 2, degree=4) == f

    def test_content_normalize(self):
        f = parse_form("0", 3, degree=2)
        assert content_normalize(f) == (1, f)
        g = HomogeneousForm(3, 2, {(2, 0, 0): -24, (1, 1, 0): -24, (0, 2, 0): -12, (0, 0, 2): -4})
        factor, primitive = content_normalize(g)
        assert factor == -4
        assert render_form(primitive) == "6*x0^2 + 6*x0*x1 + 3*x1^2 + x2^2"
