import random
from fractions import Fraction

import pytest
from conftest import (
    minor_rank,
    monomials,
    random_fraction,
    random_invertible_3x3,
    ref_add,
    ref_mul,
    ref_product,
    ref_scale,
    ref_substitute,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleline import sympoly
from doubleline.errors import InvalidInputError, StructuralError
from doubleline.forms import (
    BinaryQuadratic,
    FormTuple,
    HomogeneousForm,
    conic_rank,
    content_normalize,
    divide_by_linear,
    interpolate,
    line_kernel_basis,
    line_tangent_to_conic,
    parse_form,
    render_form,
    restrict,
)

X0 = HomogeneousForm.variable(3, 0)
X1 = HomogeneousForm.variable(3, 1)
X2 = HomogeneousForm.variable(3, 2)

fractions_st = st.fractions(min_value=-6, max_value=6, max_denominator=6)


def terms_st(num_vars: int, degree: int, min_terms: int = 0):
    monos = monomials(num_vars, degree)
    return st.dictionaries(
        st.sampled_from(monos), fractions_st, min_size=min_terms, max_size=len(monos)
    )


def form_st(num_vars: int, degree: int, min_terms: int = 0):
    return terms_st(num_vars, degree, min_terms).map(
        lambda terms: HomogeneousForm(num_vars, degree, terms)
    )


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
        assert HomogeneousForm(3, 0, {(0, 0, 0): 1}) * f == f
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
        # both sides run through sympoly, so the reference decides
        square = l * l
        assert l**4 == square * square
        assert (l**4).terms == ref_product([l.terms] * 4, 3)

    def test_negative_power_rejected(self):
        for f in (X0, HomogeneousForm.linear((Fraction(1, 3), 0, 2)), HomogeneousForm.zero(3, 2)):
            with pytest.raises(StructuralError):
                f**-1

    def test_exponent_above_max_rejected(self):
        top = sympoly.MAX_EXPONENT
        assert HomogeneousForm(2, top, {(top, 0): 1}).terms == {(top, 0): 1}
        # top + 1 sets the guard bit; 2**BITS would wrap into x1's field
        for e in (top + 1, 1 << sympoly.BITS):
            with pytest.raises(StructuralError):
                HomogeneousForm(2, e, {(e, 0): 1})
            with pytest.raises(StructuralError):
                HomogeneousForm(2, e, {(0, e): 1})
        with pytest.raises(StructuralError):
            HomogeneousForm(2, top, {(top, 0): 1}) * HomogeneousForm.variable(2, 0)


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
        assert_canonical(HomogeneousForm(3, 0, {(0, 0, 0): 0}) * f)

    @given(st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(*[fractions_st] * n)))
    def test_linear_round_trip(self, coeffs):
        l = HomogeneousForm.linear(coeffs)
        assert_canonical(l)
        assert l.terms == ref(dict(zip(monomials(len(coeffs), 1), coeffs)))
        assert all(type(c) is Fraction for c in l.linear_coefficients())
        # read back from the linear constructor and from the validating one
        assert l.linear_coefficients() == coeffs
        assert HomogeneousForm(l.num_vars, 1, l.terms).linear_coefficients() == coeffs

    @pytest.mark.parametrize("count", [0, 1, 4])
    def test_linear_needs_two_or_three_coefficients(self, count):
        with pytest.raises(StructuralError):
            HomogeneousForm.linear([1] * count)

    @given(linear_st(3), st.integers(0, 5))
    def test_linear_pow(self, l, e):
        assert_canonical(l**e)
        assert l**e == HomogeneousForm(3, e, (l**e).terms)


def ref(terms: dict) -> dict:
    return {m: Fraction(c) for m, c in terms.items() if c}


shape_st = st.tuples(st.sampled_from([2, 3]), st.integers(0, 2))


def shaped_terms_st(count: int):
    """A shape of degree 0..2 and ``count`` term maps of that shape."""
    return shape_st.flatmap(lambda s: st.tuples(st.just(s), *[terms_st(*s)] * count))


def pivot_line(data, pivot: int) -> HomogeneousForm:
    """A line whose last nonzero coefficient, which picks its kernel basis, is at ``pivot``."""
    coeffs = [data.draw(fractions_st) for _ in range(pivot)]
    coeffs.append(data.draw(fractions_st.filter(bool)))
    return HomogeneousForm.linear(coeffs + [0] * (2 - pivot))


class TestAgainstReference:
    """Every operator against the exponent-tuple Fraction reference of
    ``conftest``, on forms whose coefficients mix denominators."""

    @given(shaped_terms_st(2))
    def test_add_sub_neg(self, case):
        (n, d), p, q = case
        f, g = HomogeneousForm(n, d, p), HomogeneousForm(n, d, q)
        assert (f + g).terms == ref_add(ref(p), ref(q))
        assert (f - g).terms == ref_add(ref(p), ref_scale(ref(q), -1))
        assert (-f).terms == ref_scale(ref(p), -1)

    @given(shaped_terms_st(1), st.one_of(fractions_st, st.integers(-3, 3)))
    def test_scalar_mul(self, case, c):
        (n, d), p = case
        f = HomogeneousForm(n, d, p)
        assert (f * c).terms == (c * f).terms == ref_scale(ref(p), c)

    @given(shaped_terms_st(1), st.data())
    def test_form_mul(self, case, data):
        (n, d), p = case
        e = data.draw(st.integers(0, 2))
        q = data.draw(terms_st(n, e))
        product = HomogeneousForm(n, d, p) * HomogeneousForm(n, e, q)
        assert product.degree == d + e
        assert product.terms == ref_mul(ref(p), ref(q))

    @given(shaped_terms_st(1), st.integers(0, 5))
    def test_pow(self, case, exponent):
        (n, d), p = case
        power = HomogeneousForm(n, d, p) ** exponent
        assert power.degree == d * exponent
        assert power.terms == ref_product([ref(p)] * exponent, n)

    @pytest.mark.parametrize("pivot", [0, 1, 2])
    @given(st.integers(0, 5).flatmap(lambda d: st.tuples(st.just(d), terms_st(3, d))), st.data())
    def test_restrict(self, pivot, case, data):
        d, p = case
        line = pivot_line(data, pivot)
        b0, b1 = line_kernel_basis(line)
        images = [ref({(1, 0): b0[i], (0, 1): b1[i]}) for i in range(3)]
        restricted = restrict(HomogeneousForm(3, d, p), line)
        assert restricted.degree == d
        assert restricted.terms == ref_substitute(ref(p), images, 2)

    @given(
        st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), terms_st(3, d))),
        st.tuples(fractions_st, fractions_st, fractions_st).filter(any),
    )
    def test_divide_by_linear(self, case, coeffs):
        d, p = case
        f, line = HomogeneousForm(3, d, p), HomogeneousForm.linear(coeffs)
        quotient, remainder = divide_by_linear(f, line)
        line_ref = ref(dict(zip(monomials(3, 1), coeffs)))
        assert ref_add(ref_mul(line_ref, quotient.terms), remainder.terms) == ref(p)
        pivot = next(i for i, c in enumerate(coeffs) if c)
        assert all(m[pivot] == 0 for m in remainder.terms)


class TestTuples:
    """A weighted sum over a FormTuple is a plain sum of forms."""

    def test_dot_of_ones_with_fourth_powers(self):
        coeffs = [(1, 0, 0), (1, 0, 1), (1, 0, -1), (1, 1, 0), (1, 1, 1), (1, 1, -1), (1, 2, 0)]
        tup = FormTuple(tuple(HomogeneousForm.linear(c) for c in coeffs))
        total = sum((1 * f**4 for f in tup), HomogeneousForm.zero(3, 4))
        expected: dict = {}
        for c in coeffs:
            line = ref(dict(zip(monomials(3, 1), c)))
            expected = ref_add(expected, ref_product([line] * 4, 3))
        assert total.terms == expected

    def test_dot_cancellation(self):
        tup = FormTuple((X0**4, X0**4))
        assert sum((a * f for a, f in zip([1, -1], tup)), HomogeneousForm.zero(3, 4)).is_zero()


class TestEvaluate:
    def test_monomial(self):
        assert (X0**2 * X2**2).evaluate((1, 0, 2)) == 4

    def test_binary_conic(self):
        # direct substitution oracle: 6 - 6 + 3 = 3
        f = parse_form("6*x0^2 + 6*x0*x1 + 3*x1^2", 2)
        assert f.evaluate((1, -1)) == 3

    def test_zero_form(self):
        assert HomogeneousForm.zero(3, 4).evaluate((5, 7, 9)) == 0

    @given(
        st.tuples(st.sampled_from([2, 3]), st.integers(0, 4)).flatmap(
            lambda s: st.tuples(st.just(s), terms_st(*s), st.tuples(*[fractions_st] * s[0]))
        )
    )
    def test_matches_substitution(self, case):
        # the value is the substitution of the point's coordinates as constants
        (n, d), p, point = case
        value = HomogeneousForm(n, d, p).evaluate(point)
        constant = ref_substitute(ref(p), [ref({(0,): x}) for x in point], 1)
        assert value == constant.get((0,), 0)
        assert type(value) is Fraction


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
        # a linear form restricts to its coefficients paired with the kernel basis
        line = pivot_line(data, pivot)
        b0, b1 = line_kernel_basis(line)
        images = [ref({(1, 0): b0[i], (0, 1): b1[i]}) for i in range(3)]
        restricted = restrict(l, line)
        assert restricted.terms == ref_substitute(l.terms, images, 2)
        assert_canonical(restricted)

    @given(form_st(3, 2), form_st(3, 2), nonzero_linear_st(3))
    def test_ring_homomorphism(self, f, g, line):
        assert restrict(f * g, line) == restrict(f, line) * restrict(g, line)


def apply_change(q, rows):
    """q after x_j -> sum_i rows[i][j] * x_i, by the reference substitution."""
    images = [ref(dict(zip(monomials(3, 1), (row[j] for row in rows)))) for j in range(3)]
    return HomogeneousForm(3, q.degree, ref_substitute(q.terms, images, 3))


def independent_points_st(count: int):
    """``count`` pairwise independent integer points: distinct slopes b/a, the
    vertical one included, each scaled by a nonzero integer."""
    direction = st.one_of(st.none(), st.fractions(min_value=-6, max_value=6, max_denominator=4))
    return st.tuples(
        st.lists(direction, min_size=count, max_size=count, unique=True),
        st.lists(st.integers(-3, 3).filter(bool), min_size=count, max_size=count),
    ).map(
        lambda dc: [
            (0, s) if h is None else (s * h.denominator, s * h.numerator) for h, s in zip(*dc)
        ]
    )


class TestInterpolate:
    @given(
        st.integers(0, 6).flatmap(
            lambda d: st.tuples(
                independent_points_st(d + 1),
                st.lists(fractions_st, min_size=d + 1, max_size=d + 1),
            )
        )
    )
    def test_interpolant_takes_the_values(self, case):
        points, values = case
        d = len(points) - 1
        coeffs = interpolate(points, values)
        assert len(coeffs) == d + 1 and all(type(c) is Fraction for c in coeffs)
        g = HomogeneousForm(2, d, {(d - e, e): c for e, c in enumerate(coeffs)})
        assert [g.evaluate(p) for p in points] == values

    def test_integer_values(self):
        # y0^2 - y1^2 from (1, 0), (1, 1), (1, -1), and a linear form from (1, 2), (3, 1)
        assert interpolate([(1, 0), (1, 1), (1, -1)], [1, 0, 0]) == [1, 0, -1]
        assert interpolate([(1, 2), (3, 1)], [Fraction(1, 2), 3]) == [
            Fraction(11, 10), Fraction(-3, 10)
        ]


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
            terms = {m: random_fraction(rng) for m in rng.sample(monomials(3, 4), 6)}
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

    @pytest.mark.parametrize("text", ["1/0*x0", "x0 - 3/00*x1", "2/0"])
    def test_zero_denominator_rejected(self, text):
        with pytest.raises(InvalidInputError, match="zero denominator"):
            parse_form(text, 3, degree=1)

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
