import random
import re
from fractions import Fraction
import itertools
from math import gcd, lcm

import pytest
from conftest import (
    count_calls,
    count_fractions,
    evaluate,
    minor_rank,
    monomials,
    random_fraction,
    random_invertible_3x3,
    ref_add,
    ref_mul,
    ref_product,
    ref_scale,
    ref_substitute,
    reference_interpolate,
    reference_kernel_basis,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleline import forms, linalg, sympoly
from doubleline.engine import power_kernel
from doubleline.errors import DegenerateNodesError, InvalidInputError, StructuralError
from doubleline.forms import (
    BinaryQuadratic,
    FormTuple,
    HomogeneousForm,
    cleared_rows,
    conic_rank,
    content_normalize,
    divide_by_linear,
    embed_in_plane,
    interpolate,
    line_frame,
    parse_form,
    power_sum,
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
        lambda terms: HomogeneousForm.from_terms(num_vars, degree, terms)
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

    @pytest.mark.parametrize("other", ["x", None, [1, 2]], ids=["str", "None", "list"])
    def test_non_rational_operand_refused(self, other):
        # floats are refused in tests/test_engine.py::TestCoercion::test_floats_refused
        for multiply in (lambda: X0 * other, lambda: other * X0):
            with pytest.raises(InvalidInputError, match="expected an int or a Fraction"):
                multiply()

    NON_FORMS = pytest.mark.parametrize(
        "other", [1, Fraction(1, 2), 0.5, "x"], ids=["int", "Fraction", "float", "str"]
    )

    @NON_FORMS
    def test_non_form_addend_refused(self, other):
        with pytest.raises(InvalidInputError, match="expected a HomogeneousForm, got"):
            X0 + other

    @NON_FORMS
    def test_non_form_subtrahend_refused(self, other):
        # the message names the operand as given, not its negation
        message = re.escape(f"expected a HomogeneousForm, got {other!r}")
        with pytest.raises(InvalidInputError, match=message):
            X0 - other

    def test_conic_times_squared_line(self):
        conic = parse_form("6*x0^2 + 6*x0*x1 + 3*x1^2 + x2^2", 3)
        product = X2**2 * conic
        assert product == parse_form(
            "6*x0^2*x2^2 + 6*x0*x1*x2^2 + 3*x1^2*x2^2 + x2^4", 3
        )

    def test_unit_and_plain_product(self):
        f = parse_form("x0^2 + 2*x1*x2", 3)
        assert HomogeneousForm.from_terms(3, 0, {(0, 0, 0): 1}) * f == f
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

    @pytest.mark.parametrize(
        "exponent", [Fraction(1, 2), Fraction(2), 0.5, 2.0], ids=["half", "two", "float", "float-two"]
    )
    def test_non_int_exponent_refused(self, exponent):
        with pytest.raises(InvalidInputError, match="expected an int exponent"):
            X0**exponent

    def test_exponent_above_max_rejected(self):
        top = sympoly.MAX_EXPONENT
        assert HomogeneousForm.from_terms(2, top, {(top, 0): 1}).terms == {(top, 0): 1}
        # top + 1 sets the guard bit; 2**BITS would wrap into x1's field
        for e in (top + 1, 1 << sympoly.BITS):
            with pytest.raises(StructuralError):
                HomogeneousForm.from_terms(2, e, {(e, 0): 1})
            with pytest.raises(StructuralError):
                HomogeneousForm.from_terms(2, e, {(0, e): 1})
        with pytest.raises(StructuralError):
            HomogeneousForm.from_terms(2, top, {(top, 0): 1}) * HomogeneousForm.variable(2, 0)


def assert_canonical(f: HomogeneousForm) -> None:
    """Nonzero ints over a positive denominator coprime to their content, read
    back as nonzero Fractions on monomials of the declared shape, and equal,
    hash included, to the same terms passed through the validating constructor."""
    assert type(f.den) is int and f.den > 0
    assert all(type(c) is int and c != 0 for c in f.poly.values())
    assert gcd(f.den, *f.poly.values()) == 1
    for mono, c in f.terms.items():
        assert type(mono) is tuple and len(mono) == f.num_vars
        assert min(mono) >= 0 and sum(mono) == f.degree
        assert type(c) is Fraction and c != 0
    rebuilt = HomogeneousForm.from_terms(f.num_vars, f.degree, f.terms)
    assert rebuilt == f and hash(rebuilt) == hash(f) and rebuilt.terms == f.terms


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
        assert_canonical(HomogeneousForm.from_terms(3, 0, {(0, 0, 0): 0}) * f)

    @given(st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(*[fractions_st] * n)))
    def test_linear_round_trip(self, coeffs):
        l = HomogeneousForm.linear(coeffs)
        assert_canonical(l)
        assert l.terms == ref(dict(zip(monomials(len(coeffs), 1), coeffs)))
        assert all(type(c) is Fraction for c in l.linear_coefficients())
        # read back from the linear constructor and from the validating one
        assert l.linear_coefficients() == coeffs
        assert HomogeneousForm.from_terms(l.num_vars, 1, l.terms).linear_coefficients() == coeffs

    @pytest.mark.parametrize("count", [0, 1, 4])
    def test_linear_needs_two_or_three_coefficients(self, count):
        with pytest.raises(StructuralError):
            HomogeneousForm.linear([1] * count)

    @given(linear_st(3), st.integers(0, 5))
    def test_linear_pow(self, l, e):
        assert_canonical(l**e)
        assert l**e == HomogeneousForm.from_terms(3, e, (l**e).terms)


def ref(terms: dict) -> dict:
    return {m: Fraction(c) for m, c in terms.items() if c}


shape_st = st.tuples(st.sampled_from([2, 3]), st.integers(0, 2))


def shaped_terms_st(count: int):
    """A shape of degree 0..2 and ``count`` term maps of that shape."""
    return shape_st.flatmap(lambda s: st.tuples(st.just(s), *[terms_st(*s)] * count))


def basis_images(line) -> list[dict]:
    """The substitution x_i -> b0_i * y0 + b1_i * y1 of ``line_frame``, as reference polynomials."""
    den, (b0, b1) = line_frame(line)[0]
    return [ref({(1, 0): Fraction(b0[i], den), (0, 1): Fraction(b1[i], den)}) for i in range(3)]


def pivot_line(data, pivot: int) -> HomogeneousForm:
    """A line whose last nonzero coefficient, which picks its kernel basis, is at ``pivot``."""
    coeffs = [data.draw(fractions_st) for _ in range(pivot)]
    coeffs.append(data.draw(fractions_st.filter(bool)))
    return HomogeneousForm.linear(coeffs + [0] * (2 - pivot))


class TestRepresentation:
    """A form holds its cleared ints over a positive denominator coprime to
    their content.  That pair is one function of the coefficients, however
    the form is built, so == and hash stay exact."""

    @given(form_st(3, 2), st.integers(-5, 5).filter(bool))
    def test_same_pair_from_every_constructor(self, f, k):
        rebuilt = HomogeneousForm.from_terms(f.num_vars, f.degree, f.terms)
        # the constructor on the same coefficients as ints over k * den: unreduced, negative for k < 0
        scaled = HomogeneousForm(f.num_vars, f.degree, k * f.den, {t: k * c for t, c in f.poly.items()})
        # HomogeneousForm.linear's pair is checked by assert_canonical in TestTrustedArithmetic
        for g in (rebuilt, scaled):
            assert_canonical(g)
            assert (g.den, g.poly) == (f.den, f.poly)
            assert g == f and hash(g) == hash(f)

    @pytest.mark.parametrize("field", ["num_vars", "degree", "den", "poly"])
    def test_fields_cannot_be_deleted(self, field):
        f = parse_form("6*x0^2 - 3/2*x1*x2", 3)
        with pytest.raises(AttributeError):
            delattr(f, field)
        assert f == parse_form("6*x0^2 - 3/2*x1*x2", 3)
        assert_canonical(f)

    @given(form_st(3, 2), form_st(3, 2), fractions_st.filter(bool))
    def test_equal_results_hash_alike(self, f, g, c):
        for h in ((f + g) - g, (f * c) * (1 / c), -(-f)):
            assert_canonical(h)
            assert h == f and hash(h) == hash(f)

    # pivots 15 (of 15/35*x0 - 70/35*x1 + 7/35*x2), -5 and -2
    NON_UNIT_PIVOTS = (
        (Fraction(3, 7), -2, Fraction(1, 5)),
        (0, Fraction(-5, 3), 4),
        (0, 0, Fraction(-2, 9)),
    )

    @given(st.integers(1, 4).flatmap(lambda d: form_st(3, d)), st.sampled_from(NON_UNIT_PIVOTS))
    def test_divide_by_non_unit_pivot(self, f, coeffs):
        line = HomogeneousForm.linear(coeffs)
        pivot = next(i for i, c in enumerate(coeffs) if c)
        assert line.linear_ints()[pivot] not in (0, 1)
        quotient, remainder = divide_by_linear(f, line)
        assert line * quotient + remainder == f
        assert ref_add(ref_mul(line.terms, quotient.terms), remainder.terms) == f.terms
        assert all(m[pivot] == 0 for m in remainder.terms)
        assert_canonical(quotient)
        assert_canonical(remainder)


def test_divide_by_a_line_with_a_denominator():
    # f = line * q + r with r free of the pivot x0 is divided back into q and
    # r exactly, for lines over den 6 and 35 whose pivot ints are 6 and 7
    rng = random.Random(23)
    for coeffs in [(1, Fraction(1, 2), Fraction(-1, 3)), (Fraction(1, 5), Fraction(2, 7), 0)]:
        line = HomogeneousForm.linear(coeffs)
        assert line.den != 1
        for d in range(1, 5):
            q_terms = {m: random_fraction(rng) for m in monomials(3, d - 1)}
            r_terms = {m: random_fraction(rng) for m in monomials(3, d) if m[0] == 0}
            q, r = HomogeneousForm.from_terms(3, d - 1, q_terms), HomogeneousForm.from_terms(3, d, r_terms)
            quotient, remainder = divide_by_linear(line * q + r, line)
            assert (quotient, remainder) == (q, r)
            assert_canonical(quotient)
            assert_canonical(remainder)


class TestAgainstReference:
    """Every operator against the exponent-tuple Fraction reference of
    ``conftest``, on forms whose coefficients mix denominators; each result
    is a canonical pair."""

    @given(shaped_terms_st(2))
    def test_add_sub_neg(self, case):
        (n, d), p, q = case
        f, g = HomogeneousForm.from_terms(n, d, p), HomogeneousForm.from_terms(n, d, q)
        assert (f + g).terms == ref_add(ref(p), ref(q))
        assert (f - g).terms == ref_add(ref(p), ref_scale(ref(q), -1))
        assert (-f).terms == ref_scale(ref(p), -1)
        for result in (f + g, f - g, -f):
            assert_canonical(result)

    @given(shaped_terms_st(1), st.one_of(fractions_st, st.integers(-3, 3)))
    def test_scalar_mul(self, case, c):
        (n, d), p = case
        f = HomogeneousForm.from_terms(n, d, p)
        assert (f * c).terms == (c * f).terms == ref_scale(ref(p), c)
        assert_canonical(c * f)

    @given(shaped_terms_st(1), st.data())
    def test_form_mul(self, case, data):
        (n, d), p = case
        e = data.draw(st.integers(0, 2))
        q = data.draw(terms_st(n, e))
        product = HomogeneousForm.from_terms(n, d, p) * HomogeneousForm.from_terms(n, e, q)
        assert product.degree == d + e
        assert product.terms == ref_mul(ref(p), ref(q))
        assert_canonical(product)

    @given(shaped_terms_st(1), st.integers(0, 5))
    def test_pow(self, case, exponent):
        (n, d), p = case
        power = HomogeneousForm.from_terms(n, d, p) ** exponent
        assert power.degree == d * exponent
        assert power.terms == ref_product([ref(p)] * exponent, n)
        assert_canonical(power)

    @pytest.mark.parametrize("pivot", [0, 1, 2])
    @given(st.integers(0, 5).flatmap(lambda d: st.tuples(st.just(d), terms_st(3, d))), st.data())
    def test_restrict(self, pivot, case, data):
        d, p = case
        line = pivot_line(data, pivot)
        images = basis_images(line)
        restricted = restrict(HomogeneousForm.from_terms(3, d, p), line)
        assert restricted.degree == d
        assert restricted.terms == ref_substitute(ref(p), images, 2)

    @given(
        st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), terms_st(3, d))),
        st.tuples(fractions_st, fractions_st, fractions_st).filter(any),
    )
    def test_divide_by_linear(self, case, coeffs):
        d, p = case
        f, line = HomogeneousForm.from_terms(3, d, p), HomogeneousForm.linear(coeffs)
        quotient, remainder = divide_by_linear(f, line)
        line_ref = ref(dict(zip(monomials(3, 1), coeffs)))
        assert ref_add(ref_mul(line_ref, quotient.terms), remainder.terms) == ref(p)
        pivot = next(i for i, c in enumerate(coeffs) if c)
        assert all(m[pivot] == 0 for m in remainder.terms)


class TestTuples:
    """A weighted sum over a tuple of forms is a plain sum of forms."""

    def test_dot_of_ones_with_fourth_powers(self):
        coeffs = [(1, 0, 0), (1, 0, 1), (1, 0, -1), (1, 1, 0), (1, 1, 1), (1, 1, -1), (1, 2, 0)]
        tup = tuple(HomogeneousForm.linear(c) for c in coeffs)
        total = sum((1 * f**4 for f in tup), HomogeneousForm.zero(3, 4))
        expected: dict = {}
        for c in coeffs:
            line = ref(dict(zip(monomials(3, 1), c)))
            expected = ref_add(expected, ref_product([line] * 4, 3))
        assert total.terms == expected

    def test_dot_cancellation(self):
        tup = (X0**4, X0**4)
        assert sum((a * f for a, f in zip([1, -1], tup)), HomogeneousForm.zero(3, 4)).is_zero()

    @pytest.mark.parametrize(
        "entries",
        [(), (X0, X0**2), (X0, HomogeneousForm.linear((1, 0))), (X0, X1, X2), ("x0", "x1")],
        ids=["empty", "two-degrees", "two-variable-counts", "ternary-linear", "not-forms"],
    )
    def test_entries_of_one_shape_required(self, entries):
        # FormTuple is the plain tuple type; power_kernel, its one consumer, checks the entries
        assert FormTuple(entries) == tuple(entries)
        with pytest.raises(StructuralError, match="^expected a nonempty tuple of binary linear forms$"):
            power_kernel(FormTuple(entries), 0)

    def test_power_sum_clears_the_matrix_once(self):
        # weights and lines of denominators 2, 3 and 7 and one zero line: the
        # matrix's denominator D = 42 enters every coefficient as D**exponent
        h, t, f = Fraction(1, 2), Fraction(2, 3), Fraction(5, 7)
        weights = [h, t, f, Fraction(-3)]
        rows = [(h, 1, -t), (t, -f, 2), (0, 0, 0), (f, h, t)]
        lines = cleared_rows([HomogeneousForm.linear(r) for r in rows])
        for exponent in range(6):
            expected: dict = {}
            for w, r in zip(weights, rows):
                line = ref(dict(zip(monomials(3, 1), r)))
                expected = ref_add(expected, ref_scale(ref_product([line] * exponent, 3), w))
            total = power_sum(linalg.clear_denominators(weights), lines, exponent)
            assert total.terms == expected
            assert all(type(c) is Fraction for c in total.terms.values())

    @pytest.mark.parametrize("num_vars", [2, 3])
    @pytest.mark.parametrize("exponent", [0, 1, 5])
    def test_power_sum_matches_the_expansion(self, num_vars, exponent):
        # against sum_i w_i * l_i**exponent by the form operators, a zero
        # weight and a zero row included
        rng = random.Random(10 * num_vars + exponent)
        weights = [random_fraction(rng) for _ in range(5)] + [0, Fraction(3, 4)]
        rows = [[random_fraction(rng) for _ in range(num_vars)] for _ in range(6)] + [[0] * num_vars]
        lines = [HomogeneousForm.linear(r) for r in rows]
        expected = HomogeneousForm.zero(num_vars, exponent)
        for w, line in zip(weights, lines):
            expected = expected + w * line**exponent
        total = power_sum(linalg.clear_denominators(weights), cleared_rows(lines), exponent)
        assert total == expected
        assert_canonical(total)


class TestEvaluate:
    """A form's value at a point, read from its ``terms`` by ``conftest.evaluate``."""

    def test_monomial(self):
        assert evaluate(X0**2 * X2**2, (1, 0, 2)) == 4

    def test_binary_conic(self):
        # direct substitution oracle: 6 - 6 + 3 = 3
        f = parse_form("6*x0^2 + 6*x0*x1 + 3*x1^2", 2)
        assert evaluate(f, (1, -1)) == 3

    def test_zero_form(self):
        assert evaluate(HomogeneousForm.zero(3, 4), (5, 7, 9)) == 0

    @given(
        st.tuples(st.sampled_from([2, 3]), st.integers(0, 4)).flatmap(
            lambda s: st.tuples(st.just(s), terms_st(*s), st.tuples(*[fractions_st] * s[0]))
        )
    )
    def test_matches_substitution(self, case):
        # the value is the substitution of the point's coordinates as constants
        (n, d), p, point = case
        value = evaluate(HomogeneousForm.from_terms(n, d, p), point)
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

    @pytest.mark.parametrize("text", ["x1^2", "x0 + x1"])
    def test_binary_form_rejected(self, text):
        # a line's kernel plane lies in three variables, so a form in two has no restriction to it
        with pytest.raises(StructuralError, match="three variables"):
            restrict(parse_form(text, 2), X1)

    def test_kernel_basis_vanishes_on_line(self):
        rng = random.Random(7)
        # two lines whose ints have content 2 and a negative last coefficient
        fixed = [(2, 4, -6), (0, Fraction(4, 3), Fraction(-2, 3))]
        for coeffs in fixed + [[random_fraction(rng) for _ in range(3)] for _ in range(25)]:
            if all(c == 0 for c in coeffs):
                continue
            line = HomogeneousForm.linear(coeffs)
            den, (b0, b1) = line_frame(line)[0]
            assert den > 0 and all(type(x) is int for x in (*b0, *b1))
            assert evaluate(line, b0) == 0
            assert evaluate(line, b1) == 0
            # the cleared pair is the Fraction basis e_i - (c_i/c_j) e_j over its least denominator
            expected = reference_kernel_basis(line)
            assert tuple(tuple(Fraction(x, den) for x in b) for b in (b0, b1)) == expected
            assert den == lcm(*(x.denominator for b in expected for x in b))

    @pytest.mark.parametrize("pivot", [0, 1, 2])
    @given(linear_st(3), st.data())
    def test_linear_fast_path_matches_substitution(self, pivot, l, data):
        # a linear form restricts to its coefficients paired with the kernel basis
        line = pivot_line(data, pivot)
        images = basis_images(line)
        restricted = restrict(l, line)
        assert restricted.terms == ref_substitute(l.terms, images, 2)
        assert_canonical(restricted)

    def test_degree_edges_on_a_fractional_kernel_basis(self):
        # the kernel basis of 2*x0 + 3*x1 + 7*x2 has denominator D = 7, which
        # enters each restriction as D**degree; the forms are the zero form,
        # a constant and a quintic, each with coefficients of several denominators
        line = HomogeneousForm.linear((2, 3, 7))
        assert line_frame(line)[0][0] == 7
        images = basis_images(line)
        quintic = {m: Fraction(k - 7, 1 + k % 4) for k, m in enumerate(monomials(3, 5)) if k % 3}
        forms = [
            HomogeneousForm.zero(3, 3),
            HomogeneousForm.from_terms(3, 0, {(0, 0, 0): Fraction(-5, 3)}),
            HomogeneousForm.from_terms(3, 5, quintic),
        ]
        for f in forms:
            restricted = restrict(f, line)
            assert (restricted.num_vars, restricted.degree) == (2, f.degree)
            assert restricted.terms == ref_substitute(ref(f.terms), images, 2)
            assert_canonical(restricted)

    @pytest.mark.parametrize(
        "coeffs",
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -3, 0), (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7))],
        ids=["x0", "x1", "x2", "free-of-x2", "fractions"],
    )
    def test_matches_substitution_through_degree_six(self, coeffs):
        # dense forms of every degree 0..6 with coefficients of several denominators
        line = HomogeneousForm.linear(coeffs)
        images = basis_images(line)
        rng = random.Random(str(coeffs))
        for d in range(7):
            terms = {m: random_fraction(rng) for m in monomials(3, d)}
            restricted = restrict(HomogeneousForm.from_terms(3, d, terms), line)
            assert restricted.degree == d
            assert restricted.terms == ref_substitute(ref(terms), images, 2)
            assert_canonical(restricted)

    def test_sparse_form_fills_only_its_own_table_entries(self):
        # a degree-40 ternary form has 861 monomials; the table holds the three
        # restricted, then the union with the next form's
        line = HomogeneousForm.linear((3, -1, Fraction(2, 5)))
        line_frame.cache_clear()
        images = basis_images(line)
        sparse = [
            {(40, 0, 0): 3, (0, 13, 27): Fraction(-1, 2), (5, 35, 0): 7},
            {(40, 0, 0): -2, (1, 1, 38): Fraction(4, 9)},
        ]
        filled: set = set()
        for terms in sparse:
            f = HomogeneousForm.from_terms(3, 40, terms)
            assert restrict(f, line).terms == ref_substitute(ref(terms), images, 2)
            filled |= f.poly.keys()
            assert line_frame(line)[2].keys() == filled
        assert len(filled) == 4

    def test_never_interpolates(self, monkeypatch):
        # interpolation is the certificate's; a restriction reads its table
        calls = count_calls(monkeypatch, forms, "interpolate")
        for line in (X2, HomogeneousForm.linear((1, Fraction(2, 3), -5))):
            for text in ("x0^2 + 2*x1*x2 - 1/3*x2^2", "x0*x1^3 + x2^4", "7"):
                restrict(parse_form(text, 3), line)
        assert calls == []

    @given(form_st(3, 2), form_st(3, 2), nonzero_linear_st(3))
    def test_ring_homomorphism(self, f, g, line):
        assert restrict(f * g, line) == restrict(f, line) * restrict(g, line)

    def test_one_basis_for_a_line_and_its_multiples(self):
        # the basis depends on the line's coefficients only up to a nonzero
        # factor, so every multiple reads the same pair, warm cache or cold
        rng = random.Random(31)
        fixed = [(0, 0, 1), (2, 4, -6), (0, Fraction(4, 3), Fraction(-2, 3)), (Fraction(-1, 2), 0, 0)]
        randoms = [[random_fraction(rng) for _ in range(3)] for _ in range(20)]
        for coeffs in fixed + [c for c in randoms if any(c)]:
            line = HomogeneousForm.linear(coeffs)
            den, basis = line_frame(line)[0]
            expected = reference_kernel_basis(line)
            assert tuple(tuple(Fraction(x, den) for x in b) for b in basis) == expected
            for factor in (1, -1, 3, Fraction(-2, 7), Fraction(5, 3)):
                assert line_frame(factor * line)[0] == (den, basis)

    @pytest.mark.parametrize(
        "bad, error",
        [
            (HomogeneousForm.zero(3, 1), InvalidInputError),
            (X2**2, StructuralError),
            (HomogeneousForm.zero(3, 2), StructuralError),
            (HomogeneousForm.linear((0, 1)), StructuralError),
        ],
        ids=["zero-line", "square", "zero-conic", "binary-line"],
    )
    def test_bad_lines_rejected_with_a_warm_cache(self, bad, error):
        line_frame(X2)
        for _ in range(2):  # a rejection is not remembered either
            with pytest.raises(error):
                line_frame(bad)


def apply_change(q, rows):
    """q after x_j -> sum_i rows[i][j] * x_i, by the reference substitution."""
    images = [ref(dict(zip(monomials(3, 1), (row[j] for row in rows)))) for j in range(3)]
    return HomogeneousForm.from_terms(3, q.degree, ref_substitute(q.terms, images, 3))


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
        # the Fraction values reach interpolate as ints over their common denominator
        points, values = case
        d = len(points) - 1
        vden = lcm(*(v.denominator for v in values))
        den, ints = interpolate(points, [int(v * vden) for v in values], vden)
        assert len(ints) == d + 1 and all(type(c) is int for c in ints) and den > 0
        coeffs = [Fraction(c, den) for c in ints]
        g = HomogeneousForm.from_terms(2, d, {(d - e, e): c for e, c in enumerate(coeffs)})
        assert [evaluate(g, p) for p in points] == values
        assert coeffs == reference_interpolate(points, values)

    @given(
        st.integers(0, 4).flatmap(
            lambda d: st.tuples(
                independent_points_st(d + 1),
                st.lists(st.integers(-50, 50), min_size=d + 1, max_size=d + 1),
                st.integers(-9, 9).filter(bool),
            )
        )
    )
    def test_int_and_fraction_values_agree(self, case):
        # int values and the values times den with the divisor den give one
        # interpolant, as ints over one denominator; int values over den give
        # the interpolant of the Fraction values v / den
        points, values, den = case
        coeffs = as_fractions(interpolate(points, values))
        assert coeffs == as_fractions(interpolate(points, [v * den for v in values], den))
        fractions = [Fraction(v, den) for v in values]
        assert as_fractions(interpolate(points, values, den)) == reference_interpolate(points, fractions)

    @pytest.mark.parametrize(
        "points", [[(1, 0), (2, 0)], [(0, 0), (1, 1)], [(1, 2), (1, 0), (-2, -4)]],
        ids=["proportional", "zero-point", "proportional-apart"],
    )
    def test_dependent_points_refused(self, points):
        # a zero bracket product: the interpolant is not defined
        with pytest.raises(DegenerateNodesError, match="^interpolation points must be pairwise independent$"):
            interpolate(points, list(range(len(points))), 1)

    def test_integer_values(self):
        # y0^2 - y1^2 from (1, 0), (1, 1), (1, -1), and a linear form from (1, 2), (3, 1)
        assert as_fractions(interpolate([(1, 0), (1, 1), (1, -1)], [1, 0, 0])) == [1, 0, -1]
        # the values 1/2 and 3, as ints over 2
        assert as_fractions(interpolate([(1, 2), (3, 1)], [1, 6], 2)) == [
            Fraction(11, 10), Fraction(-3, 10)
        ]


def as_fractions(cleared: tuple[int, list[int]]) -> list[Fraction]:
    den, ints = cleared
    return [Fraction(c, den) for c in ints]


class TestCoercion:
    """Coefficients read back as Fractions whatever numbers they are given
    as: a form stores its cleared ints and builds each Fraction when it is
    read, and a binary quadratic holds the same ints as its pair."""

    VALUES = ([3, -1, 0], [Fraction(3), Fraction(-1), Fraction(0)], [3, Fraction(-1), 0])

    def test_linear(self):
        built = [HomogeneousForm.linear(v) for v in self.VALUES]
        assert built[0] == built[1] == built[2]
        for f in built:
            assert all(type(c) is Fraction for c in f.linear_coefficients())
            assert f.poly.keys() == {sympoly.monomial((1, 0, 0)), sympoly.monomial((0, 1, 0))}
        given = Fraction(2, 9)
        read = HomogeneousForm.linear((given, 1)).linear_coefficients()[0]
        assert read == given and type(read) is Fraction

    def test_linear_from_ints_builds_no_fraction(self, monkeypatch):
        made = count_fractions(monkeypatch)
        form = HomogeneousForm.linear(self.VALUES[0])
        monkeypatch.undo()
        assert made == [] and form.den == 1

    def test_binary_quadratic(self):
        built = [BinaryQuadratic.from_form(binary_form(v)) for v in self.VALUES]
        assert built[0] == built[1] == built[2] == BinaryQuadratic((1, (3, -1, 0)))
        for q in built:
            den, ints = q.cleared
            assert all(type(x) is int for x in (den, *ints))
        # a Fraction coefficient is read into the pair over its denominator
        q = BinaryQuadratic.from_form(binary_form((1, Fraction(-4, 5), 0)))
        assert q.cleared == (5, (5, -4, 0))


def binary_form(coeffs) -> HomogeneousForm:
    """The form a*y0^2 + b*y0*y1 + c*y1^2 for coeffs (a, b, c)."""
    return HomogeneousForm.from_terms(2, 2, dict(zip(((2, 0), (1, 1), (0, 2)), coeffs)))


class TestBinaryQuadratic:
    """A binary quadratic is one canonical pair (den, (A, B, C)); its methods
    agree with the Fraction formulas in a, b, c = A/den, B/den, C/den."""

    COEFFS = (0, 1, -2, Fraction(1, 2), Fraction(-3, 4))
    SWEEP = list(itertools.product(COEFFS, repeat=3))
    POINTS = [(1, 0), (0, 1), (2, -3), (Fraction(1, 3), Fraction(-5, 2))]

    @pytest.mark.parametrize(
        "canonical", [(1, (3, -1, 0)), (5, (5, -4, 0)), (18, (9, -12, 4)), (1, (0, 0, 0))]
    )
    def test_equal_pairs_give_the_canonical_pair(self, canonical):
        # a common factor k, a negative den (k < 0), or both
        den, ints = canonical
        q = BinaryQuadratic(canonical)
        assert q.cleared == canonical
        for k in (-6, -2, -1, 2, 3, 7):
            scaled = BinaryQuadratic((k * den, tuple(k * x for x in ints)))
            assert scaled == q and hash(scaled) == hash(q)
            assert scaled.cleared == canonical

    def test_form_round_trip(self):
        for coeffs in self.SWEEP:
            form = binary_form(coeffs)
            q = BinaryQuadratic.from_form(form)
            assert q.to_form() == form
            assert BinaryQuadratic.from_form(q.to_form()) == q
        assert BinaryQuadratic.from_form(HomogeneousForm.zero(2, 2)).cleared == (1, (0, 0, 0))

    def test_discriminant_and_polar_match_the_fraction_formulas(self):
        for a, b, c in self.SWEEP:
            a, b, c = Fraction(a), Fraction(b), Fraction(c)
            q = BinaryQuadratic.from_form(binary_form((a, b, c)))
            disc = q.discriminant()
            assert disc == b * b - 4 * a * c and type(disc) is Fraction
            for w0, w1 in self.POINTS:
                for u0, u1 in self.POINTS:
                    value = q.polar((w0, w1), (u0, u1))
                    assert value == a * w0 * u0 + b / 2 * (w0 * u1 + w1 * u0) + c * w1 * u1
                    assert type(value) is Fraction

    def test_from_form_refuses_other_shapes(self):
        for form in (HomogeneousForm.zero(3, 2), HomogeneousForm.zero(2, 3)):
            with pytest.raises(StructuralError, match="expected a binary quadratic form"):
                BinaryQuadratic.from_form(form)

    @pytest.mark.parametrize("point", [(1,), (1, 2, 3)], ids=["one", "three"])
    def test_point_of_other_length_refused(self, point):
        # a kernel-plane point has two coordinates, for the polar and for the lift alike
        q = BinaryQuadratic((1, (1, 0, 1)))
        for call in (lambda: q.polar(point, (1, 0)), lambda: q.polar((1, 0), point), lambda: embed_in_plane(X2, point)):
            with pytest.raises(StructuralError, match="expected a point of two coordinates"):
                call()

    @pytest.mark.parametrize("pair", [(1, (1, 2)), (1, (1, 2, 3, 4))])
    def test_pair_of_other_length_refused(self, pair):
        with pytest.raises(StructuralError, match="expected three coefficients"):
            BinaryQuadratic(pair)


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

    def test_rank_matches_the_matrix_of_terms(self):
        # the symmetric matrix read from the exponent tuples of ``terms``, not
        # from packed keys, cleared to ints for linalg.rank
        rng = random.Random(19)
        singles = [HomogeneousForm.from_terms(3, 2, {m: 1}) for m in monomials(3, 2)]
        randoms = []
        for _ in range(60):
            terms = {m: random_fraction(rng) for m in monomials(3, 2) if rng.random() < 0.6}
            randoms.append(HomogeneousForm.from_terms(3, 2, terms))
        for q in [HomogeneousForm.zero(3, 2), *singles, *randoms]:
            matrix = [[Fraction(0)] * 3 for _ in range(3)]
            for mono, c in q.terms.items():
                i, j = (k for k, e in enumerate(mono) for _ in range(e))
                matrix[i][j] += c / 2
                matrix[j][i] += c / 2
            den = lcm(*(x.denominator for row in matrix for x in row))
            expected = linalg.rank([[int(x * den) for x in row] for row in matrix])
            assert conic_rank(q) == expected == minor_rank(matrix)

    def test_not_tangent_reference(self):
        q = parse_form("6*x0^2 + 6*x0*x1 + 3*x1^2 + x2^2", 3)
        restricted = BinaryQuadratic.from_form(restrict(q, X2))
        flag, point = restricted.tangency()
        assert flag is False and point is None
        assert restricted.discriminant() == 6 * 6 - 4 * 6 * 3 == -36

    def test_tangent_with_contact_point(self):
        q = X0 * X2 - X1 * X1
        flag, point = tangency(X2, q)
        assert flag is True
        assert point == (1, 0)

    def test_line_divides_conic(self):
        flag, point = tangency(X2, X2 * X0)
        assert flag is True and point is None

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            tangency(HomogeneousForm.zero(3, 1), X0 * X2)

    def test_flag_invariant_under_line_preserving_changes(self):
        rng = random.Random(13)
        for q_text in ["6*x0^2 + 6*x0*x1 + 3*x1^2 + x2^2", "x0*x2 - x1^2"]:
            q = parse_form(q_text, 3)
            expected = tangency(X2, q)[0]
            count = 0
            while count < 10:
                rows = random_invertible_3x3(rng)
                # the substitution maps x_j to sum_i rows[i][j]*x_i, so fixing
                # x2 = 0 setwise means zeroing the last column above the corner
                rows[0][2] = rows[1][2] = Fraction(0)
                if rows[2][2] == 0 or minor_rank_2x2(rows) == 0:
                    continue
                changed = apply_change(q, rows)
                assert tangency(X2, changed)[0] is expected
                count += 1


def tangency(line, q):
    return BinaryQuadratic.from_form(restrict(q, line)).tangency()


def minor_rank_2x2(rows):
    return 1 if rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0] != 0 else 0


class TestDivision:
    def test_exact_division_invariant(self):
        rng = random.Random(17)
        for _ in range(50):
            terms = {m: random_fraction(rng) for m in rng.sample(monomials(3, 4), 6)}
            f = HomogeneousForm.from_terms(3, 4, terms)
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
        f = HomogeneousForm.from_terms(3, 2, {(2, 0, 0): 1, (0, 2, 0): -1, (0, 0, 2): Fraction(-3, 4)})
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

    # Arabic-Indic digits, which \d, int and Fraction accept and the grammar does not
    @pytest.mark.parametrize("text", ["x\u0662", "\u0663*x0", "1/\u0663*x1", "x0^\u0662"])
    def test_non_ascii_digits_rejected(self, text):
        with pytest.raises(InvalidInputError):
            parse_form(text, 3)

    @given(form_st(3, 3))
    def test_round_trip(self, f):
        assert parse_form(render_form(f), 3, degree=3) == f

    @given(form_st(2, 4))
    def test_round_trip_binary(self, f):
        assert parse_form(render_form(f), 2, degree=4) == f

    def test_content_normalize(self):
        f = parse_form("0", 3, degree=2)
        assert content_normalize(f) == (1, f)
        g = HomogeneousForm.from_terms(3, 2, {(2, 0, 0): -24, (1, 1, 0): -24, (0, 2, 0): -12, (0, 0, 2): -4})
        factor, primitive = content_normalize(g)
        assert factor == -4
        assert render_form(primitive) == "6*x0^2 + 6*x0*x1 + 3*x1^2 + x2^2"
