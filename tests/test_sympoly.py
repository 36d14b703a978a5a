from fractions import Fraction

import pytest
from conftest import (
    count_calls,
    packed_variable,
    ref_add,
    ref_mul,
    ref_product,
    ref_scale,
    ref_variable,
    unpack,
)
from hypothesis import given
from hypothesis import strategies as st

from doubleline import sympoly
from doubleline.errors import StructuralError

NVARS = 4

coefficients_st = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
).filter(bool)
exponents_st = st.tuples(*[st.integers(min_value=0, max_value=3)] * NVARS)
tuple_polys_st = st.dictionaries(exponents_st, coefficients_st, max_size=6)
int_polys_st = st.dictionaries(exponents_st, st.integers(-50, 50).filter(bool), max_size=6)


def pack(poly: dict) -> sympoly.Poly:
    return {
        sum(e << (sympoly.BITS * i) for i, e in enumerate(term)): c for term, c in poly.items()
    }


def ref(poly: dict) -> dict:
    return {t: Fraction(c) for t, c in poly.items()}


def linear_combination(coeffs, polys) -> sympoly.Poly:
    """sum_i coeffs_i * polys_i, built with ``sympoly.add`` and ``sympoly.scale``."""
    out: sympoly.Poly = {}
    for c, p in zip(coeffs, polys):
        out = sympoly.add(out, sympoly.scale(p, c))
    return out


def variables() -> list[sympoly.Poly]:
    return [packed_variable(i) for i in range(NVARS)]


class TestAgainstReference:
    @given(tuple_polys_st, tuple_polys_st)
    def test_add_sub(self, p, q):
        assert unpack(sympoly.add(pack(p), pack(q)), NVARS, sympoly.BITS) == ref_add(ref(p), ref(q))
        assert unpack(sympoly.sub(pack(p), pack(q)), NVARS, sympoly.BITS) == ref_add(
            ref(p), ref_scale(ref(q), -1)
        )

    @given(tuple_polys_st, tuple_polys_st)
    def test_mul(self, p, q):
        assert unpack(sympoly.mul(pack(p), pack(q)), NVARS, sympoly.BITS) == ref_mul(ref(p), ref(q))

    @given(st.one_of(tuple_polys_st, int_polys_st))
    def test_square_matches_the_general_product(self, p):
        # mul(p, p) takes the square path; a copy of p takes the general one
        packed = pack(p)
        square = sympoly.mul(packed, packed)
        assert square == sympoly.mul(packed, dict(packed))
        assert unpack(square, NVARS, sympoly.BITS) == ref_mul(ref(p), ref(p))
        if all(type(c) is int for c in p.values()):
            assert all(type(c) is int for c in square.values())

    @given(tuple_polys_st, st.integers(min_value=0, max_value=9))
    def test_power(self, p, exponent):
        expected = ref_product([ref(p)] * exponent, NVARS)
        assert unpack(sympoly.power(pack(p), exponent), NVARS, sympoly.BITS) == expected

    @given(tuple_polys_st)
    def test_power_starts_from_p(self, p):
        # the first power is p itself, in a new dict: changing it leaves p alone
        packed = pack(p)
        first = sympoly.power(packed, 1)
        assert first == packed and first is not packed
        assert sympoly.power(packed, 0) == {0: 1}

    @given(st.lists(coefficients_st, min_size=NVARS, max_size=NVARS))
    def test_linear_combination(self, coeffs):
        got = linear_combination(coeffs, variables())
        expected: dict = {}
        for i, c in enumerate(coeffs):
            expected = ref_add(expected, ref_scale(ref_variable(NVARS, i), c))
        assert unpack(got, NVARS, sympoly.BITS) == expected

    @given(int_polys_st, int_polys_st)
    def test_integer_coefficients_stay_integers(self, p, q):
        product = sympoly.mul(pack(p), pack(q))
        assert all(type(c) is int for c in sympoly.add(product, pack(p)).values())


class TestPowerBySquaring:
    def test_fourth_power_of_linear_form_squares_twice(self, monkeypatch):
        # p*p then its square: 4*4 + 10*10 = 116 term pairs, where three
        # products by p take 4*4 + 10*4 + 20*4 = 136
        calls = count_calls(monkeypatch, sympoly, "mul")
        form = linear_combination([1, 2, 3, 5], variables())
        fourth = sympoly.power(form, 4)
        assert sum(len(p) * len(q) for p, q in calls) == 116
        assert len(calls) == 2 and len(fourth) == 35


class TestExponentLimits:
    def test_largest_exponent(self):
        x = packed_variable(1)
        assert sympoly.power(x, sympoly.MAX_EXPONENT) == {
            sympoly.MAX_EXPONENT << sympoly.BITS: 1
        }
        assert sympoly.MAX_EXPONENT == 2**15 - 1

    def test_guard_bit_overflow_raises(self):
        with pytest.raises(StructuralError):
            sympoly.power(packed_variable(0), 2**15)

    def test_direct_square_checks_the_guard_bit(self):
        # x1**(2**14) squared reaches 2**15 in x1's field, alone or beside a
        # term whose square stays in range
        high = sympoly.monomial((0, 2**14))
        for p in ({high: 1}, {high: 3, sympoly.monomial((5, 7)): Fraction(1, 2)}):
            with pytest.raises(StructuralError):
                sympoly.mul(p, p)
        low = {sympoly.monomial((0, 2**14 - 1)): 2}
        assert sympoly.mul(low, low) == {2 * sympoly.monomial((0, 2**14 - 1)): 4}

    def test_negative_exponent_raises(self):
        with pytest.raises(StructuralError):
            sympoly.power(packed_variable(0), -2)

    @pytest.mark.parametrize("nvars", [0, 1, 5, 21])
    def test_zeroth_power_of_zero_is_one(self, nvars):
        # the constant 1 in any number of variables has the key 0
        assert sympoly.power({}, 0) == {sympoly.monomial((0,) * nvars): 1}

    @pytest.mark.parametrize("nvars", [sympoly.MAX_VARS, sympoly.MAX_VARS + 1])
    def test_variable_count_is_capped(self, nvars):
        # an exponent tuple of nvars entries packs while only its first MAX_VARS are nonzero
        top = sympoly.MAX_VARS - 1
        mono = tuple(int(i == top) for i in range(nvars))
        assert sympoly.monomial(mono) == 1 << (sympoly.BITS * top)
        for index in range(top + 1, nvars + 1):
            with pytest.raises(StructuralError):
                sympoly.monomial(mono[:index] + (1,) + mono[index + 1 :])

    def test_variable_index_in_range(self):
        # the variables x_0 .. x_{MAX_VARS - 1} are the only ones with keys
        keys = [next(iter(packed_variable(i))) for i in range(sympoly.MAX_VARS)]
        assert keys == [1 << (sympoly.BITS * i) for i in range(sympoly.MAX_VARS)]
        with pytest.raises(StructuralError):
            packed_variable(sympoly.MAX_VARS)
        for mono in ((-1,), (0, 0, -1)):
            with pytest.raises(StructuralError):
                sympoly.monomial(mono)
