from fractions import Fraction

import pytest
from conftest import ref_add, ref_mul, ref_product, ref_scale, ref_variable, unpack
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

    @given(tuple_polys_st, st.integers(min_value=0, max_value=4))
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
        got = sympoly.linear_combination(coeffs, [sympoly.variable(NVARS, i) for i in range(NVARS)])
        expected: dict = {}
        for i, c in enumerate(coeffs):
            expected = ref_add(expected, ref_scale(ref_variable(NVARS, i), c))
        assert unpack(got, NVARS, sympoly.BITS) == expected

    @given(int_polys_st, int_polys_st)
    def test_integer_coefficients_stay_integers(self, p, q):
        product = sympoly.mul(pack(p), pack(q))
        assert all(type(c) is int for c in sympoly.add(product, pack(p)).values())


class TestExponentLimits:
    def test_largest_exponent(self):
        x = sympoly.variable(2, 1)
        assert sympoly.power(x, sympoly.MAX_EXPONENT) == {
            sympoly.MAX_EXPONENT << sympoly.BITS: 1
        }
        assert sympoly.MAX_EXPONENT == 2**15 - 1

    def test_guard_bit_overflow_raises(self):
        with pytest.raises(StructuralError):
            sympoly.power(sympoly.variable(2, 0), 2**15)

    def test_negative_exponent_raises(self):
        with pytest.raises(StructuralError):
            sympoly.power(sympoly.variable(1, 0), -2)

    @pytest.mark.parametrize("nvars", [0, 1, 5, 21])
    def test_zeroth_power_of_zero_is_one(self, nvars):
        assert sympoly.power({}, 0) == sympoly.const(nvars, 1)

    @pytest.mark.parametrize("nvars", [sympoly.MAX_VARS, sympoly.MAX_VARS + 1])
    def test_variable_count_is_capped(self, nvars):
        sympoly.variable(nvars, sympoly.MAX_VARS - 1)
        with pytest.raises(StructuralError):
            sympoly.variable(nvars, sympoly.MAX_VARS)

    def test_variable_index_in_range(self):
        with pytest.raises(StructuralError):
            sympoly.variable(3, 3)
        with pytest.raises(StructuralError):
            sympoly.variable(3, -1)
