import random
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
        difference = sympoly.add(pack(p), sympoly.scale(pack(q), -1))
        assert unpack(difference, NVARS, sympoly.BITS) == ref_add(ref(p), ref_scale(ref(q), -1))

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


def random_poly(rng: random.Random, size: int, top: int = 2) -> sympoly.Poly:
    """Up to ``size`` terms in NVARS variables with exponents in 0..top, so that
    products collide; int coefficients, now and then a Fraction."""
    poly: sympoly.Poly = {}
    for _ in range(size):
        coeff = rng.choice([-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)])
        poly[sympoly.monomial(tuple(rng.randint(0, top) for _ in range(NVARS)))] = coeff
    return poly


def operand_cases():
    """Seeded operand lists with supports that differ, then the special cases:
    an empty operand and two (x0 + x1, x0 - x1) whose cross terms cancel."""
    rng = random.Random(31)
    cases = [
        pytest.param(*(random_poly(rng, rng.randint(1, 9)) for _ in range(3)), id=f"random-{k}")
        for k in range(40)
    ]
    x0, x1 = packed_variable(0), packed_variable(1)
    plus, minus = sympoly.add(x0, x1), sympoly.add(x0, sympoly.scale(x1, -1))
    special = {
        "empty-first": ({}, plus, minus),
        "empty-second": (plus, {}, minus),
        "empty-third": (plus, minus, {}),
        "all-empty": ({}, {}, {}),
        "cancel": (plus, minus, minus),
        "cancel-swapped": (minus, plus, plus),
        "cancel-doubled": (plus, sympoly.add(plus, plus), minus),
    }
    return cases + [pytest.param(*args, id=name) for name, args in special.items()]


class TestAddProduct:
    @pytest.mark.parametrize("p, q, start", operand_cases())
    def test_matches_add_of_scaled_products(self, p, q, start):
        factors = (1, -3, Fraction(5, 2))
        targets = ({}, dict(start), dict(start))
        sympoly.add_product(targets, p, q, factors)
        product = sympoly.mul(p, q)
        expected = [sympoly.add(t, sympoly.scale(product, f)) for t, f in zip(({}, start, start), factors)]
        assert [{t: c for t, c in target.items() if c} for target in targets] == expected
        # every key of the product reaches every target, even with a zero factor
        zeros: tuple[sympoly.Poly, ...] = ({},)
        sympoly.add_product(zeros, p, q, (0,))
        assert set(zeros[0]) == {t1 + t2 for t1 in p for t2 in q}
        assert not any(zeros[0].values())

    def test_int_inputs_give_int_coefficients(self):
        rng = random.Random(7)
        p, q = ({t: int(2 * c) for t, c in random_poly(rng, 6).items()} for _ in range(2))
        targets: tuple[sympoly.Poly, ...] = ({}, {})
        sympoly.add_product(targets, p, q, (1, 7))
        assert all(type(c) is int for target in targets for c in target.values())

    def test_exponent_past_the_limit_raises_and_changes_nothing(self):
        high = {sympoly.monomial((0, 2**14)): 1, sympoly.monomial((1,)): 2}
        low = {sympoly.monomial((0, 2**14 - 1)): 3}
        targets: tuple[sympoly.Poly, ...] = ({5: 1}, {})
        with pytest.raises(StructuralError, match="exponent above"):
            sympoly.add_product(targets, high, high, (1, 1))
        assert targets == ({5: 1}, {})
        sympoly.add_product(targets, low, low, (1, 1))
        assert targets[1] == sympoly.mul(low, low)


class TestSquareAndCross:
    @pytest.mark.parametrize("p0, p1, p2", operand_cases())
    def test_matches_the_two_products(self, p0, p1, p2):
        square, cross = sympoly.square_and_cross(p0, p1, p2)
        assert square == sympoly.mul(p1, p1)
        assert cross == sympoly.mul(p0, p2)
        assert all(square.values()) and all(cross.values())

    def test_int_inputs_give_int_coefficients(self):
        rng = random.Random(8)
        polys = [{t: int(2 * c) for t, c in random_poly(rng, 8).items()} for _ in range(3)]
        assert all(type(c) is int for product in sympoly.square_and_cross(*polys) for c in product.values())

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_exponent_past_the_limit_raises(self, position):
        # x1**(2**14) times itself reaches 2**15 in x1's field, in either product
        operands = [{sympoly.monomial((3,)): 1}] * 3
        operands[position] = {sympoly.monomial((0, 2**14)): 1, sympoly.monomial((1,)): 2}
        if position != 1:
            operands[2 - position] = operands[position]
        with pytest.raises(StructuralError, match="exponent above"):
            sympoly.square_and_cross(*operands)
        low = {sympoly.monomial((0, 2**14 - 1)): 2}
        assert sympoly.square_and_cross(low, low, low) == (sympoly.mul(low, low),) * 2


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
