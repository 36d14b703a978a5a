import random
from fractions import Fraction
from math import comb, gcd

import pytest
from conftest import (
    gauss_jordan,
    kills,
    minor_rank,
    random_fraction,
    reference_kernel,
    sample_nodes,
    vandermonde_rows,
)
from hypothesis import given
from hypothesis import strategies as st

from doubleline import linalg
from doubleline.errors import DegenerateNodesError, InvalidInputError, StructuralError
from doubleline.linalg import (
    RationalMatrix,
    VandermondeSystem,
    moment_kernel,
    normalize_vector,
    rank,
    rref,
    vandermonde_nullspace,
    weighted_moment_kernel,
)

fractions_st = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def product(values):
    out = Fraction(1)
    for v in values:
        out *= v
    return out


def closed_form_annihilator(nodes):
    """Independent oracle: entry i is 1 / prod_{j != i} (h_i - h_j)."""
    return tuple(
        Fraction(1) / product(h - g for g in nodes if g != h) for h in nodes
    )


def proportional(u, v):
    pairs = [(a, b) for a, b in zip(u, v) if a != 0 or b != 0]
    if not pairs:
        return True
    a0, b0 = pairs[0]
    return all(a * b0 == b * a0 for a, b in pairs)


def rref_rows(rows, ncols):
    """``rref`` of the matrix with these rows, as lists of rows, its rank and
    its pivots: the layout of ``gauss_jordan``."""
    reduced, rank, pivots = rref(RationalMatrix(len(rows), ncols, [x for row in rows for x in row]))
    return [reduced.row(i) for i in range(reduced.rows)], rank, pivots


class TestRref:
    """The Gauss-Jordan properties hold for the ``gauss_jordan`` oracle, and
    ``rref`` agrees with the oracle on reduced rows, rank and pivots."""

    def test_identity(self):
        rows = [[int(i == j) for j in range(3)] for i in range(3)]
        assert gauss_jordan(rows) == (rows, 3, (0, 1, 2))
        assert rref_rows(rows, 3) == gauss_jordan(rows)

    def test_proportional_rows(self):
        rows = [[1, 2], [2, 4]]
        assert gauss_jordan(rows) == ([[1, 2], [0, 0]], 1, (0,))
        assert rref_rows(rows, 2) == gauss_jordan(rows)

    def test_rank_against_minor_oracle(self):
        rng = random.Random(23)
        for _ in range(10):
            rows = [[random_fraction(rng, 6, 4) for _ in range(7)] for _ in range(5)]
            assert gauss_jordan(rows)[1] == minor_rank(rows)
            assert rref_rows(rows, 7) == gauss_jordan(rows)

    def test_rref_shape_properties(self):
        rng = random.Random(29)
        for _ in range(20):
            rows = [[random_fraction(rng, 5, 3) for _ in range(5)] for _ in range(4)]
            reduced, rank, pivots = gauss_jordan(rows)
            assert rank == len(pivots)
            for i, pc in enumerate(pivots):
                assert reduced[i][pc] == 1
                for k in range(len(reduced)):
                    if k != i:
                        assert reduced[k][pc] == 0
            assert rref_rows(rows, 5) == (reduced, rank, pivots)

    def test_empty_matrix(self):
        assert gauss_jordan([]) == ([], 0, ())
        assert rref_rows([], 4) == ([], 0, ())


class TestRank:
    def test_against_minor_oracle_and_rref(self):
        rng = random.Random(31)
        for _ in range(60):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
            shape = rng.randrange(3)
            if shape == 1:
                rows[rng.randrange(nrows)] = [0] * ncols
            elif shape == 2:
                rows.insert(rng.randrange(nrows + 1), list(rng.choice(rows)))
            before = [list(row) for row in rows]
            assert rank(rows) == minor_rank(rows) == gauss_jordan(rows)[1]
            assert rows == before

    def test_empty_and_zero_matrices(self):
        assert rank([]) == 0
        assert rank([[], []]) == 0
        assert rank([[0, 0, 0], [0, 0, 0]]) == 0


class TestMomentKernel:
    def test_no_constraints_gives_identity_basis(self):
        points = [(1, 0), (1, 2), (0, 1)]
        assert moment_kernel(points, -1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_fifth_difference_oracle(self):
        # independent oracle: the 5th finite difference kills powers d <= 4
        vec = [comb(5, i) * (-1) ** i for i in range(6)]
        rows = vandermonde_rows(range(6), 4)
        assert kills(rows, vec)
        basis = moment_kernel([(1, i) for i in range(6)], 4)
        assert basis == [tuple(vec)]

    def test_point_at_infinity(self):
        # y, x and x + y: the one relation is x + y - (x + y) = 0
        assert moment_kernel([(0, 1), (1, 0), (1, 1)], 1) == [(1, 1, -1)]

    def test_vectors_are_primitive_integer_vectors(self):
        rng = random.Random(37)
        for trial in range(20):
            nodes = sample_nodes(rng, 7)
            scale = random_fraction(rng) or Fraction(1)
            points = [(scale, scale * h) for h in nodes]
            if trial % 2:
                points = [(h.denominator, h.numerator) for h in nodes]  # int points
            for degree in range(-1, 6):
                for vec in moment_kernel(points, degree):
                    assert all(type(x) is int for x in vec)
                    assert gcd(*vec) == 1 and next(x for x in vec if x) > 0

    def test_kernels_construct_no_fraction(self, monkeypatch):
        # a kernel vector leaves linalg as ints: no entry is built as a Fraction
        nodes = tuple(Fraction(k, 3) for k in range(-3, 4))
        int_points = [(3, k) for k in range(-3, 4)]
        expected = {d: moment_kernel(int_points, d) for d in range(-1, 6)}

        def refuse(*args):
            raise AssertionError("linalg constructed a Fraction")

        monkeypatch.setattr(linalg, "Fraction", refuse)
        for d in range(-1, 6):
            assert moment_kernel(int_points, d) == expected[d]
            assert moment_kernel([(1, h) for h in nodes], d) == expected[d]
            assert vandermonde_nullspace(VandermondeSystem(nodes, d)) == expected[d]
        assert normalize_vector((Fraction(-1, 120), Fraction(1, 24))) == (1, -5)
        assert normalize_vector((Fraction(0), Fraction(0))) == (0, 0)

    def test_degenerate_points_rejected(self):
        with pytest.raises(DegenerateNodesError, match="points 0 and 2"):
            moment_kernel([(1, 2), (1, 3), (2, 4)], 1)
        with pytest.raises(DegenerateNodesError, match="point 1 is zero"):
            moment_kernel([(1, 2), (0, 0)], 0)

    def test_degree_below_minus_one_rejected(self):
        with pytest.raises(StructuralError):
            moment_kernel([(1, 0), (1, 1)], -2)

    @given(
        st.lists(fractions_st, min_size=1, max_size=8, unique=True).flatmap(
            lambda nodes: st.tuples(st.just(nodes), st.integers(-1, len(nodes) - 1))
        )
    )
    def test_vandermonde_matches_reference(self, case):
        nodes, max_power = case
        rows = vandermonde_rows(nodes, max_power)
        basis = vandermonde_nullspace(VandermondeSystem(tuple(nodes), max_power))
        assert basis == reference_kernel(rows, len(nodes))
        assert len(basis) == len(nodes) - max_power - 1
        assert all(kills(rows, vec) for vec in basis)


class TestVandermonde:
    def test_closed_form_six_nodes(self):
        basis = vandermonde_nullspace(VandermondeSystem(tuple(Fraction(i) for i in range(6)), 4))
        assert basis == [(1, -5, 10, -10, 5, -1)]

    def test_closed_form_seven_nodes(self):
        basis = vandermonde_nullspace(VandermondeSystem(tuple(Fraction(i) for i in range(7)), 5))
        assert basis == [(1, -6, 15, -20, 15, -6, 1)]

    def test_two_dimensional_contains_shifted_differences(self):
        basis = vandermonde_nullspace(VandermondeSystem(tuple(Fraction(i) for i in range(7)), 4))
        assert len(basis) == 2
        member = (1, -5, 10, -10, 5, -1, 0)
        assert gauss_jordan([*basis, member])[1] == 2

    def test_repeated_nodes_rejected(self):
        with pytest.raises(DegenerateNodesError):
            vandermonde_nullspace(VandermondeSystem((Fraction(0), Fraction(0), Fraction(1)), 1))

    def test_max_power_out_of_range(self):
        with pytest.raises(StructuralError):
            vandermonde_nullspace(VandermondeSystem((Fraction(0), Fraction(1)), 2))

    def test_closed_form_on_random_node_sets(self):
        rng = random.Random(31)
        for trial in range(100):
            n = 6 if trial % 2 == 0 else 7
            nodes = sample_nodes(rng, n)
            basis = vandermonde_nullspace(VandermondeSystem(nodes, n - 2))
            assert len(basis) == 1
            assert proportional(basis[0], closed_form_annihilator(nodes))

    def test_dimension_law_and_invertible_generator(self):
        rng = random.Random(37)
        for _ in range(25):
            nodes = sample_nodes(rng, 7)
            for d in range(6):
                basis = vandermonde_nullspace(VandermondeSystem(nodes, d))
                assert len(basis) == 6 - d
            generator = vandermonde_nullspace(VandermondeSystem(nodes, 5))[0]
            assert all(x != 0 for x in generator)


class TestWeightedMomentKernel:
    def test_translation_family(self):
        nodes = tuple(Fraction(i) for i in range(6))
        alpha = vandermonde_nullspace(VandermondeSystem(nodes, 4))[0]
        kernel = weighted_moment_kernel(nodes, alpha, 3)
        assert len(kernel.basis) == 2
        assert gauss_jordan(kernel.basis)[0] == gauss_jordan([[1] * 6, nodes])[0]

    def test_membership(self):
        nodes = tuple(Fraction(i) for i in range(6))
        alpha = vandermonde_nullspace(VandermondeSystem(nodes, 4))[0]
        kernel = weighted_moment_kernel(nodes, alpha, 3)
        for vec in kernel.basis:
            for d in range(4):
                assert sum(a * k * h**d for a, k, h in zip(alpha, vec, nodes)) == 0

    def test_seven_nodes_dimension_three(self):
        nodes = tuple(Fraction(i) for i in range(7))
        alpha = tuple(Fraction(v) for v in (2, -11, 25, -30, 20, -7, 1))
        kernel = weighted_moment_kernel(nodes, alpha, 3)
        assert len(kernel.basis) == 3

    def test_no_constraints_gives_full_space(self):
        nodes = (Fraction(0), Fraction(2), Fraction(5))
        # three nodes only exercises the moment machinery, so bypass the
        # engine's 6-or-7 restriction by calling linalg directly
        kernel = weighted_moment_kernel(nodes, (1, 1, 1), -1)
        assert len(kernel.basis) == 3

    def test_int_nodes_and_weights_stay_exact(self):
        # the kernel vectors are ints, so b / weight is exact only because the
        # weights are coerced to Fractions
        nodes = tuple(range(6))
        (alpha,) = vandermonde_nullspace(VandermondeSystem(nodes, 4))
        assert all(type(a) is int for a in alpha)
        kernel = weighted_moment_kernel(nodes, alpha, 3)
        assert len(kernel.basis) == 2
        for vec in kernel.basis:
            assert all(type(k) in (int, Fraction) for k in vec)
            for d in range(4):
                assert sum(a * k * h**d for a, k, h in zip(alpha, vec, nodes)) == 0

    def test_zero_weight_reports_index(self):
        nodes = tuple(Fraction(i) for i in range(6))
        with pytest.raises(InvalidInputError, match="weight 2 is zero"):
            weighted_moment_kernel(nodes, (1, 1, 0, 1, 1, 1), 3)

    def test_repeated_node_is_reported_before_a_zero_weight(self):
        nodes = (0, 1, 2, 2, 4, 5)
        with pytest.raises(DegenerateNodesError, match="repeated node 2"):
            weighted_moment_kernel(nodes, (1, 1, 0, 1, 1, 1), 3)


class TestSolveAndNormalize:
    def test_normalize_vector(self):
        assert normalize_vector((Fraction(-1, 120), Fraction(1, 24))) == (1, -5)
        assert normalize_vector((0, Fraction(-2, 3), Fraction(4, 3))) == (0, 1, -2)
        assert normalize_vector((0, 0)) == (0, 0)
        zeros = normalize_vector((Fraction(0), Fraction(0), Fraction(0)))
        assert zeros == (0, 0, 0) and all(type(x) is int for x in zeros)
