"""Exact dense linear algebra over the rationals.

Elimination is used only for ranks, which also compare row spaces.  It is
done fraction-free, in one loop: rows are cleared to integers and reduced
with the Bareiss two-step recurrence (every division is exact).  ``rank``
reads the rank of an integer matrix from that loop alone; ``rref``, kept
only because ``bench/spans.py`` wraps it by name, follows it with a
normalization pass that produces the reduced row echelon form with Fraction
entries.

Kernels of the power maps c |-> sum_i c_i (a_i x + b_i y)^d, moment maps
included, are computed in closed form.  With P_i = (a_i, b_i) pairwise
independent and [P, Q] the 2x2 determinant, any d + 1 of the powers are
independent (a Vandermonde determinant, a product of brackets), so the RREF
pivots are 0..d and the kernel vector of a free index f is the one supported
on S = {0..d, f}.  It is c_i = 1 / prod_{j in S, j != i} [P_j, P_i]: at
P_i = (1, h_i) the pairing of sum_i c_i l_i^d with a degree-d polynomial g is
the divided difference g[h_S], zero as deg g < |S| - 1, and the general case
is its homogenization.  The vector is built on integers, as M / prod_i with
M the lcm of the bracket products, then divided by its content with the sign
of its leading entry (``normalize_vector``): every kernel vector is a
primitive integer tuple, and no entry becomes a Fraction.

Matrices are immutable values; all functions return fresh objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, lcm, prod
from typing import Sequence

from . import sympoly
from .errors import DegenerateNodesError, InvalidInputError, StructuralError

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]


class RationalMatrix:
    """Dense matrix of Fractions, stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Fraction | int]):
        if rows < 0 or cols < 0:
            raise StructuralError("matrix dimensions must be non-negative")
        if len(entries) != rows * cols:
            raise StructuralError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = tuple(Fraction(e) for e in entries)

    def row(self, i: int) -> list[Fraction]:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])


def _bareiss(work: list[list[int]], ncols: int) -> list[int]:
    """Reduce integer rows in place to a fraction-free echelon form (Bareiss);
    the pivot columns, one per nonzero row, are returned."""
    nrows = len(work)
    pivot_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # the first nonzero candidate: every Bareiss entry is a minor of the input
        p = next((i for i in range(r, nrows) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        pivot = work[r][c]
        for i in range(r + 1, nrows):
            vi = work[i][c]
            wi, wr = work[i], work[r]
            for j in range(c, ncols):
                # Bareiss: the quotient is exact by Sylvester's identity.
                wi[j] = (pivot * wi[j] - vi * wr[j]) // prev
        prev = pivot
        pivot_cols.append(c)
        r += 1
    return pivot_cols


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of the integer matrix with these rows (all of one length)."""
    work = [list(row) for row in rows]
    return len(_bareiss(work, len(work[0]) if work else 0))


def rref(m: RationalMatrix) -> tuple[RationalMatrix, int, tuple[int, ...]]:
    """Reduced row echelon form, rank, and pivot columns of ``m``."""
    work = [sympoly.clear_denominators(m.row(i))[1] for i in range(m.rows)]
    nrows, ncols = m.rows, m.cols
    pivot_cols = _bareiss(work, ncols)
    rank = len(pivot_cols)
    reduced = [[Fraction(x) for x in work[i]] for i in range(rank)]
    for idx in range(rank - 1, -1, -1):
        pc = pivot_cols[idx]
        pivot = reduced[idx][pc]
        reduced[idx] = [x / pivot for x in reduced[idx]]
        for i in range(idx):
            factor = reduced[i][pc]
            if factor:
                reduced[i] = [a - factor * b for a, b in zip(reduced[i], reduced[idx])]

    flat: list[Fraction] = []
    for row in reduced:
        flat.extend(row)
    flat.extend([Fraction(0)] * ((nrows - rank) * ncols))
    return RationalMatrix(nrows, ncols, flat), rank, tuple(pivot_cols)


def normalize_vector(v: Sequence[Fraction | int]) -> IntVector:
    """Scale to ints with content 1 and positive leading entry (zeros stay 0)."""
    ints = sympoly.clear_denominators(v)[1]
    g = gcd(*ints)
    if not g:
        return tuple(ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def clear_rows(rows: Sequence[Sequence[Fraction | int]]) -> tuple[int, list[tuple[int, ...]]]:
    """The common denominator D of every entry of ``rows`` and the integer rows
    D * row; the one place where points and kernel vectors are cleared."""
    den, flat = sympoly.clear_denominators([x for row in rows for x in row])
    entries = iter(flat)
    return den, [tuple(islice(entries, len(row))) for row in rows]


def moment_kernel(
    points: Sequence[tuple[Fraction | int, Fraction | int]], degree: int
) -> list[IntVector]:
    """RREF kernel basis of c |-> sum_i c_i (a_i x + b_i y)^degree, in closed form.

    The points (a_i, b_i), ints or Fractions, must be nonzero and pairwise
    non-proportional, else DegenerateNodesError.  Degree -1 imposes no
    constraint (identity basis).  Each vector is a tuple of ints with content
    1 and a positive leading entry.  The formula and why it is the RREF basis
    are in the module docstring.
    """
    if degree < -1:
        raise StructuralError("degree must be at least -1")
    # scaling every point by one integer scales every entry by one constant
    pts = clear_rows(points)[1]
    n = len(pts)
    det = [[0] * n for _ in range(n)]  # det[j][i] = [P_j, P_i]
    for i, (ai, bi) in enumerate(pts):
        if not (ai or bi):
            raise DegenerateNodesError(f"point {i} is zero")
        for j, (aj, bj) in enumerate(pts[:i]):
            det[j][i] = aj * bi - bj * ai
            det[i][j] = -det[j][i]
            if not det[j][i]:
                raise DegenerateNodesError(f"points {j} and {i} are proportional")
    basis: list[IntVector] = []
    for f in range(degree + 1, n):
        support = [*range(degree + 1), f]
        prods = [prod(det[j][i] for j in support if j != i) for i in support]
        # M / prod_i is the integer vector, before its content is divided out
        m = lcm(*prods)
        vec = [0] * n
        for i, p in zip(support, prods):
            vec[i] = m // p
        basis.append(normalize_vector(vec))
    return basis


@dataclass(frozen=True)
class VandermondeSystem:
    """Moment constraints sum_i c_i h_i^d = 0 for 0 <= d <= max_power."""

    nodes: tuple[Fraction | int, ...]
    max_power: int


def vandermonde_nullspace(system: VandermondeSystem) -> list[IntVector]:
    """Basis of moment annihilators; dimension n - max_power - 1 for distinct nodes."""
    n = len(system.nodes)
    seen: set[Fraction | int] = set()
    for h in system.nodes:
        if h in seen:
            raise DegenerateNodesError(f"repeated node {h}")
        seen.add(h)
    if system.max_power > n - 1:
        raise StructuralError(f"max_power {system.max_power} exceeds n-1 = {n - 1}")
    return moment_kernel([(1, h) for h in system.nodes], system.max_power)


@dataclass(frozen=True)
class WeightedMomentKernel:
    """Solutions k of sum_i weights_i k_i h_i^d = 0 over a range of d."""

    basis: tuple[Vector, ...]


def weighted_moment_kernel(
    nodes: Sequence[Fraction | int],
    weights: Sequence[Fraction | int],
    max_power: int,
) -> WeightedMomentKernel:
    """Kernel of the weighted moment map, as entrywise quotients b/weights.

    Unweighted annihilators b of the same moment range are computed first;
    each basis member is then b_i / weights_i, which requires every weight to
    be nonzero.
    """
    hs = tuple(Fraction(h) for h in nodes)
    ws = tuple(Fraction(a) for a in weights)  # b / a stays exact for int kernel vectors b
    if len(hs) != len(ws):
        raise StructuralError("nodes and weights must have equal length")
    raw = vandermonde_nullspace(VandermondeSystem(hs, max_power))  # rejects repeated nodes first
    for i, a in enumerate(ws):
        if a == 0:
            raise InvalidInputError(f"weight {i} is zero")
    basis = tuple(tuple(b / a for b, a in zip(vec, ws)) for vec in raw)
    return WeightedMomentKernel(basis=basis)
