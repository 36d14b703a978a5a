"""Exact rationals, and dense linear algebra over them.

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
M the lcm of the bracket products, signed to make its leading entry positive:
its content is 1, as some prod_i carries M's full power of each prime, so
every kernel vector is a primitive integer tuple and no entry is a Fraction.

A rational is an int or a Fraction (``rational``, ``format_rational``); a
vector of them is held as ints over one denominator (``clear_denominators``),
canonically the ``Cleared`` pair (``cleared``).  Matrices are sequences of
rows, all of one length; the public functions leave their arguments
unchanged and return fresh objects.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Collection, Sequence

from .errors import DegenerateNodesError, InvalidInputError, StructuralError
from .record import Record

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]
# a rational vector ints / den, canonical: den > 0 and gcd(den, *ints) == 1
Cleared = tuple[int, IntVector]


def cleared(den: int, ints: Sequence[int]) -> Cleared:
    """The canonical pair of ``ints / den``; InvalidInputError for a zero den or a non-int."""
    try:
        g = gcd(den, *ints)
    except TypeError:
        raise InvalidInputError(f"expected a (den, ints) pair of ints, got {(den, ints)!r}") from None
    if not den:
        raise InvalidInputError("a (den, ints) pair needs a nonzero den")
    if den < 0:
        g = -g
    return den // g, tuple(x // g for x in ints)


def rational(x: Fraction | int) -> Fraction:
    """``x`` as a Fraction (a Fraction itself); InvalidInputError for a float or another non-rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise InvalidInputError(f"expected an int or a Fraction, got {x!r}")


def clear_denominators(values: Collection[Fraction | int]) -> tuple[int, IntVector]:
    """The lcm D of the denominators of ``values`` and the ints D * value, a pair
    with gcd 1 (D = 1 for ints); InvalidInputError for a float or another non-rational."""
    try:
        den = lcm(*(x.denominator for x in values))
    except AttributeError:
        bad = next(x for x in values if not hasattr(x, "denominator"))
        raise InvalidInputError(f"expected an int or a Fraction, got {bad!r}") from None
    return den, tuple(x.numerator * (den // x.denominator) for x in values)


def format_rational(x: Fraction | int) -> str:
    """``p`` or ``p/q`` at any size: unlike an int's, a Decimal's str has no digit limit."""
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


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


def rref(rows: Sequence[Sequence[Fraction | int]]) -> tuple[list[list[Fraction]], int, tuple[int, ...]]:
    """Reduced row echelon form (zero rows last), rank and pivot columns of
    the matrix with these rows (all of one length)."""
    work = [list(clear_denominators(row)[1]) for row in rows]
    pivot_cols = _bareiss(work, len(work[0]) if work else 0)
    # Bareiss leaves the rows past the rank zero
    reduced = [[Fraction(x) for x in row] for row in work]
    for idx in range(len(pivot_cols) - 1, -1, -1):
        pc = pivot_cols[idx]
        pivot = reduced[idx][pc]
        reduced[idx] = [x / pivot for x in reduced[idx]]
        for i in range(idx):
            factor = reduced[i][pc]
            if factor:
                reduced[i] = [a - factor * b for a, b in zip(reduced[i], reduced[idx])]
    return reduced, len(pivot_cols), tuple(pivot_cols)


def normalize_vector(v: Sequence[int]) -> IntVector:
    """Scale ints to content 1 and positive leading entry (zeros stay 0)."""
    g = gcd(*v)
    if not g:
        return tuple(v)
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(x // g for x in v)


def moment_kernel(points: Sequence[tuple[int, int]], degrees: Sequence[int]) -> list[list[IntVector]]:
    """RREF kernel bases of c |-> sum_i c_i (a_i x + b_i y)^d in closed form,
    one basis for each degree d in ``degrees``, in order.

    The points (a_i, b_i) must be ints, else InvalidInputError, and nonzero and
    pairwise non-proportional, else DegenerateNodesError.  Degree -1 imposes no
    constraint (identity basis).  Each vector is ints of content 1 with a
    positive leading entry, so scaling every point by one nonzero int, which
    scales every bracket product of a degree by one positive constant, leaves
    the basis unchanged.  The brackets are tabled once for all the degrees; the
    formula and why it is the RREF basis are in the module docstring.
    """
    if any(degree < -1 for degree in degrees):
        raise StructuralError("degree must be at least -1")
    if not all(isinstance(c, int) for point in points for c in point):
        raise InvalidInputError(f"expected int points, got {points!r}")
    # col[i][j] = [P_j, P_i]; a column has its zero on the diagonal, and others only if degenerate
    col = [[aj * bi - bj * ai for aj, bj in points] for ai, bi in points]
    n = len(points)
    if sum(c.count(0) for c in col) != n or not all(map(any, points)):
        for i, ((ai, bi), c) in enumerate(zip(points, col)):
            if not (ai or bi):
                raise DegenerateNodesError(f"point {i} is zero")
            if (j := c.index(0)) < i:
                raise DegenerateNodesError(f"points {j} and {i} are proportional")
    bases: list[list[IntVector]] = []
    for degree in degrees:
        k = min(degree + 1, n)  # the pivots are 0..k-1
        # shared by every f: column i's brackets over the pivots but i
        pivot_prods = [prod(c[:i]) * prod(c[i + 1 : k]) for i, c in enumerate(col[:k])]
        basis: list[IntVector] = []
        for f in range(k, n):
            prods = [*(p * c[f] for p, c in zip(pivot_prods, col)), prod(col[f][:k])]
            # M / prod_i has content 1: gcd_i(M / |prod_i|) = M / lcm_i |prod_i| = 1
            m = lcm(*prods) if prods[0] > 0 else -lcm(*prods)
            vec = [m // p for p in prods[:k]] + [0] * (n - k)
            vec[f] = m // prods[k]
            basis.append(tuple(vec))
        bases.append(basis)
    return bases


class VandermondeSystem(Record):
    """Moment constraints sum_i c_i h_i^d = 0 for 0 <= d <= p, one system for each p
    in ``max_powers``, on the same nodes, cleared once, when built, to ``cleared_nodes``."""

    nodes: tuple[Fraction | int, ...]
    max_powers: tuple[int, ...]

    def __post_init__(self):
        vars(self)["cleared_nodes"] = clear_denominators(self.nodes)


def vandermonde_nullspace(system: VandermondeSystem) -> list[list[IntVector]]:
    """Bases of moment annihilators, one per max power p in order; dimension
    n - p - 1 for distinct nodes."""
    n = len(system.nodes)
    den, ints = system.cleared_nodes  # D * (1, h_i) is (D, H_i)
    if len(set(ints)) < n:
        h = next(h for i, (h, x) in enumerate(zip(system.nodes, ints)) if x in ints[:i])
        raise DegenerateNodesError(f"repeated node {h}")
    for max_power in system.max_powers:
        if max_power > n - 1:
            raise StructuralError(f"max_power {max_power} exceeds n-1 = {n - 1}")
    return moment_kernel([(den, x) for x in ints], system.max_powers)


class WeightedMomentKernel(Record):
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
    hs = tuple(map(rational, nodes))
    ws = tuple(map(rational, weights))  # b / a stays exact for int kernel vectors b
    if len(hs) != len(ws):
        raise StructuralError("nodes and weights must have equal length")
    (raw,) = vandermonde_nullspace(VandermondeSystem(hs, (max_power,)))  # rejects repeated nodes first
    for i, a in enumerate(ws):
        if a == 0:
            raise InvalidInputError(f"weight {i} is zero")
    basis = tuple(tuple(b / a for b, a in zip(vec, ws)) for vec in raw)
    return WeightedMomentKernel(basis=basis)
