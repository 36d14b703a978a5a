"""Sparse multivariate polynomials with exact coefficients: the package's one core.

A polynomial is a dict mapping packed monomials to nonzero coefficients; the
zero polynomial is the empty dict.  ``forms.HomogeneousForm`` is a shape
(variable count and degree) over one of these with int coefficients and a
denominator; the engine's symbolic identity checks expand into them
directly, and there the question is always "is this polynomial identically
zero", decided by exact expansion and cancellation.

A monomial is one nonnegative int: variable i owns bits
``BITS*i .. BITS*i + BITS - 1`` and holds its exponent there, so the product
of two monomials is the sum of their keys and the constant monomial is 0.
The top bit of each field is a guard bit: exponents stay below
``2**(BITS - 1)``, so the sum of two valid keys never carries into the next
field, and every product (``mul``, ``square_and_cross``) rejects a result
whose guard bit is set.  At most ``MAX_VARS`` variables exist; ``monomial``,
the one maker of keys, enforces both bounds.  Coefficients are ints or
Fractions, mixed freely; arithmetic is exact, and on int inputs every
coefficient stays an int, which is much cheaper than Fraction arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import StructuralError

BITS = 16
MAX_VARS = 32
MAX_EXPONENT = (1 << (BITS - 1)) - 1
_GUARD = sum(1 << (BITS * i + BITS - 1) for i in range(MAX_VARS))
FIELD = (1 << BITS) - 1

Term = int
Coefficient = int | Fraction
Poly = dict[Term, Coefficient]


def monomial(mono: tuple[int, ...]) -> Term:
    """The packed key of an exponent tuple; StructuralError outside either bound."""
    for e in mono:
        if not 0 <= e <= MAX_EXPONENT:
            raise StructuralError(f"exponent {e} outside 0..{MAX_EXPONENT}")
    key = sum(e << (BITS * i) for i, e in enumerate(mono))
    if key >> (BITS * MAX_VARS):
        raise StructuralError(f"a variable beyond x{MAX_VARS - 1}")
    return key


def exponents(term: Term, nvars: int) -> tuple[int, ...]:
    """The exponent tuple of a packed key, for its first ``nvars`` variables."""
    return tuple((term >> (BITS * i)) & FIELD for i in range(nvars))


def add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for term, c in q.items():
        acc = out.get(term, 0) + c
        if acc:
            out[term] = acc
        else:
            out.pop(term, None)
    return out


def scale(p: Poly, value: Coefficient) -> Poly:
    if not value:
        return {}
    return {t: value * v for t, v in p.items()}


def mul(p: Poly, q: Poly) -> Poly:
    """p*q in a new dict, from every ordered pair of terms."""
    out: Poly = {}
    get = out.get
    q_terms = list(q.items())
    for t1, c1 in p.items():
        for t2, c2 in q_terms:
            term = t1 + t2
            out[term] = get(term, 0) + c1 * c2
    if any(term & _GUARD for term in out):
        raise StructuralError(f"exponent above {MAX_EXPONENT} in a product")
    return {t: c for t, c in out.items() if c}


def square_and_cross(p0: Poly, p1: Poly, p2: Poly) -> tuple[Poly, Poly]:
    """(p1 * p1, p0 * p2) in new dicts, from one walk over the unordered pairs
    of the three operands' joint support: with a_k, b_k the coefficients of
    p_k at two terms, the square gets 2*a1*b1 and the cross product
    a0*b2 + b0*a2 at a pair of distinct terms, a1*a1 and a0*a2 at a term
    paired with itself.  Both sums of a key share one [square, cross] cell,
    so a pair costs one lookup."""
    support = [(t, p0.get(t, 0), p1.get(t, 0), p2.get(t, 0)) for t in {**p0, **p1, **p2}]
    # a term paired with itself: distinct terms have distinct doubles, so each starts its own cell
    cells = {t + t: [a1 * a1, a0 * a2] for t, a0, a1, a2 in support}
    get = cells.get
    for k, (t1, a0, a1, a2) in enumerate(support):
        a1 += a1  # each cross term t1 + t2 of the square stands for two ordered pairs
        for t2, b0, b1, b2 in support[k + 1 :]:
            cell = get(term := t1 + t2)
            if cell is None:
                cells[term] = [a1 * b1, a0 * b2 + b0 * a2]
            else:
                cell[0] += a1 * b1
                cell[1] += a0 * b2 + b0 * a2
    if any(term & _GUARD for term in cells):
        raise StructuralError(f"exponent above {MAX_EXPONENT} in a product")
    return {t: s for t, (s, _) in cells.items() if s}, {t: c for t, (_, c) in cells.items() if c}
