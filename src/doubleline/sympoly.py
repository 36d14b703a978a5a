"""Sparse multivariate polynomials with exact coefficients: the package's one core.

A polynomial is a dict mapping packed monomials to nonzero coefficients; the
zero polynomial is the empty dict.  ``forms.HomogeneousForm`` is a shape
(variable count and degree) over one of these dicts, and the engine's
symbolic identity checks expand into them directly; there the question is
always "is this polynomial identically zero", decided by exact expansion
and cancellation.

A monomial is one nonnegative int: variable i owns bits
``BITS*i .. BITS*i + BITS - 1`` and holds its exponent there, so the product
of two monomials is the sum of their keys and the constant monomial is 0.
The top bit of each field is a guard bit: exponents stay below
``2**(BITS - 1)``, so the sum of two valid keys never carries into the next
field, and ``mul`` rejects any result whose guard bit is set.  At most
``MAX_VARS`` variables exist.  Coefficients are ints or Fractions, mixed
freely; arithmetic is exact, and on int inputs every coefficient stays an
int, which is much cheaper than Fraction arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Collection

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
    """The packed key of an exponent tuple; each exponent must be in 0..MAX_EXPONENT."""
    for e in mono:
        if not 0 <= e <= MAX_EXPONENT:
            raise StructuralError(f"exponent {e} outside 0..{MAX_EXPONENT}")
    return sum(e << (BITS * i) for i, e in enumerate(mono))


def exponents(term: Term, nvars: int) -> tuple[int, ...]:
    """The exponent tuple of a packed key, for its first ``nvars`` variables."""
    return tuple((term >> (BITS * i)) & FIELD for i in range(nvars))


def clear_denominators(values: Collection[Coefficient]) -> tuple[int, list[int]]:
    """The lcm D of the denominators of ``values``, and the integers D * value."""
    den = lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


def const(nvars: int, value: Coefficient) -> Poly:
    return {0: value} if value else {}


def variable(nvars: int, index: int) -> Poly:
    if not 0 <= index < min(nvars, MAX_VARS):
        raise StructuralError(f"variable {index} outside 0..{min(nvars, MAX_VARS) - 1}")
    return {1 << (BITS * index): 1}


def add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for term, c in q.items():
        acc = out.get(term, 0) + c
        if acc:
            out[term] = acc
        else:
            out.pop(term, None)
    return out


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, {t: -c for t, c in q.items()})


def scale(p: Poly, value: Coefficient) -> Poly:
    if not value:
        return {}
    return {t: value * v for t, v in p.items()}


def mul(p: Poly, q: Poly) -> Poly:
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


def power(p: Poly, exponent: int) -> Poly:
    """p**exponent in a new dict: a copy of p times p, exponent - 1 times (1 for 0)."""
    if exponent < 0:
        raise StructuralError(f"negative exponent {exponent}")
    out = dict(p) if exponent else const(0, 1)
    for _ in range(exponent - 1):
        out = mul(out, p)
    return out


def linear_combination(coeffs, polys) -> Poly:
    out: Poly = {}
    for c, p in zip(coeffs, polys):
        out = add(out, scale(p, c))
    return out


def is_zero(p: Poly) -> bool:
    return not p
