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
field, and ``mul`` rejects any result whose guard bit is set.  At most
``MAX_VARS`` variables exist; ``monomial``, the one maker of keys, enforces
both bounds.  Coefficients are ints or Fractions, mixed freely; arithmetic
is exact, and on int inputs every coefficient stays an int, which is much
cheaper than Fraction arithmetic.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import lcm
from typing import Collection

from .errors import InvalidInputError, StructuralError

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


def rational(x: Coefficient) -> Fraction:
    """``x`` as a Fraction, a given Fraction itself; InvalidInputError for a
    float or any other value that is neither an int nor a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise InvalidInputError(f"expected an int or a Fraction, got {x!r}")


def clear_denominators(values: Collection[Coefficient]) -> tuple[int, list[int]]:
    """The lcm D of the denominators of ``values``, and the integers D * value
    (D = 1 for ints); InvalidInputError for a float or another non-rational."""
    if all(type(x) is int for x in values):
        return 1, list(values)
    try:
        den = lcm(*(x.denominator for x in values))
    except AttributeError:
        bad = next(x for x in values if not hasattr(x, "denominator"))
        raise InvalidInputError(f"expected an int or a Fraction, got {bad!r}") from None
    return den, [x.numerator * (den // x.denominator) for x in values]


def format_rational(x: Coefficient) -> str:
    """``p`` or ``p/q`` at any size: unlike an int's, a Decimal's str has no digit limit."""
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


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
    """p*q in a new dict.  A square (``q is p``) visits each unordered pair of
    terms once: c*c on the diagonal and 2*c1*c2 off it."""
    out: Poly = {}
    get = out.get
    if q is p:
        terms = list(p.items())
        for k, (t1, c1) in enumerate(terms):
            term = t1 + t1
            out[term] = get(term, 0) + c1 * c1
            c1 += c1  # each cross term t1 + t2 stands for two ordered pairs
            for t2, c2 in terms[k + 1 :]:
                term = t1 + t2
                out[term] = get(term, 0) + c1 * c2
    else:
        q_terms = list(q.items())
        for t1, c1 in p.items():
            for t2, c2 in q_terms:
                term = t1 + t2
                out[term] = get(term, 0) + c1 * c2
    if any(term & _GUARD for term in out):
        raise StructuralError(f"exponent above {MAX_EXPONENT} in a product")
    return {t: c for t, c in out.items() if c}


def power(p: Poly, exponent: int) -> Poly:
    """p**exponent in a new dict, by squaring from the top bit down (1 for 0)."""
    if exponent < 0:
        raise StructuralError(f"negative exponent {exponent}")
    out = dict(p) if exponent else {0: 1}
    for bit in bin(exponent)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, p)
    return out
