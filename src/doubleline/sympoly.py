"""Sparse multivariate polynomials over the rationals for symbolic zero tests.

A polynomial is a dict mapping exponent tuples to nonzero Fractions; the
zero polynomial is the empty dict.  This deliberately tiny representation is
what the engine's symbolic identity checks expand into: the question there
is always "is this polynomial identically zero", decided by exact expansion
and cancellation.
"""

from __future__ import annotations

from fractions import Fraction

Term = tuple[int, ...]
Poly = dict[Term, Fraction]


def const(nvars: int, value: Fraction | int) -> Poly:
    c = Fraction(value)
    return {(0,) * nvars: c} if c else {}


def variable(nvars: int, index: int) -> Poly:
    exp = [0] * nvars
    exp[index] = 1
    return {tuple(exp): Fraction(1)}


def add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for term, c in q.items():
        acc = out.get(term, Fraction(0)) + c
        if acc:
            out[term] = acc
        else:
            out.pop(term, None)
    return out


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, {t: -c for t, c in q.items()})


def scale(p: Poly, value: Fraction | int) -> Poly:
    c = Fraction(value)
    if not c:
        return {}
    return {t: c * v for t, v in p.items()}


def mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for t1, c1 in p.items():
        for t2, c2 in q.items():
            term = tuple(a + b for a, b in zip(t1, t2))
            acc = out.get(term, Fraction(0)) + c1 * c2
            if acc:
                out[term] = acc
            else:
                out.pop(term, None)
    return out


def power(p: Poly, exponent: int) -> Poly:
    if not p:
        return {} if exponent else const(0, 1)
    nvars = len(next(iter(p)))
    out = const(nvars, 1)
    for _ in range(exponent):
        out = mul(out, p)
    return out


def linear_combination(coeffs, polys) -> Poly:
    out: Poly = {}
    for c, p in zip(coeffs, polys):
        out = add(out, scale(p, c))
    return out


def is_zero(p: Poly) -> bool:
    return not p

