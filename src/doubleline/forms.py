"""Exact homogeneous polynomial arithmetic in two or three variables.

A form is its shape, the variable count and the degree, over a
``sympoly.Poly``: packed monomial keys mapping to nonzero Fractions.  All
arithmetic runs through ``sympoly``, the package's one polynomial core; this
module adds the shape checks and the degree bookkeeping.  Two forms are
equal exactly when their shapes and term maps agree.  ``terms`` shows the
same map keyed by exponent tuples, and all monomial indexing, matrix layouts
and text rendering use graded lexicographic order on those tuples with
x0 > x1 > x2; packed keys compare x2 first, so only the tuples are sorted.
Evaluation, division and restriction work on the packed keys; evaluation and
restriction, which interpolates values at integer points, sum on integers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Mapping, Sequence

from . import sympoly
from .errors import InvalidInputError, StructuralError
from .linalg import normalize_vector, rank

Monomial = tuple[int, ...]
Point = Sequence[Fraction | int]


class HomogeneousForm:
    """Homogeneous polynomial with exact rational coefficients.

    Instances are immutable values; every operation returns a new form.
    """

    __slots__ = ("num_vars", "degree", "poly")

    def __init__(self, num_vars: int, degree: int, terms: Mapping[Monomial, Fraction | int]):
        if num_vars not in (2, 3):
            raise StructuralError(f"num_vars must be 2 or 3, got {num_vars}")
        if degree < 0:
            raise StructuralError(f"degree must be non-negative, got {degree}")
        poly: sympoly.Poly = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != num_vars:
                raise StructuralError(f"bad monomial {mono} for {num_vars} variables")
            if sum(mono) != degree:
                raise StructuralError(f"monomial {mono} does not have degree {degree}")
            # rejects a negative exponent, and one too large for its packed field
            key = sympoly.monomial(mono)
            c = Fraction(coeff)
            if c:
                poly[key] = c
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "poly", poly)

    @classmethod
    def _trusted(cls, num_vars: int, degree: int, poly: sympoly.Poly) -> "HomogeneousForm":
        """Unchecked constructor: ``poly`` (kept, not copied) must map packed
        monomials of the given shape to nonzero Fractions."""
        form = object.__new__(cls)
        object.__setattr__(form, "num_vars", num_vars)
        object.__setattr__(form, "degree", degree)
        object.__setattr__(form, "poly", poly)
        return form

    def __setattr__(self, name, value):
        raise AttributeError("HomogeneousForm is immutable")

    # construction helpers

    @classmethod
    def zero(cls, num_vars: int, degree: int) -> "HomogeneousForm":
        return cls(num_vars, degree, {})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "HomogeneousForm":
        if not 0 <= index < num_vars:
            raise StructuralError(f"variable index {index} out of range")
        return cls.linear([int(i == index) for i in range(num_vars)])

    @classmethod
    def linear(cls, coeffs: Point) -> "HomogeneousForm":
        if len(coeffs) not in (2, 3):
            raise StructuralError(f"num_vars must be 2 or 3, got {len(coeffs)}")
        poly = {1 << (sympoly.BITS * i): c for i, c in enumerate(map(Fraction, coeffs)) if c}
        return cls._trusted(len(coeffs), 1, poly)

    # basic accessors

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The term map keyed by exponent tuples, as a fresh dict."""
        return {sympoly.exponents(t, self.num_vars): c for t, c in self.poly.items()}

    def is_zero(self) -> bool:
        return not self.poly

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.poly.get(sympoly.monomial(tuple(mono)), Fraction(0))

    def linear_coefficients(self) -> tuple[Fraction, ...]:
        if self.degree != 1:
            raise StructuralError("linear_coefficients requires a degree-1 form")
        zero = Fraction(0)
        return tuple(self.poly.get(1 << (sympoly.BITS * i), zero) for i in range(self.num_vars))

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    # arithmetic, all of it in sympoly

    def _check_compatible(self, other: "HomogeneousForm", same_degree: bool) -> None:
        if self.num_vars != other.num_vars:
            raise StructuralError("variable counts differ")
        if same_degree and self.degree != other.degree:
            raise StructuralError("degrees differ")

    def __add__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        self._check_compatible(other, same_degree=True)
        return HomogeneousForm._trusted(
            self.num_vars, self.degree, sympoly.add(self.poly, other.poly)
        )

    def __neg__(self) -> "HomogeneousForm":
        return HomogeneousForm._trusted(self.num_vars, self.degree, sympoly.scale(self.poly, -1))

    def __sub__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        self._check_compatible(other, same_degree=True)
        return HomogeneousForm._trusted(
            self.num_vars, self.degree, sympoly.sub(self.poly, other.poly)
        )

    def __mul__(self, other: "HomogeneousForm | Fraction | int") -> "HomogeneousForm":
        if isinstance(other, (Fraction, int)):
            return HomogeneousForm._trusted(
                self.num_vars, self.degree, sympoly.scale(self.poly, Fraction(other))
            )
        self._check_compatible(other, same_degree=False)
        return HomogeneousForm._trusted(
            self.num_vars, self.degree + other.degree, sympoly.mul(self.poly, other.poly)
        )

    def __rmul__(self, other: "Fraction | int") -> "HomogeneousForm":
        return self * other

    def __pow__(self, exponent: int) -> "HomogeneousForm":
        return power_sum((1,), FormTuple((self,)), exponent)

    def evaluate(self, point: Point) -> Fraction:
        """The value at ``point``, on integers: with the point cleared to N / Q
        and the coefficients to C / D, it is sum_t C_t * N**t / (D * Q**degree)."""
        if len(point) != self.num_vars:
            raise StructuralError("point length does not match variable count")
        q, nums = sympoly.clear_denominators([Fraction(x) for x in point])
        d, coeffs = sympoly.clear_denominators(self.poly.values())
        total = 0
        for key, c in zip(self.poly, coeffs):
            for n in nums:
                c *= n ** (key & sympoly.FIELD)
                key >>= sympoly.BITS
            total += c
        return Fraction(total, d * q**self.degree)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomogeneousForm):
            return NotImplemented
        return (
            self.num_vars == other.num_vars
            and self.degree == other.degree
            and self.poly == other.poly
        )

    def __hash__(self) -> int:
        return hash((self.num_vars, self.degree, frozenset(self.poly.items())))

    def __repr__(self) -> str:
        return f"HomogeneousForm({self.num_vars}, {self.degree}, {self.terms!r})"

    def __str__(self) -> str:
        return render_form(self)


@dataclass(frozen=True)
class FormTuple:
    """Nonempty tuple of forms of one shared shape, such as the seven lines
    restricted to a base line; ``power_sum`` sums their weighted powers."""

    entries: tuple[HomogeneousForm, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise StructuralError("empty form tuple")
        n, d = self.entries[0].num_vars, self.entries[0].degree
        for f in self.entries:
            if f.num_vars != n or f.degree != d:
                raise StructuralError("tuple entries must share variable count and degree")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[HomogeneousForm]:
        return iter(self.entries)

    @property
    def num_vars(self) -> int:
        return self.entries[0].num_vars

    @property
    def degree(self) -> int:
        return self.entries[0].degree


def power_sum(weights: Sequence[Fraction | int], forms: FormTuple, exponent: int) -> HomogeneousForm:
    """sum_i weights[i] * forms[i]**exponent, on integers: each form is cleared
    once to D_i * f_i and raised by ``sympoly.power``, the weights w_i / D_i**exponent
    are brought to one common denominator E, and the sum is scaled by 1 / E once."""
    if exponent < 0:
        raise StructuralError("negative power of a form")
    if len(weights) != len(forms):
        raise StructuralError("a power sum needs one weight per form")
    powers, scales = [], []
    for w, f in zip(weights, forms):
        den, nums = sympoly.clear_denominators(f.poly.values())
        powers.append(sympoly.power(dict(zip(f.poly, nums)), exponent))
        scales.append(Fraction(w) / den**exponent)
    common, ints = sympoly.clear_denominators(scales)
    total = sympoly.scale(sympoly.linear_combination(ints, powers), Fraction(1, common))
    return HomogeneousForm._trusted(forms.num_vars, forms.degree * exponent, total)


def interpolate(points: Sequence[tuple[int, int]], values: Sequence[Fraction | int]) -> list[Fraction]:
    """Coefficients on y0^d, y0^(d-1)*y1, ..., y1^d of the binary form of degree
    d = len(points) - 1 taking ``values[k]`` at the integer ``points[k]``
    (pairwise independent): sum_k values[k] * prod_{m != k} [P_m, y] / [P_m, P_k],
    with [P, y] = a*y1 - b*y0 for P = (a, b), summed on integers over one
    denominator, the lcm of the values' denominators times their brackets."""
    dens, terms = [], []
    for k, (ak, bk) in enumerate(points):
        term = [1]
        den = values[k].denominator
        for m, (am, bm) in enumerate(points):
            if m != k:
                # multiply by [P_m, y]; index e holds the y1^e coefficient
                term = [-bm * x + am * y for x, y in zip([*term, 0], [0, *term])]
                den *= am * bk - bm * ak
        dens.append(den)
        terms.append(term)
    common = lcm(*dens)
    nums = [v.numerator * (common // den) for v, den in zip(values, dens)]
    return [Fraction(sum(n * t[e] for n, t in zip(nums, terms)), common) for e in range(len(points))]


# text rendering and parsing


def _render_monomial(mono: Monomial) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


def render_form(f: HomogeneousForm) -> str:
    """Terms in graded-lex order; coefficients as p or p/q."""
    items = f.sorted_terms()
    if not items:
        return "0"
    pieces = []
    for idx, (mono, coeff) in enumerate(items):
        sign = "-" if coeff < 0 else "+"
        mag = -coeff if coeff < 0 else coeff
        mono_str = _render_monomial(mono)
        if not mono_str:
            body = str(mag)
        elif mag == 1:
            body = mono_str
        else:
            body = f"{mag}*{mono_str}"
        if idx == 0:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


_TERM_RE = re.compile(
    r"^(?:(?P<coeff>\d+(?:/\d+)?)(?:\*(?P<tail>.*))?|(?P<mono>x\d+.*))$"
)
_FACTOR_RE = re.compile(r"^x(?P<idx>\d+)(?:\^(?P<exp>\d+))?$")


def parse_form(text: str, num_vars: int, degree: int | None = None) -> HomogeneousForm:
    """Parse the rendering grammar (arbitrary whitespace allowed)."""
    compact = "".join(text.split())
    if not compact:
        raise InvalidInputError("empty form text")
    if compact == "0":
        if degree is None:
            raise InvalidInputError("degree required to parse the zero form")
        return HomogeneousForm.zero(num_vars, degree)
    chunks = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(chunks) != compact:
        raise InvalidInputError(f"cannot tokenize {text!r}")
    terms: dict[Monomial, Fraction] = {}
    seen_degree = degree
    for chunk in chunks:
        sign = Fraction(1)
        if chunk[0] in "+-":
            if chunk[0] == "-":
                sign = Fraction(-1)
            chunk = chunk[1:]
        m = _TERM_RE.match(chunk)
        if not m:
            raise InvalidInputError(f"bad term {chunk!r}")
        coeff = Fraction(1)
        factors = ""
        if m.group("coeff") is not None:
            literal = m.group("coeff")
            if "/" in literal and int(literal.partition("/")[2]) == 0:
                raise InvalidInputError(f"zero denominator in {chunk!r}")
            coeff = Fraction(literal)
            factors = m.group("tail") or ""
        else:
            factors = m.group("mono")
        mono = [0] * num_vars
        if factors:
            for factor in factors.split("*"):
                fm = _FACTOR_RE.match(factor)
                if not fm:
                    raise InvalidInputError(f"bad factor {factor!r}")
                idx = int(fm.group("idx"))
                if idx >= num_vars:
                    raise InvalidInputError(f"variable x{idx} out of range")
                mono[idx] += int(fm.group("exp") or 1)
        total = sum(mono)
        if seen_degree is None:
            seen_degree = total
        elif total != seen_degree:
            raise InvalidInputError("terms of unequal degree")
        key = tuple(mono)
        terms[key] = terms.get(key, Fraction(0)) + sign * coeff
    return HomogeneousForm(num_vars, seen_degree, terms)


def content_normalize(f: HomogeneousForm) -> tuple[Fraction, HomogeneousForm]:
    """Write f as factor * primitive with integer content-1 primitive part.

    The factor carries the sign of the graded-lex leading coefficient, so the
    primitive part has positive leading coefficient.
    """
    if f.is_zero():
        return Fraction(1), f
    items = f.sorted_terms()
    vec = normalize_vector([c for _, c in items])
    factor = items[0][1] / vec[0]
    primitive = HomogeneousForm(
        f.num_vars, f.degree, {m: c for (m, _), c in zip(items, vec)}
    )
    return factor, primitive


# division by a linear form


def divide_by_linear(f: HomogeneousForm, line: HomogeneousForm) -> tuple[HomogeneousForm, HomogeneousForm]:
    """Exact division f = line * quotient + remainder.

    The remainder is free of the leading variable of ``line`` (graded-lex),
    so it vanishes exactly when ``line`` divides f.  The packed keys are
    divided by descending exponent of that variable, one exponent at a time.
    """
    if line.degree != 1 or line.num_vars != f.num_vars:
        raise StructuralError("divisor must be a linear form in the same variables")
    if line.is_zero():
        raise InvalidInputError("division by the zero form")
    if f.degree < 1:
        raise StructuralError("dividend degree must be at least 1")
    coeffs = line.linear_coefficients()
    pivot = next(i for i, c in enumerate(coeffs) if c != 0)
    shift = sympoly.BITS * pivot
    unit = 1 << shift
    others = [(1 << (sympoly.BITS * i), c) for i, c in enumerate(coeffs) if c and i != pivot]
    work = dict(f.poly)
    quot: sympoly.Poly = {}
    for e in range(f.degree, 0, -1):
        for key in [k for k in work if (k >> shift) & sympoly.FIELD == e]:
            base = key - unit
            factor = quot[base] = work.pop(key) / coeffs[pivot]
            for unit_i, ci in others:
                m2 = base + unit_i
                acc = work[m2] = work.get(m2, 0) - factor * ci
                if not acc:
                    del work[m2]
    return (
        HomogeneousForm._trusted(f.num_vars, f.degree - 1, quot),
        HomogeneousForm._trusted(f.num_vars, f.degree, work),
    )


# restriction to the kernel of a line


def line_kernel_basis(line: HomogeneousForm) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Deterministic basis of the plane where ``line`` vanishes.

    With j the largest index carrying a nonzero coefficient, the basis
    vectors are the remaining coordinate vectors corrected by -(c_i/c_j) e_j.
    For line = x2 this is (e0, e1), so restriction is substitution x2 := 0.
    """
    if line.degree != 1 or line.num_vars != 3:
        raise StructuralError("expected a linear form in three variables")
    coeffs = line.linear_coefficients()
    if all(c == 0 for c in coeffs):
        raise InvalidInputError("zero line has no kernel plane")
    j = max(i for i, c in enumerate(coeffs) if c != 0)
    others = [i for i in range(3) if i != j]
    basis = []
    for i in others:
        vec = [Fraction(0)] * 3
        vec[i] = Fraction(1)
        vec[j] = -coeffs[i] / coeffs[j]
        basis.append(tuple(vec))
    return basis[0], basis[1]


def restrict(f: HomogeneousForm, line: HomogeneousForm) -> HomogeneousForm:
    """Restriction g(y) = f(y0 * b0 + y1 * b1) of a three-variable form to the
    plane ``line = 0`` with kernel basis b0, b1.  With the basis cleared once to
    integer vectors D * b0 and D * b1, g is the interpolant of f's values there
    at the plane points (1, 0), (1, 1), ..., (1, d - 1), (0, 1), scaled by 1 / D**d."""
    b0, b1 = line_kernel_basis(line)
    den, flat = sympoly.clear_denominators([*b0, *b1])
    d = f.degree
    plane = [*((1, t) for t in range(d)), (0, 1)]
    values = [f.evaluate([s * u + t * v for u, v in zip(flat[:3], flat[3:])]) for s, t in plane]
    scale = Fraction(1, den**d)
    poly = {(d - e) + (e << sympoly.BITS): scale * c for e, c in enumerate(interpolate(plane, values)) if c}
    return HomogeneousForm._trusted(2, d, poly)


def embed_in_plane(line: HomogeneousForm, point: Point) -> tuple[Fraction, ...]:
    """Lift a point given in kernel-plane coordinates back to 3-space."""
    b0, b1 = line_kernel_basis(line)
    t0, t1 = (Fraction(x) for x in point)
    return tuple(t0 * a + t1 * b for a, b in zip(b0, b1))


# conics and tangency


def conic_rank(q: HomogeneousForm) -> int:
    """Rank of the symmetric matrix of a three-variable quadratic.

    The matrix is taken doubled, 2*q_ii on the diagonal and q_ij off it, so it
    has no halves, and cleared of the coefficients' common denominator, so its
    rank is read by ``linalg.rank`` on integers; scaling does not change it.
    """
    if q.num_vars != 3 or q.degree != 2:
        raise StructuralError("expected a quadratic form in three variables")
    rows = [[0] * 3 for _ in range(3)]
    for key, c in zip(q.poly, sympoly.clear_denominators(q.poly.values())[1]):
        # the two variable indices of the monomial; equal for a square
        i, j = (k for k, e in enumerate(sympoly.exponents(key, 3)) for _ in range(e))
        rows[i][j] += c
        rows[j][i] += c
    return rank(rows)


@dataclass(frozen=True)
class BinaryQuadratic:
    """Quadratic a*y0^2 + b*y0*y1 + c*y1^2 on the kernel plane of a line."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "c", Fraction(self.c))

    @classmethod
    def from_form(cls, q: HomogeneousForm) -> "BinaryQuadratic":
        if q.num_vars != 2 or q.degree != 2:
            raise StructuralError("expected a binary quadratic form")
        return cls(q.coefficient((2, 0)), q.coefficient((1, 1)), q.coefficient((0, 2)))

    def to_form(self) -> HomogeneousForm:
        return HomogeneousForm(2, 2, {(2, 0): self.a, (1, 1): self.b, (0, 2): self.c})

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0

    def discriminant(self) -> Fraction:
        return self.b * self.b - 4 * self.a * self.c

    def polar(self, w: Point, u: Point) -> Fraction:
        w0, w1 = (Fraction(x) for x in w)
        u0, u1 = (Fraction(x) for x in u)
        return self.a * w0 * u0 + self.b / 2 * (w0 * u1 + w1 * u0) + self.c * u1 * w1

    def polar_kernel_point(self) -> tuple[Fraction, Fraction] | None:
        """Projective kernel of the polarization, for a nonzero square quadratic."""
        if self.is_zero() or self.discriminant() != 0:
            return None
        if self.a != 0:
            w = (self.b, -2 * self.a)
        else:
            # discriminant 0 with a = 0 forces b = 0, leaving c*y1^2
            w = (Fraction(1), Fraction(0))
        return normalize_vector(w)  # type: ignore[return-value]

    def tangency(self) -> tuple[bool, tuple[Fraction, Fraction] | None]:
        """The tangency rule on a restricted conic: the flag is true exactly
        when the quadratic is zero or a square, and the point is its polar
        kernel point (None for the zero quadratic and for a nonsquare)."""
        return self.is_zero() or self.discriminant() == 0, self.polar_kernel_point()


def line_tangent_to_conic(
    line: HomogeneousForm, q: HomogeneousForm
) -> tuple[bool, tuple[Fraction, Fraction] | None]:
    """Tangency (possibly improper) of a line and a conic, with contact point.

    The flag is true exactly when the restriction of q to the line's kernel
    plane has vanishing discriminant; this covers degenerate conics and the
    case where the line divides q (restriction identically zero, no single
    contact point).  The point is given in kernel-plane coordinates.
    """
    if q.num_vars != 3 or q.degree != 2:
        raise StructuralError("expected a quadratic form in three variables")
    if line.is_zero():
        raise InvalidInputError("line must be nonzero")
    if q.is_zero():
        raise InvalidInputError("conic must be nonzero")
    return BinaryQuadratic.from_form(restrict(q, line)).tangency()
