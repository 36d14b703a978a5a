"""Exact homogeneous polynomial arithmetic in two or three variables.

A form is its shape, the variable count and the degree, over its cleared
coefficients: a ``sympoly.Poly`` mapping packed monomial keys to nonzero
ints, over one positive ``den`` coprime to their content.  That pair is
canonical, so two forms are equal exactly when shapes, ``den`` and int maps
agree; a ``BinaryQuadratic`` is the one pair (den, (A, B, C)).  Arithmetic
runs on the ints through ``sympoly``, the package's one polynomial core, and
every consumer here reads the ints; ``terms`` and ``linear_coefficients``
build Fractions only when read.  A line's frame (kernel basis, transversal
point and substitution table) is one ``line_frame`` cache entry.  ``terms``
is keyed by exponent tuples, and all monomial indexing and text rendering
use graded lexicographic order on them with x0 > x1 > x2; packed keys
compare x2 first, so only the tuples are sorted.
"""

from __future__ import annotations

import re
from functools import lru_cache
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, gcd, lcm, prod
from typing import Mapping, Sequence

from . import sympoly
from .errors import DegenerateNodesError, InvalidInputError, StructuralError
from .linalg import (
    Cleared, IntVector, clear_denominators, cleared, format_rational, normalize_vector, rank, rational
)
from .record import Record

Monomial = tuple[int, ...]
Point = Sequence[Fraction | int]
UNITS = tuple(1 << (sympoly.BITS * i) for i in range(3))  # the packed keys of x0, x1, x2
_QUADRATIC_KEYS = tuple(2 - k + (k << sympoly.BITS) for k in range(3))  # y0^2, y0*y1, y1^2
_CONIC_INDEX = {UNITS[i] + UNITS[j]: (i, j) for i in range(3) for j in range(i, 3)}


class HomogeneousForm(Record):
    """Homogeneous polynomial with exact rational coefficients, held as the
    ints ``poly`` over the positive ``den`` coprime to their content.

    The constructor takes ``poly`` (kept unless reduced) mapping packed
    monomials of the shape to nonzero ints over a nonzero ``den``, unchecked,
    and makes the pair canonical; ``from_terms`` checks a term map first.
    Instances are immutable values; every operation returns a new form.
    """

    num_vars: int
    degree: int
    den: int
    poly: sympoly.Poly

    def __post_init__(self):
        g = gcd(self.den, *self.poly.values())
        if self.den < 0:
            g = -g
        if g != 1:
            vars(self).update(den=self.den // g, poly={t: c // g for t, c in self.poly.items()})

    @classmethod
    def from_terms(
        cls, num_vars: int, degree: int, terms: Mapping[Monomial, Fraction | int]
    ) -> "HomogeneousForm":
        """The form of a term map keyed by exponent tuples, each checked against the shape."""
        if num_vars not in (2, 3):
            raise StructuralError(f"num_vars must be 2 or 3, got {num_vars}")
        if degree < 0:
            raise StructuralError(f"degree must be non-negative, got {degree}")
        exact: dict[int, Fraction] = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != num_vars:
                raise StructuralError(f"bad monomial {mono} for {num_vars} variables")
            if sum(mono) != degree:
                raise StructuralError(f"monomial {mono} does not have degree {degree}")
            # rejects a negative exponent, and one too large for its packed field
            key = sympoly.monomial(mono)
            c = rational(coeff)
            if c:
                exact[key] = c
        den, nums = clear_denominators(exact.values())
        return cls(num_vars, degree, den, dict(zip(exact, nums)))

    # construction helpers

    @classmethod
    def zero(cls, num_vars: int, degree: int) -> "HomogeneousForm":
        return cls.from_terms(num_vars, degree, {})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "HomogeneousForm":
        if not 0 <= index < num_vars:
            raise StructuralError(f"variable index {index} out of range")
        return cls.linear([int(i == index) for i in range(num_vars)])

    @classmethod
    def linear(cls, coeffs: Point) -> "HomogeneousForm":
        if len(coeffs) not in (2, 3):
            raise StructuralError(f"num_vars must be 2 or 3, got {len(coeffs)}")
        den, nums = clear_denominators(coeffs)
        return cls(len(coeffs), 1, den, {u: c for u, c in zip(UNITS, nums) if c})

    # basic accessors

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The term map keyed by exponent tuples, as a fresh dict of Fractions."""
        return {sympoly.exponents(t, self.num_vars): Fraction(c, self.den) for t, c in self.poly.items()}

    def is_zero(self) -> bool:
        return not self.poly

    def linear_coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.linear_ints())

    def linear_ints(self) -> IntVector:
        """The coefficients of a linear form times ``den``, zeros included."""
        if self.degree != 1:
            raise StructuralError("linear coefficients require a degree-1 form")
        return tuple(map(self.poly.get, UNITS[: self.num_vars], (0, 0, 0)))

    # arithmetic, all of it in sympoly on the ints

    def _check_compatible(self, other: "HomogeneousForm", same_degree: bool) -> None:
        if not isinstance(other, HomogeneousForm):
            raise InvalidInputError(f"expected a HomogeneousForm, got {other!r}")
        if self.num_vars != other.num_vars:
            raise StructuralError("variable counts differ")
        if same_degree and self.degree != other.degree:
            raise StructuralError("degrees differ")

    def __add__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        self._check_compatible(other, same_degree=True)
        den = lcm(self.den, other.den)
        poly = sympoly.add(
            sympoly.scale(self.poly, den // self.den), sympoly.scale(other.poly, den // other.den)
        )
        return HomogeneousForm(self.num_vars, self.degree, den, poly)

    def __neg__(self) -> "HomogeneousForm":
        return HomogeneousForm(self.num_vars, self.degree, self.den, sympoly.scale(self.poly, -1))

    def __sub__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        return -(-self + other)  # __add__ checks other before anything negates it

    def __mul__(self, other: "HomogeneousForm | Fraction | int") -> "HomogeneousForm":
        if isinstance(other, (Fraction, int)):
            poly, den = sympoly.scale(self.poly, other.numerator), self.den * other.denominator
            return HomogeneousForm(self.num_vars, self.degree, den, poly)
        if not isinstance(other, HomogeneousForm):
            raise InvalidInputError(f"expected an int or a Fraction, got {other!r}")
        self._check_compatible(other, same_degree=False)
        poly, den = sympoly.mul(self.poly, other.poly), self.den * other.den
        return HomogeneousForm(self.num_vars, self.degree + other.degree, den, poly)

    def __rmul__(self, other: "Fraction | int") -> "HomogeneousForm":
        return self * other

    def __pow__(self, exponent: int) -> "HomogeneousForm":
        """The ints times themselves, ``exponent - 1`` ``sympoly.mul`` calls (1 for 0), over den**exponent."""
        if not isinstance(exponent, int):
            raise InvalidInputError(f"expected an int exponent, got {exponent!r}")
        if exponent < 0:
            raise StructuralError(f"negative exponent {exponent}")
        power = dict(self.poly) if exponent else {0: 1}
        for _ in range(exponent - 1):
            power = sympoly.mul(power, self.poly)
        return HomogeneousForm(self.num_vars, self.degree * exponent, self.den**exponent, power)

    def __hash__(self) -> int:
        return hash((self.num_vars, self.degree, self.den, frozenset(self.poly.items())))

    def __repr__(self) -> str:
        return f"HomogeneousForm.from_terms({self.num_vars}, {self.degree}, {self.terms!r})"

    def __str__(self) -> str:
        return render_form(self)


FormTuple = tuple[HomogeneousForm, ...]  # power_kernel's input, checked there; FormTuple(forms) builds one


def cleared_rows(forms: Sequence[HomogeneousForm]) -> tuple[int, tuple[IntVector, ...]]:
    """The common denominator D of linear forms and their coefficient rows
    times D; a form of another degree raises StructuralError."""
    den = lcm(*[f.den for f in forms])
    return den, tuple([tuple([c * (den // f.den) for c in f.linear_ints()]) for f in forms])


@lru_cache(maxsize=8)
def _monomial_table(num_vars: int, degree: int) -> tuple[tuple[Monomial, int, int], ...]:
    """(exponents of x0, x1, x2, packed key, multinomial coefficient) of every
    monomial of the shape; a binary monomial has x2's exponent 0."""
    combos = combinations_with_replacement(range(num_vars), degree)
    monos = [tuple(combo.count(j) for j in range(3)) for combo in combos]
    return tuple((m, sympoly.monomial(m), factorial(degree) // prod(map(factorial, m))) for m in monos)


def power_sum(weights: Cleared, rows: tuple[int, Sequence[IntVector]], exponent: int) -> HomogeneousForm:
    """sum_i w_i * l_i**exponent for linear forms l_i, as weighted moments.

    With the weights cleared to the pair (E, W), w_i = W_i / E, and the forms to
    their ``cleared_rows`` (D, rows), D * l_i = (c_i0, c_i1, ...), the coefficient of x**m is
    multinomial(exponent; m) * sum_i W_i * prod_j c_ij**m_j / (E * D**exponent).
    Each term adds its products of coefficient powers to every moment in one
    pass over the monomials; a binary form is a ternary one free of x2.
    Raises StructuralError unless the rows are one or more, all of length 2 or all of 3, one weight each;
    InvalidInputError for a float or a Fraction in either pair.
    """
    ld, rows = rows
    if not 0 <= exponent <= sympoly.MAX_EXPONENT:
        raise StructuralError(f"a power sum needs a power in 0..{sympoly.MAX_EXPONENT}")
    wd, ws = weights
    lengths = {len(row) for row in rows}
    if lengths not in ({2}, {3}) or len(ws) != len(rows):
        raise StructuralError("a power sum needs one weight per row and rows all of length 2 or all of 3")
    (num_vars,) = lengths
    table = _monomial_table(num_vars, exponent)
    monos = [m for m, _, _ in table]
    moments = [0] * len(table)
    for w, (c0, c1, c2) in zip(ws, (row + (0, 0)[: 3 - len(row)] for row in rows)):
        p0, p1, p2 = [w], [1], [1]  # w * c0**k, c1**k and c2**k for k = 0..exponent
        for _ in range(exponent):
            p0.append(p0[-1] * c0)
            p1.append(p1[-1] * c1)
            p2.append(p2[-1] * c2)
        moments = [s + p0[a] * p1[b] * p2[c] for s, (a, b, c) in zip(moments, monos)]
    poly = {key: multinomial * s for (_, key, multinomial), s in zip(table, moments) if s}
    try:  # the form's gcd takes ints only
        return HomogeneousForm(num_vars, exponent, wd * ld**exponent, poly)
    except TypeError:
        raise InvalidInputError(f"expected (den, ints) pairs, got {weights!r}, {(ld, rows)!r}") from None


def interpolate(
    points: Sequence[tuple[int, int]], values: Sequence[int], den: int = 1
) -> tuple[int, list[int]]:
    """Coefficients on y0^d, y0^(d-1)*y1, ..., y1^d of the binary form of degree
    d = len(points) - 1 taking ``values[k] / den`` at the integer ``points[k]``
    (pairwise independent, else DegenerateNodesError), for int values and den
    (else InvalidInputError): sum_k values[k] * prod_{m != k} [P_m, y] /
    [P_m, P_k] / den, with [P, y] = a*y1 - b*y0 for P = (a, b), summed on
    integers.  It returns one denominator, the lcm of the bracket products,
    times den, and the ints over it.  The certificate builder's witnesses are
    its one use; ``restrict`` expands by substitution."""
    if len(values) != len(points):
        raise StructuralError(f"expected {len(points)} values, one per point, got {len(values)}")
    if not all(isinstance(x, int) for x in (den, *values, *(c for point in points for c in point))):
        raise InvalidInputError(f"expected int points, values and den, got {points!r}, {values!r}, {den!r}")
    dens, terms = [], []
    for k, (ak, bk) in enumerate(points):
        term, dk = [1], 1
        for m, (am, bm) in enumerate(points):
            if m != k:
                # multiply by [P_m, y]; index e holds the y1^e coefficient
                term = [-bm * x + am * y for x, y in zip([*term, 0], [0, *term])]
                dk *= am * bk - bm * ak
        dens.append(dk)
        terms.append(term)
    if 0 in dens:
        raise DegenerateNodesError("interpolation points must be pairwise independent")
    common = lcm(*dens)
    nums = [v * (common // dk) for v, dk in zip(values, dens)]
    return common * den, [sum(n * t[e] for n, t in zip(nums, terms)) for e in range(len(points))]


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
    items = sorted(f.terms.items(), reverse=True)
    if not items:
        return "0"
    pieces = []
    for idx, (mono, coeff) in enumerate(items):
        sign = "-" if coeff < 0 else "+"
        mag = -coeff if coeff < 0 else coeff
        mono_str = _render_monomial(mono)
        if not mono_str:
            body = format_rational(mag)
        elif mag == 1:
            body = mono_str
        else:
            body = f"{format_rational(mag)}*{mono_str}"
        if idx == 0:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


# [0-9], not \d: \d, int and Fraction also accept the other Unicode digits
_TERM_RE = re.compile(
    r"^(?:(?P<coeff>[0-9]+(?:/[0-9]+)?)(?:\*(?P<tail>.*))?|(?P<mono>x[0-9]+.*))$"
)
_FACTOR_RE = re.compile(r"^x(?P<idx>[0-9]+)(?:\^(?P<exp>[0-9]+))?$")


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
    return HomogeneousForm.from_terms(num_vars, seen_degree, terms)


def content_normalize(f: HomogeneousForm) -> tuple[Fraction, HomogeneousForm]:
    """Write f as factor * primitive with integer content-1 primitive part.

    The factor carries the sign of the graded-lex leading coefficient, so the
    primitive part has positive leading coefficient.
    """
    if f.is_zero():
        return Fraction(1), f
    lead = max(f.poly, key=lambda t: sympoly.exponents(t, f.num_vars))
    g = gcd(*f.poly.values())
    if f.poly[lead] < 0:
        g = -g
    primitive = HomogeneousForm(f.num_vars, f.degree, 1, {t: c // g for t, c in f.poly.items()})
    return Fraction(g, f.den), primitive


# division by a linear form


def divide_by_linear(f: HomogeneousForm, line: HomogeneousForm) -> tuple[HomogeneousForm, HomogeneousForm]:
    """Exact division f = line * quotient + remainder.

    The remainder is free of the leading variable of ``line`` (graded-lex),
    so it vanishes exactly when ``line`` divides f.  Pseudo-division on the
    ints: scaling f's ints by p**degree, p the line's int pivot coefficient
    (not at all for p = 1), makes every division by p exact; the packed keys
    are divided by descending exponent of the pivot variable.
    """
    if line.degree != 1 or line.num_vars != f.num_vars:
        raise StructuralError("divisor must be a linear form in the same variables")
    if line.is_zero():
        raise InvalidInputError("division by the zero form")
    if f.degree < 1:
        raise StructuralError("dividend degree must be at least 1")
    coeffs = line.linear_ints()
    pivot = next(i for i, c in enumerate(coeffs) if c)
    lp = coeffs[pivot]
    shift = sympoly.BITS * pivot
    unit = 1 << shift
    others = [(u, c) for i, (u, c) in enumerate(zip(UNITS, coeffs)) if c and i != pivot]
    scale = lp**f.degree
    work = sympoly.scale(f.poly, scale) if scale != 1 else dict(f.poly)
    quot: sympoly.Poly = {}
    for e in range(f.degree, 0, -1):
        for key in [k for k in work if (k >> shift) & sympoly.FIELD == e]:
            base = key - unit
            factor = quot[base] = work.pop(key) // lp
            for unit_i, ci in others:
                m2 = base + unit_i
                acc = work[m2] = work.get(m2, 0) - factor * ci
                if not acc:
                    del work[m2]
    # f = (line.den * line) * quotient + remainder over f.den * scale
    den, quot = f.den * scale, quot if line.den == 1 else sympoly.scale(quot, line.den)
    return (
        HomogeneousForm(f.num_vars, f.degree - 1, den, quot),
        HomogeneousForm(f.num_vars, f.degree, den, work),
    )


# restriction to the kernel of a line


@lru_cache(maxsize=16)  # a line's frame is computed once, keyed by its shape, den and ints
def line_frame(line: HomogeneousForm) -> tuple[tuple[int, tuple[IntVector, IntVector]], Cleared, dict]:
    """A deterministic basis of the plane where ``line`` vanishes, as its least positive
    denominator D and the int vectors D * b0, D * b1; the canonical pair of the transversal
    point e_j / c_j, where ``line`` is 1; and the substitution table that ``restrict`` fills,
    x**m to the ints of (y0 * D * b0 + y1 * D * b1)**m.  With j the largest index of a nonzero
    coefficient c_j, the b_i are the other coordinate vectors corrected by -(c_i/c_j) e_j;
    for line = x2 the basis is (1, (e0, e1)): restriction is substitution x2 := 0."""
    if line.degree != 1 or line.num_vars != 3:
        raise StructuralError("expected a linear form in three variables")
    if line.is_zero():
        raise InvalidInputError("zero line has no kernel plane")
    coeffs = line.linear_ints()
    j = max(i for i, c in enumerate(coeffs) if c)
    # c_j * (e_i - (c_i/c_j) e_j) = c_j e_i - c_i e_j, all divided by the content
    bd, cs = cleared(coeffs[j], coeffs)
    b0, b1 = (tuple(bd * (k == i) - cs[i] * (k == j) for k in range(3)) for i in range(3) if i != j)
    return (bd, (b0, b1)), cleared(coeffs[j], tuple(line.den if i == j else 0 for i in range(3))), {}


def restrict(f: HomogeneousForm, line: HomogeneousForm) -> HomogeneousForm:
    """Restriction g(y) = f(y0 * b0 + y1 * b1) of a three-variable form to the
    plane ``line = 0`` with kernel basis b0, b1.  With the basis cleared to
    integer vectors D * b0 and D * b1 and f held as ints C_m over E, g is
    sum_m C_m * (y0 * D * b0 + y1 * D * b1)**m over E * D**d, each image read
    from the table in the line's frame and expanded there on its first use."""
    if f.num_vars != 3:
        raise StructuralError("expected a form in three variables")
    (den, basis), _, table = line_frame(line)
    d = f.degree
    g = [0] * (d + 1)
    for key, c in f.poly.items():
        if key not in table:  # one factor (u * y0 + v * y1) per unit of each exponent
            image, m = [1], key
            for u, v in zip(*basis):
                for _ in range(m & sympoly.FIELD):
                    image = [u * x + v * y for x, y in zip([*image, 0], [0, *image])]
                m >>= sympoly.BITS
            table[key] = tuple(image)
        g = [s + c * x for s, x in zip(g, table[key])]
    poly = {(d - k) + (k << sympoly.BITS): c for k, c in enumerate(g) if c}
    return HomogeneousForm(2, d, f.den * den**d, poly)


def _plane_point(point: Point) -> tuple[Fraction, Fraction]:
    if len(point) != 2:
        raise StructuralError(f"expected a point of two coordinates, got {point!r}")
    return rational(point[0]), rational(point[1])


def embed_in_plane(line: HomogeneousForm, point: Point) -> tuple[Fraction, ...]:
    """Lift a point given in kernel-plane coordinates back to 3-space."""
    (den, (b0, b1)), _, _ = line_frame(line)
    t0, t1 = _plane_point(point)
    return tuple((t0 * a + t1 * b) / den for a, b in zip(b0, b1))


# conics and tangency


def conic_rank(q: HomogeneousForm) -> int:
    """Rank of the symmetric matrix of a three-variable quadratic.

    The matrix is taken doubled, 2*q_ii on the diagonal and q_ij off it, so it
    has no halves, and on the form's ints, so its rank is read by
    ``linalg.rank`` on integers; scaling does not change it.
    """
    if q.num_vars != 3 or q.degree != 2:
        raise StructuralError("expected a quadratic form in three variables")
    rows = [[0] * 3 for _ in range(3)]
    for key, c in q.poly.items():
        i, j = _CONIC_INDEX[key]  # the monomial's two variable indices, equal for a square
        rows[i][j] += c
        rows[j][i] += c
    return rank(rows)


class BinaryQuadratic(Record):
    """Quadratic (A*y0^2 + B*y0*y1 + C*y1^2) / den on the kernel plane of a
    line, held as the canonical pair ``cleared`` = (den, (A, B, C)); given any
    nonzero den, it is made canonical, and every method reads its ints."""

    cleared: Cleared

    def __post_init__(self):
        if not (isinstance(self.cleared, (tuple, list)) and len(self.cleared) == 2):
            raise StructuralError(f"expected a (den, ints) pair, got {self.cleared!r}")
        vars(self)["cleared"] = cleared(*self.cleared)
        if len(self.cleared[1]) != 3:
            raise StructuralError(f"expected three coefficients, got {self.cleared[1]!r}")

    @classmethod
    def from_form(cls, q: HomogeneousForm) -> "BinaryQuadratic":
        if q.num_vars != 2 or q.degree != 2:
            raise StructuralError("expected a binary quadratic form")
        return cls((q.den, tuple(q.poly.get(key, 0) for key in _QUADRATIC_KEYS)))

    def to_form(self) -> HomogeneousForm:
        den, ints = self.cleared
        return HomogeneousForm(2, 2, den, {key: c for key, c in zip(_QUADRATIC_KEYS, ints) if c})

    def discriminant(self) -> Fraction:
        den, (a, b, c) = self.cleared
        return Fraction(b * b - 4 * a * c, den * den)

    def polar(self, w: Point, u: Point) -> Fraction:
        den, (a, b, c) = self.cleared
        (w0, w1), (u0, u1) = _plane_point(w), _plane_point(u)
        return (2 * a * w0 * u0 + b * (w0 * u1 + w1 * u0) + 2 * c * w1 * u1) / (2 * den)

    def tangency(self) -> tuple[bool, IntVector | None]:
        """The tangency rule on a restricted conic: the flag is true exactly
        when the quadratic is zero or a square, and the point is the projective
        kernel of its polarization (None for the zero quadratic and for a
        nonsquare).  Both are decided on the ints a, b, c of ``cleared``."""
        _, (a, b, c) = self.cleared
        if not (a or b or c):
            return True, None
        if b * b != 4 * a * c:
            return False, None
        # discriminant 0 with a = 0 forces b = 0, leaving c*y1^2
        return True, normalize_vector((b, -2 * a) if a else (1, 0))
