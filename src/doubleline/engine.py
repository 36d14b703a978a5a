"""Power-sum decompositions of double-line quartics and their tangency theory.

A double-line quartic is a product (line)^2 * (conic).  This module builds
and verifies weighted power-sum representations

    sum_i weight_i * l_i^4  =  line^2 * conic,

studies the coordinate families solving the moment systems that produce
them, and constructs explicit certificates for the central geometric fact:
when seven terms meet the line in seven distinct points, the line is
(possibly improperly) tangent to the conic.  Everything is exact rational
arithmetic; no check in this module is numerical.

Coordinate instances fix the line x2 = 0 and lines of the shape
x0 + slope*x1 + lift*x2, which turns the divisibility constraints into
Vandermonde moment systems on the slopes.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import sympoly
from .errors import (
    DegenerateNodesError,
    GenerationFailureError,
    InvalidInputError,
    NotDoubleLineError,
    PreconditionError,
    StructuralError,
    TheoremViolationError,
)
from .forms import (
    BinaryQuadratic,
    FormTuple,
    HomogeneousForm,
    Point,
    conic_rank,
    divide_by_linear,
    interpolate,
    line_kernel_basis,
    power_sum,
    restrict,
)
from .linalg import (
    RationalMatrix,
    VandermondeSystem,
    moment_kernel,
    normalize_vector,
    rref,
    vandermonde_nullspace,
    weighted_moment_kernel,
)

Vector = tuple[Fraction, ...]


def line_x2() -> HomogeneousForm:
    """The coordinate line x2 = 0 used by all coordinate instances."""
    return HomogeneousForm.linear((0, 0, 1))


@dataclass(frozen=True)
class WaringDecomposition:
    """Weighted sum of fourth powers of linear forms in three variables."""

    terms: tuple[tuple[Fraction, HomogeneousForm], ...]

    def __post_init__(self):
        coerced = []
        for weight, form in self.terms:
            if form.num_vars != 3 or form.degree != 1:
                raise StructuralError("decomposition terms must be linear forms in three variables")
            coerced.append((Fraction(weight), form))
        object.__setattr__(self, "terms", tuple(coerced))

    @property
    def n(self) -> int:
        return len(self.terms)

    @property
    def is_pure(self) -> bool:
        return all(w == 1 for w, _ in self.terms)

    def weights(self) -> Vector:
        return tuple(w for w, _ in self.terms)

    def lines(self) -> tuple[HomogeneousForm, ...]:
        return tuple(f for _, f in self.terms)

    def value(self) -> HomogeneousForm:
        """The quartic sum_i weight_i * l_i^4, computed once per instance."""
        return self._value

    @cached_property
    def _value(self) -> HomogeneousForm:
        if not self.terms:
            return HomogeneousForm.zero(3, 4)
        return power_sum(self.weights(), FormTuple(self.lines()), 4)


@dataclass(frozen=True)
class CoordinateInstance:
    """Six or seven lines x0 + slope*x1 + lift*x2 with weights."""

    slopes: Vector
    lifts: Vector
    weights: Vector

    def __post_init__(self):
        for name in ("slopes", "lifts", "weights"):
            object.__setattr__(self, name, tuple(Fraction(v) for v in getattr(self, name)))
        n = len(self.slopes)
        if n not in (6, 7):
            raise StructuralError(f"coordinate instances have 6 or 7 terms, got {n}")
        if len(self.lifts) != n or len(self.weights) != n:
            raise StructuralError("slopes, lifts and weights must have equal length")

    @property
    def n(self) -> int:
        return len(self.slopes)

    def to_decomposition(self) -> WaringDecomposition:
        """The decomposition of this instance, built once so its value is shared."""
        return self._decomposition

    @cached_property
    def _decomposition(self) -> WaringDecomposition:
        return WaringDecomposition(
            tuple(
                (w, HomogeneousForm.linear((1, h, k)))
                for h, k, w in zip(self.slopes, self.lifts, self.weights)
            )
        )

    @classmethod
    def from_decomposition(cls, dec: WaringDecomposition) -> "CoordinateInstance":
        slopes, lifts, weights = [], [], []
        for w, form in dec.terms:
            c0, c1, c2 = form.linear_coefficients()
            if c0 != 1:
                raise InvalidInputError("coordinate form requires x0-coefficient 1 in every line")
            slopes.append(c1)
            lifts.append(c2)
            weights.append(w)
        return cls(tuple(slopes), tuple(lifts), tuple(weights))


@dataclass(frozen=True)
class DoubleLineQuartic:
    """A quartic together with its factorization line^2 * cofactor."""

    line: HomogeneousForm
    cofactor: HomogeneousForm
    target: HomogeneousForm

    def __post_init__(self):
        if self.line.degree != 1 or self.cofactor.degree != 2 or self.target.degree != 4:
            raise StructuralError("expected degrees 1, 2 and 4")
        if self.line**2 * self.cofactor != self.target:
            raise StructuralError("target is not line^2 * cofactor")


def extract_cofactor(quartic: HomogeneousForm, line: HomogeneousForm) -> HomogeneousForm:
    """The conic q with quartic = line^2 * q, or NotDoubleLineError.

    The error carries the exact remainder of division by the squared line.
    """
    if quartic.degree != 4 or quartic.num_vars != 3:
        raise StructuralError("expected a quartic in three variables")
    if line.degree != 1 or line.is_zero():
        raise InvalidInputError("line must be a nonzero linear form")
    q1, r1 = divide_by_linear(quartic, line)
    q2, r2 = divide_by_linear(q1, line)
    remainder = line * r2 + r1
    if not remainder.is_zero():
        raise NotDoubleLineError(remainder)
    return q2


@dataclass(frozen=True)
class KernelBasis:
    """Kernel of the map sending coefficient vectors a to sum_i a_i * L_i^d."""

    vectors: tuple[Vector, ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def power_kernel(restricted: FormTuple, degree: int) -> KernelBasis:
    """Exact kernel basis of a |-> sum_i a_i * L_i^degree for binary linear L_i.

    The entries must be nonzero and pairwise non-proportional; otherwise
    DegenerateNodesError is raised.  For n such entries the dimension is
    max(n - 1 - degree, 0), and the basis is the closed-form RREF basis of
    ``linalg.moment_kernel``.
    """
    if restricted.num_vars != 2 or restricted.degree != 1:
        raise StructuralError("expected a tuple of binary linear forms")
    if degree < 0:
        raise StructuralError("degree must be non-negative")
    vectors = moment_kernel([f.linear_coefficients() for f in restricted], degree)
    return KernelBasis(vectors=tuple(vectors))


def kernel_descend(a: Sequence[Fraction | int], points: Sequence[Point], tensor: HomogeneousForm) -> Vector:
    """Entrywise product of a with the values of ``tensor`` at the points.

    The points are the coefficient vectors of binary linear forms L_i, and
    the value of tensor = u^d at the i-th is L_i(u)^d.  When a kills the
    degree (d + deg tensor) powers, the output kills the degree-d powers,
    which is what makes the certificate construction descend.
    """
    if tensor.num_vars != 2:
        raise StructuralError("tensor must live on the kernel plane")
    if len(points) != len(a):
        raise StructuralError("vector length does not match point count")
    return tuple(x * tensor.evaluate(p) for x, p in zip(a, points))


def _clear_points(pairs: Sequence[Point]) -> tuple[int, list[tuple[int, int]]]:
    """The common denominator D of the coordinates of ``pairs`` and the
    integer points D * pair."""
    den, flat = sympoly.clear_denominators([x for p in pairs for x in p])
    return den, list(zip(flat[::2], flat[1::2]))


@dataclass(frozen=True)
class TangencyCertificate:
    """Exact witnesses that the line is tangent to the cofactor conic.

    The fields satisfy, with L the restricted lines and alpha the weights:

    * ``annihilator`` spans the kernel of the degree-5 power map and has no
      zero entry;
    * ``annihilator_i * L_i(contact_vector) == alpha_i`` for every i;
    * ``annihilator_i * L_i(bridge) == alpha_i * line_values_i`` for every i;
    * ``restricted_conic == 6 * sum_i alpha_i * line_values_i^2 * L_i^2``;
    * the polarization of ``restricted_conic`` kills ``contact_vector``, so
      the line touches the conic at ``tangency_point``.

    ``restricted_conic`` is the cofactor's restriction to the line, computed
    by ``analyze`` from the cofactor alone.  ``verify``, the only checker of
    these identities, works on ints at the points D * L_i = (p_i, r_i), D the
    lines' common denominator, where a degree-d form takes D**d times its value:
    sum_i a_i * L_i^5 = 0 runs as the six moments sum_i a_i * p_i^(5-k) * r_i^k,
    the power-sum conic as the three moments of 6 * alpha_i * line_values_i^2
    (the middle one doubled) against D**2 times ``restricted_conic``, and the
    contact and bridge values against D * alpha_i and D**2 * alpha_i * line_values_i.
    """

    restricted: FormTuple
    weights: Vector
    annihilator: Vector
    contact_vector: tuple[Fraction, Fraction]
    transversal_point: tuple[Fraction, Fraction, Fraction]
    line_values: Vector
    bridge: HomogeneousForm
    restricted_conic: BinaryQuadratic
    tangency_point: tuple[Fraction, Fraction]

    def verify(self) -> None:
        """Check every certified identity; raises TheoremViolationError."""
        den, points = _clear_points([f.linear_coefficients() for f in self.restricted])
        a = self.annihilator
        ints = sympoly.clear_denominators(a)[1]
        if any(sum(c * p ** (5 - k) * r**k for c, (p, r) in zip(ints, points)) for k in range(6)):
            raise TheoremViolationError("annihilator does not kill the degree-5 powers")
        w_form = HomogeneousForm.linear(self.contact_vector)
        if kernel_descend(a, points, w_form) != tuple(den * al for al in self.weights):
            raise TheoremViolationError("contact vector does not reproduce the weights")
        expected = tuple(den**2 * al * lv for al, lv in zip(self.weights, self.line_values))
        if kernel_descend(a, points, self.bridge) != expected:
            raise TheoremViolationError("bridge tensor does not reproduce the line values")
        w_den, alphas = sympoly.clear_denominators(self.weights)
        v_den, values = sympoly.clear_denominators(self.line_values)
        scale = w_den * v_den**2 * den**2
        q = self.restricted_conic
        for k, (binom, target) in enumerate(zip((1, 2, 1), (q.a, q.b, q.c))):
            moment = sum(x * v * v * p ** (2 - k) * r**k for x, v, (p, r) in zip(alphas, values, points))
            if 6 * binom * moment * target.denominator != target.numerator * scale:
                raise TheoremViolationError("restricted conic does not match its power-sum expression")
        for u in ((1, 0), (0, 1)):
            if q.polar(self.contact_vector, u) != 0:
                raise TheoremViolationError("contact vector is not in the polar kernel")


def _transversal_point(line: HomogeneousForm) -> tuple[Fraction, Fraction, Fraction]:
    # scaled coordinate vector on the largest-index nonzero coefficient
    coeffs = line.linear_coefficients()
    j = max(i for i, c in enumerate(coeffs) if c != 0)
    point = [Fraction(0)] * 3
    point[j] = 1 / coeffs[j]
    return tuple(point)


def tangency_certificate(dec: WaringDecomposition, line: HomogeneousForm) -> TangencyCertificate:
    """Constructive tangency witnesses for a seven-term double-line value.

    Requires the value of ``dec`` to equal line^2 * q with q nonzero and the
    seven lines to meet the base line in seven distinct points.  Pure
    (weight-1) decompositions are the classical statement; general weights
    use the same construction with the weight vector in place of the all-ones
    vector.  This is the certificate that ``analyze`` attaches; a failed
    precondition raises PreconditionError, and a failed identity raises
    TheoremViolationError, which indicates an implementation bug.
    """
    if dec.n != 7:
        raise PreconditionError(f"expected 7 terms, got {dec.n}")
    report = analyze(dec, line)
    if not report.divisible:
        raise PreconditionError("value is not divisible by the squared line")
    if report.cofactor.is_zero():
        raise PreconditionError("cofactor conic is zero")
    if report.certificate is None:
        raise PreconditionError("the lines do not meet the base line in seven distinct points")
    return report.certificate


def _build_certificate(
    dec: WaringDecomposition, line: HomogeneousForm, restricted_conic: BinaryQuadratic
) -> TangencyCertificate | None:
    """The certificate witnesses for seven terms whose value is line^2 * cofactor
    with cofactor nonzero and ``restricted_conic`` the cofactor's restriction,
    or None when the lines do not meet ``line = 0`` in seven distinct points.
    The annihilator and the contact vector and bridge, which interpolate their
    identities at the first two and three points (degree-d values times D**d),
    are built at the integer points D * L_i; ``verify`` alone checks all seven."""
    b0, b1 = line_kernel_basis(line)
    coeffs = [f.linear_coefficients() for f in dec.lines()]
    # a linear form restricts to its coefficients paired with the kernel basis
    pairs = [tuple(sum(c * b for c, b in zip(cf, v) if b) for v in (b0, b1)) for cf in coeffs]
    restricted = FormTuple(tuple(HomogeneousForm.linear(p) for p in pairs))
    den, points = _clear_points(pairs)
    try:
        kernel5 = moment_kernel(points, 5)
    except DegenerateNodesError:
        return None  # a line restricts to zero, or two meet the base line in one point
    if len(kernel5) != 1:
        raise TheoremViolationError("degree-5 kernel is not one-dimensional")
    annihilator = kernel5[0]
    if any(a == 0 for a in annihilator):
        raise TheoremViolationError("degree-5 kernel generator has a zero entry")

    weights = dec.weights()
    scaled = [w / a for w, a in zip(weights[:3], annihilator)]
    contact = tuple(interpolate(points[:2], [den * s for s in scaled[:2]]))

    transversal = _transversal_point(line)
    line_values = tuple(sum(c * t for c, t in zip(cf, transversal) if t) for cf in coeffs)
    b = interpolate(points[:3], [den**2 * s * lv for s, lv in zip(scaled, line_values)])
    bridge = HomogeneousForm(2, 2, {(2, 0): b[0], (1, 1): b[1], (0, 2): b[2]})

    point = normalize_vector(contact)
    certificate = TangencyCertificate(
        restricted=restricted,
        weights=weights,
        annihilator=annihilator,
        contact_vector=contact,
        transversal_point=transversal,
        line_values=line_values,
        bridge=bridge,
        restricted_conic=restricted_conic,
        tangency_point=(point[0], point[1]),
    )
    certificate.verify()
    return certificate


def tangency_defect(inst: CoordinateInstance) -> Fraction:
    """Exact obstruction to tangency for a coordinate instance.

    Writing s_p = sum_i weight_i * lift_i^2 * slope_i^p, the defect is
    s_1^2 - s_0 * s_2.  144 times the defect equals the discriminant of the
    binary quadratic 6 * sum_i weight_i * lift_i^2 * (x0 + slope_i*x1)^2, so
    the defect vanishes exactly when the instance's conic is tangent to the
    coordinate line.
    """
    s0 = s1 = s2 = Fraction(0)
    for h, k, w in zip(inst.slopes, inst.lifts, inst.weights):
        base = w * k * k
        s0 += base
        s1 += base * h
        s2 += base * h * h
    return s1 * s1 - s0 * s2


@dataclass(frozen=True)
class IdentitySliceReport:
    """Outcome of the symbolic identity check on one slope slice."""

    slopes: Vector
    alpha_dim: int
    beta_dim: int
    expanded_monomials: int
    node_difference_product: Fraction
    residue: sympoly.Poly

    @property
    def is_zero(self) -> bool:
        return sympoly.is_zero(self.residue)


def verify_identity_slice(
    slopes: Sequence[Fraction | int], perturb: bool = False
) -> IdentitySliceReport:
    """Symbolic proof that the tangency defect vanishes on a slope slice.

    For seven fixed distinct slopes, every weight vector solving the
    degree-4 moment system and every lift vector solving the weighted
    degree-3 moment system is parametrized by five free coordinates.  The
    defect, cleared of weight denominators, becomes one polynomial in those
    five variables; this expands it exactly and reports whether it is
    identically zero.  ``perturb`` adds 1 to the defect before clearing
    denominators, a control that must make the check fail.

    The expansion runs on integers.  Each kernel basis vector is multiplied
    by the lcm of its denominators, which replaces free coordinate j by c_j
    times itself, and the slopes h_i by H_i = D * h_i with D the lcm of their
    denominators, which multiplies s_p by D**p and the residue by D**2 (the
    perturbation is scaled by D**2 to match).  Both are diagonal rescalings:
    every monomial's coefficient is multiplied by one nonzero constant, so
    the residue's support, the ``expanded_monomials`` count and the zero
    test are exactly those of the expansion over the Fraction data.  The
    residue itself is the rescaled polynomial.
    """
    hs = tuple(Fraction(h) for h in slopes)
    if len(hs) != 7:
        raise StructuralError(f"expected 7 slopes, got {len(hs)}")
    alpha_basis = [
        sympoly.clear_denominators(v)[1] for v in vandermonde_nullspace(VandermondeSystem(hs, 4))
    ]
    beta_basis = [
        sympoly.clear_denominators(v)[1] for v in vandermonde_nullspace(VandermondeSystem(hs, 3))
    ]
    den, nodes = sympoly.clear_denominators(hs)
    nvars = len(alpha_basis) + len(beta_basis)

    alphas = []
    betas = []
    for i in range(7):
        alphas.append(
            sympoly.linear_combination(
                [vec[i] for vec in alpha_basis],
                [sympoly.variable(nvars, j) for j in range(len(alpha_basis))],
            )
        )
        betas.append(
            sympoly.linear_combination(
                [vec[i] for vec in beta_basis],
                [sympoly.variable(nvars, len(alpha_basis) + j) for j in range(len(beta_basis))],
            )
        )

    # products of all weight polynomials except one, via prefix/suffix arrays
    one = sympoly.const(nvars, 1)
    prefix = [one]
    for a in alphas:
        prefix.append(sympoly.mul(prefix[-1], a))
    suffix = [one]
    for a in reversed(alphas):
        suffix.append(sympoly.mul(suffix[-1], a))
    cleared = [sympoly.mul(prefix[i], suffix[6 - i]) for i in range(7)]

    # beta_i^2 times the product of the other weights, built once for all moments
    terms = [sympoly.mul(sympoly.mul(b, b), c) for b, c in zip(betas, cleared)]
    sums = [sympoly.linear_combination([h**p for h in nodes], terms) for p in range(3)]

    minuend = sympoly.mul(sums[1], sums[1])
    subtrahend = sympoly.mul(sums[0], sums[2])
    residue = sympoly.sub(minuend, subtrahend)
    if perturb:
        residue = sympoly.add(
            residue, sympoly.scale(sympoly.mul(prefix[7], prefix[7]), den * den)
        )

    product = Fraction(1)
    for i in range(7):
        for j in range(i + 1, 7):
            product *= hs[i] - hs[j]

    return IdentitySliceReport(
        slopes=hs,
        alpha_dim=len(alpha_basis),
        beta_dim=len(beta_basis),
        expanded_monomials=len(minuend) + len(subtrahend),
        node_difference_product=product,
        residue=residue,
    )


@dataclass(frozen=True)
class SixTermVanishingReport:
    """Outcome of the six-term collapse check for distinct slopes."""

    slopes: Vector
    annihilator: Vector
    lift_basis: tuple[Vector, ...]
    all_weights_nonzero: bool
    family_is_translations: bool
    quartic_vanishes: bool

    @property
    def passed(self) -> bool:
        return self.all_weights_nonzero and self.family_is_translations and self.quartic_vanishes


def six_term_vanishing_check(slopes: Sequence[Fraction | int]) -> SixTermVanishingReport:
    """With six distinct slopes, every double-line value degenerates to zero.

    The weight vector solving the degree-4 moment system is unique up to
    scale; the admissible lifts form the two-parameter translation family
    span{(1,...,1), slopes}, and the resulting quartic vanishes identically
    as a polynomial in the two translation parameters.
    """
    hs = tuple(Fraction(h) for h in slopes)
    if len(hs) != 6:
        raise StructuralError(f"expected 6 slopes, got {len(hs)}")
    alpha_vectors = vandermonde_nullspace(VandermondeSystem(hs, 4))
    if len(alpha_vectors) != 1:
        raise TheoremViolationError("degree-4 annihilator is not one-dimensional")
    alpha = alpha_vectors[0]
    all_nonzero = all(a != 0 for a in alpha)

    kernel = weighted_moment_kernel(hs, alpha, 3)
    lift_basis = kernel.basis
    span_expected = RationalMatrix.from_rows([[Fraction(1)] * 6, list(hs)])
    span_found = RationalMatrix.from_rows([list(v) for v in lift_basis])
    family_matches = rref(span_found)[0] == rref(span_expected)[0]

    # symbolic quartic in (x0, x1, x2, t0, t1) with lifts t0 + t1*slope, on
    # integers: with H = D*h (D the lcm of the slopes' denominators) the line
    # x0 + H*x1 + (t0 + H*t1)*x2 is the line through h after x1 -> D*x1 and
    # t1 -> D*t1, and the annihilator times the lcm of its denominators is an
    # integer vector; a diagonal rescaling and one nonzero factor keep the
    # zero test of the quartic over the Fraction data
    x0, x1, x2, t0, t1 = (sympoly.variable(5, i) for i in range(5))
    quartic: sympoly.Poly = {}
    for h, a in zip(sympoly.clear_denominators(hs)[1], sympoly.clear_denominators(alpha)[1]):
        lift = sympoly.add(t0, sympoly.scale(t1, h))
        line = sympoly.add(
            sympoly.add(x0, sympoly.scale(x1, h)), sympoly.mul(lift, x2)
        )
        quartic = sympoly.add(quartic, sympoly.scale(sympoly.power(line, 4), a))

    return SixTermVanishingReport(
        slopes=hs,
        annihilator=alpha,
        lift_basis=lift_basis,
        all_weights_nonzero=all_nonzero,
        family_is_translations=family_matches,
        quartic_vanishes=sympoly.is_zero(quartic),
    )


@dataclass(frozen=True)
class TwoValueReport:
    """Slope multiset structure of a six-term double-line instance."""

    applicable: bool
    slope_counts: tuple[tuple[Fraction, int], ...]
    conic_rank: int
    tangent: bool | None


def two_value_collapse_check(inst: CoordinateInstance) -> TwoValueReport:
    """For a nondegenerate non-tangent six-term value, slopes form two triples.

    Applicable when the cofactor conic has rank 3 and is not tangent to the
    coordinate line; in that case the slope multiset must be two values with
    multiplicity three each and all weights nonzero.  A violation raises
    TheoremViolationError (it cannot occur for genuine double-line values).
    """
    if inst.n != 6:
        raise PreconditionError(f"expected a 6-term instance, got {inst.n}")
    report = analyze(inst.to_decomposition(), line_x2())
    if not report.divisible:
        raise PreconditionError("value is not of double-line shape")
    rank = report.conic_rank
    tangent = report.tangent
    applicable = rank == 3 and tangent is False
    counts = tuple(sorted(Counter(inst.slopes).items()))
    if applicable:
        if len(counts) != 2 or any(c != 3 for _, c in counts):
            raise TheoremViolationError("slopes do not collapse to two triples")
        if any(w == 0 for w in inst.weights):
            raise TheoremViolationError("a weight vanishes on a nondegenerate instance")
    return TwoValueReport(
        applicable=applicable, slope_counts=counts, conic_rank=rank, tangent=tangent
    )


def generate_six_term_family(
    slope_pair: tuple[Fraction | int, Fraction | int], seed: int
) -> CoordinateInstance:
    """Six-term instance with slope triples on the two given values.

    Within each triple the lifts are (0, c, -c) and the weights
    (2*s, -s, -s), which forces the value to be a double line times a
    nondegenerate conic; ``two_value_collapse_check`` derives that conic and
    its rank.  Seed 0 is the canonical member with c = s = 1.
    """
    ha, hb = Fraction(slope_pair[0]), Fraction(slope_pair[1])
    if ha == hb:
        raise InvalidInputError("slope pair must be distinct")
    if seed == 0:
        scales = (Fraction(1), Fraction(1))
        spreads = (Fraction(1), Fraction(1))
    else:
        rng = random.Random(f"six-term:{seed}")
        scales = (Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9)))
        spreads = tuple(
            Fraction(rng.choice([x for x in range(-9, 10) if x != 0])) for _ in range(2)
        )
    slopes = (ha, ha, ha, hb, hb, hb)
    lifts = (Fraction(0), spreads[0], -spreads[0], Fraction(0), spreads[1], -spreads[1])
    weights = (
        2 * scales[0], -scales[0], -scales[0],
        2 * scales[1], -scales[1], -scales[1],
    )
    return CoordinateInstance(slopes, lifts, weights)


@dataclass(frozen=True)
class TangentInstance:
    """A generated seven-term instance and its rejected weight samples;
    ``quartic``, an extraction separate from ``analyze``, is built when read."""

    instance: CoordinateInstance
    weight_retries: int

    @cached_property
    def quartic(self) -> DoubleLineQuartic:
        value = self.instance.to_decomposition().value()
        return DoubleLineQuartic(
            line=line_x2(), cofactor=extract_cofactor(value, line_x2()), target=value
        )


# weight samples drawn before generate_tangent_instance gives up
MAX_WEIGHT_SAMPLES = 64


def generate_tangent_instance(
    slopes: Sequence[Fraction | int],
    lift_params: Sequence[Fraction | int],
    seed: int,
) -> TangentInstance:
    """Seven-term double-line instance from the moment systems.

    Weights are a seeded integer combination of the degree-4 annihilator
    basis, resampled (bounded) until no entry vanishes; lifts are the given
    three coordinates in the degree-3 annihilator basis divided entrywise by
    the weights.  Only the instance is built: its value is x2^2 * conic by
    construction, and the conic, which may be zero for special parameters,
    is derived by ``analyze`` (or read from ``TangentInstance.quartic``).
    """
    hs = tuple(Fraction(h) for h in slopes)
    if len(hs) != 7:
        raise StructuralError(f"expected 7 slopes, got {len(hs)}")
    params = tuple(Fraction(p) for p in lift_params)
    if len(params) != 3:
        raise StructuralError("expected 3 lift parameters")
    alpha_basis = vandermonde_nullspace(VandermondeSystem(hs, 4))
    rng = random.Random(f"tangent-instance:{seed}")
    retries = 0
    weights: Vector | None = None
    for _ in range(MAX_WEIGHT_SAMPLES):
        s, t = rng.randint(-9, 9), rng.randint(-9, 9)
        if (s, t) == (0, 0):
            retries += 1
            continue
        candidate = tuple(s * u + t * v for u, v in zip(alpha_basis[0], alpha_basis[1]))
        if all(c != 0 for c in candidate):
            weights = candidate
            break
        retries += 1
    if weights is None:
        raise GenerationFailureError("could not sample weights with all entries nonzero")

    beta_basis = vandermonde_nullspace(VandermondeSystem(hs, 3))
    beta = tuple(
        sum((p * vec[i] for p, vec in zip(params, beta_basis)), Fraction(0))
        for i in range(7)
    )
    lifts = tuple(b / w for b, w in zip(beta, weights))
    inst = CoordinateInstance(hs, lifts, weights)
    return TangentInstance(instance=inst, weight_retries=retries)


@dataclass(frozen=True)
class AnalysisReport:
    """Full exact analysis of a decomposition against a line."""

    summary: str
    divisible: bool
    remainder: HomogeneousForm | None
    cofactor: HomogeneousForm | None
    conic_rank: int | None
    tangent: bool | None
    tangency_point: tuple[Fraction, Fraction] | None
    certificate: TangencyCertificate | None


def analyze(dec: WaringDecomposition, line: HomogeneousForm) -> AnalysisReport:
    """Divisibility, conic rank, tangency, and (when available) a certificate.

    This is the one path from a decomposition and a line to the cofactor,
    its rank, its restriction to the line and the certificate: the restricted
    conic is computed once, read by the discriminant test and stored in the
    certificate.  The certificate is attached for seven-term values with
    nonzero cofactor whose lines meet the base line in distinct points; its
    contact point is cross-checked against the independent discriminant test.
    """
    if line.degree != 1 or line.is_zero():
        raise InvalidInputError("line must be a nonzero linear form")
    kind = "pure" if dec.is_pure else "weighted"
    summary = f"{dec.n} {kind} fourth-power terms"
    value = dec.value()
    try:
        cofactor = extract_cofactor(value, line)
    except NotDoubleLineError as exc:
        return AnalysisReport(
            summary=summary,
            divisible=False,
            remainder=exc.remainder,
            cofactor=None,
            conic_rank=None,
            tangent=None,
            tangency_point=None,
            certificate=None,
        )
    rank = conic_rank(cofactor)
    tangent: bool | None = None
    point = None
    certificate = None
    if not cofactor.is_zero():
        restricted_conic = BinaryQuadratic.from_form(restrict(cofactor, line))
        tangent, point = restricted_conic.tangency()
        if dec.n == 7:
            certificate = _build_certificate(dec, line, restricted_conic)
    if certificate is not None:
        if tangent is not True:
            raise TheoremViolationError("certificate exists but discriminant test disagrees")
        if point is not None and certificate.tangency_point != point:
            raise TheoremViolationError("certificate contact point disagrees with kernel point")
    return AnalysisReport(
        summary=summary,
        divisible=True,
        remainder=None,
        cofactor=cofactor,
        conic_rank=rank,
        tangent=tangent,
        tangency_point=point if point is not None else (
            certificate.tangency_point if certificate else None
        ),
        certificate=certificate,
    )
