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
    conic_rank,
    divide_by_linear,
    interpolate,
    line_kernel_basis,
    power_sum,
    restrict,
)
from .linalg import (
    IntVector,
    VandermondeSystem,
    clear_rows,
    moment_kernel,
    normalize_vector,
    rank,
    vandermonde_nullspace,
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
            coerced.append((Fraction(weight), form))  # w / a stays exact for int annihilators a
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
        """The quartic sum_i weight_i * l_i^4, computed on every call."""
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
        """The decomposition of this instance, built on every call."""
        return WaringDecomposition(
            tuple(
                (w, HomogeneousForm.linear((1, h, k)))
                for h, k, w in zip(self.slopes, self.lifts, self.weights)
            )
        )


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
    # r1 and r2 lack the line's pivot variable: line * r2 + r1 is 0 iff both are
    if r1.is_zero() and r2.is_zero():
        return q2
    raise NotDoubleLineError(line * r2 + r1)


@dataclass(frozen=True)
class KernelBasis:
    """Kernel of the map sending coefficient vectors a to sum_i a_i * L_i^d."""

    vectors: tuple[IntVector, ...]

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


@dataclass(frozen=True)
class TangencyCertificate:
    """Exact witnesses that the line is tangent to the cofactor conic.

    The fields satisfy, with L_i the line ``restricted[i]`` and alpha the weights:

    * ``annihilator`` spans the kernel of the degree-5 power map and has no
      zero entry;
    * ``annihilator_i * L_i(contact_vector) == alpha_i`` for every i;
    * ``annihilator_i * L_i(bridge) == alpha_i * line_values_i`` for every i;
    * ``restricted_conic == 6 * sum_i alpha_i * line_values_i^2 * L_i^2``;
    * the polarization of ``restricted_conic`` kills ``contact_vector``, so
      the line touches the conic at ``tangency_point``.

    ``bridge`` and ``restricted_conic`` are ``BinaryQuadratic``s; the latter is
    the cofactor's restriction to the line, computed by ``analyze`` from the
    cofactor alone.  ``verify``, the only checker of these identities, clears
    the points, the annihilator, the weights, the line values, the contact
    vector, the bridge and the conic of their denominators once each and checks
    every identity on ints at the points D * L_i = (p_i, r_i), D the lines' common
    denominator, where a degree-d form takes D**d times its value:
    sum_i a_i * L_i^5 = 0 runs as the six moments sum_i a_i * p_i^(5-k) * r_i^k,
    the power-sum conic as the three moments of 6 * alpha_i * line_values_i^2
    (the middle one doubled) against D**2 times ``restricted_conic``, and the
    contact and bridge values against D * alpha_i and
    D**2 * alpha_i * line_values_i, each side times the other side's denominators.
    """

    restricted: tuple[tuple[Fraction, Fraction], ...]
    weights: Vector
    annihilator: IntVector
    contact_vector: tuple[Fraction, Fraction]
    transversal_point: tuple[Fraction, Fraction, Fraction]
    line_values: Vector
    bridge: BinaryQuadratic
    restricted_conic: BinaryQuadratic
    tangency_point: IntVector

    def verify(self) -> None:
        """Check every certified identity; raises TheoremViolationError.

        The polar-kernel check cannot fail alone: given L_i(c) = alpha_i / a_i
        and a_i * B(L_i) = alpha_i * lv_i (c the contact vector, B the bridge),
        the conic's polarization at c against u is
        6 * sum_i a_i * B(L_i)^2 * L_i(u), a degree-5 moment of a, so 0.  It
        stays as the certificate's conclusion."""
        den, points = clear_rows(self.restricted)
        if {len(self.annihilator), len(self.weights), len(self.line_values)} != {len(points)}:
            raise StructuralError("certificate vectors do not match the point count")
        a_den, ann = sympoly.clear_denominators(self.annihilator)
        if any(sum(x * p ** (5 - k) * r**k for x, (p, r) in zip(ann, points)) for k in range(6)):
            raise TheoremViolationError("annihilator does not kill the degree-5 powers")
        w_den, alphas = sympoly.clear_denominators(self.weights)
        c_den, (c0, c1) = sympoly.clear_denominators(self.contact_vector)
        scale = a_den * c_den * den
        if any(x * (c0 * p + c1 * r) * w_den != al * scale for x, al, (p, r) in zip(ann, alphas, points)):
            raise TheoremViolationError("contact vector does not reproduce the weights")
        v_den, values = sympoly.clear_denominators(self.line_values)
        b_den, (b0, b1, b2) = sympoly.clear_denominators((self.bridge.a, self.bridge.b, self.bridge.c))
        scale = a_den * b_den * den**2
        if any(
            x * (b0 * p * p + b1 * p * r + b2 * r * r) * w_den * v_den != al * v * scale
            for x, al, v, (p, r) in zip(ann, alphas, values, points)
        ):
            raise TheoremViolationError("bridge tensor does not reproduce the line values")
        q = self.restricted_conic
        q_den, (qa, qb, qc) = sympoly.clear_denominators((q.a, q.b, q.c))
        scale = w_den * v_den**2 * den**2
        for k, (binom, target) in enumerate(zip((1, 2, 1), (qa, qb, qc))):
            moment = sum(x * v * v * p ** (2 - k) * r**k for x, v, (p, r) in zip(alphas, values, points))
            if 6 * binom * moment * q_den != target * scale:
                raise TheoremViolationError("restricted conic does not match its power-sum expression")
        # the polarization at the contact vector, against (1, 0) and (0, 1), times 2 * q_den * c_den
        if 2 * qa * c0 + qb * c1 or qb * c0 + 2 * qc * c1:
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
    are built at the integer points D * L_i; ``verify`` alone checks all seven.
    The annihilator's zero-entry check cannot fire: entry i is M over the
    product of the brackets [L_j, L_i], j != i, nonzero for distinct points.
    It stays because the witnesses divide by the entries."""
    b0, b1 = line_kernel_basis(line)
    coeffs = [f.linear_coefficients() for f in dec.lines()]
    # a linear form restricts to its coefficients paired with the kernel basis
    restricted = tuple(tuple(sum(c * b for c, b in zip(cf, v) if b) for v in (b0, b1)) for cf in coeffs)
    den, points = clear_rows(restricted)
    try:
        # seven points at degree 5 leave one free index, so one kernel vector
        (annihilator,) = moment_kernel(points, 5)
    except DegenerateNodesError:
        return None  # a line restricts to zero, or two meet the base line in one point
    if any(a == 0 for a in annihilator):
        raise TheoremViolationError("degree-5 kernel generator has a zero entry")

    weights = dec.weights()
    scaled = [w / a for w, a in zip(weights[:3], annihilator)]
    contact = tuple(interpolate(points[:2], [den * s for s in scaled[:2]]))

    transversal = _transversal_point(line)
    line_values = tuple(sum(c * t for c, t in zip(cf, transversal) if t) for cf in coeffs)
    b = interpolate(points[:3], [den**2 * s * lv for s, lv in zip(scaled, line_values)])

    certificate = TangencyCertificate(
        restricted=restricted,
        weights=weights,
        annihilator=annihilator,
        contact_vector=contact,
        transversal_point=transversal,
        line_values=line_values,
        bridge=BinaryQuadratic(*b),
        restricted_conic=restricted_conic,
        tangency_point=normalize_vector(contact),
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
    hd, hs = sympoly.clear_denominators(inst.slopes)
    kd, ks = sympoly.clear_denominators(inst.lifts)
    wd, ws = sympoly.clear_denominators(inst.weights)
    # s_p = S_p / (wd * kd**2 * hd**p) with S_p = sum_i W_i * K_i**2 * H_i**p on ints
    s0 = s1 = s2 = 0
    for h, k, w in zip(hs, ks, ws):
        base = w * k * k
        s0 += base
        s1 += base * h
        s2 += base * h * h
    return Fraction(s1 * s1 - s0 * s2, (wd * kd * kd * hd) ** 2)


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

    The expansion runs on integers.  The kernel basis vectors are integer
    already (``linalg.moment_kernel``), and the slopes h_i are replaced by
    H_i = D * h_i with D the lcm of their denominators, which multiplies s_p
    by D**p and the residue by D**2 (the perturbation is scaled by D**2 to
    match).  Every monomial's coefficient is multiplied by that one nonzero
    constant, so the residue's support, the ``expanded_monomials`` count and
    the zero test are exactly those of the expansion over the Fraction
    slopes.  The residue itself is the rescaled polynomial.
    """
    hs = tuple(Fraction(h) for h in slopes)
    if len(hs) != 7:
        raise StructuralError(f"expected 7 slopes, got {len(hs)}")
    alpha_basis = vandermonde_nullspace(VandermondeSystem(hs, 4))
    beta_basis = vandermonde_nullspace(VandermondeSystem(hs, 3))
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
    annihilator: IntVector
    all_weights_nonzero: bool
    family_is_translations: bool
    quartic_vanishes: bool

    @property
    def passed(self) -> bool:
        return self.all_weights_nonzero and self.family_is_translations and self.quartic_vanishes


def six_term_vanishing_check(slopes: Sequence[Fraction | int]) -> SixTermVanishingReport:
    """With six distinct slopes, every double-line value degenerates to zero.

    The weight vector solving the degree-4 moment system is unique up to
    scale, and the admissible lifts form the translation family
    span{(1,...,1), slopes}.  With H = D*h the cleared slopes (x1 -> D*x1,
    t1 -> D*t1 rescale diagonally), u = x0 + t0*x2 and v = x1 + t1*x2, the
    quartic sum_i alpha_i * (x0 + H_i*x1 + (t0 + H_i*t1)*x2)**4 equals
    sum_p C(4,p) * u**(4-p) * v**p * M_p with M_p = sum_i alpha_i * H_i**p.
    Each u**(4-p) * v**p alone has the monomial x0**(4-p) * x1**p, and no
    C(4,p) is zero, so the quartic vanishes identically exactly when the
    integer moments M_0..M_4 do.  They share no code with
    ``moment_kernel``'s closed-form bracket products.
    """
    hs = tuple(Fraction(h) for h in slopes)
    if len(hs) != 6:
        raise StructuralError(f"expected 6 slopes, got {len(hs)}")
    # six nodes at degree 4 leave one free index, so one annihilator
    (alpha,) = vandermonde_nullspace(VandermondeSystem(hs, 4))
    all_nonzero = all(a != 0 for a in alpha)

    # the lifts are b / alpha for b in the degree-3 kernel B; with no zero
    # alpha_i (only a bug makes one) that scaling is invertible and takes
    # span{1, h} to the span of T = [alpha, alpha*H], H = D*h the cleared
    # slopes, so the family is the translations exactly when B, T and B with
    # T appended have one rank
    _, nodes = sympoly.clear_denominators(hs)
    lifts = vandermonde_nullspace(VandermondeSystem(hs, 3))
    shifts = [alpha, [a * h for a, h in zip(alpha, nodes)]]
    family_matches = all_nonzero and rank(lifts) == rank(shifts) == rank([*lifts, *shifts])

    return SixTermVanishingReport(
        slopes=hs,
        annihilator=alpha,
        all_weights_nonzero=all_nonzero,
        family_is_translations=family_matches,
        quartic_vanishes=not any(sum(a * h**p for a, h in zip(alpha, nodes)) for p in range(5)),
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
    # on ints: the kernel bases (U, V) and B_j are integer, parameters cleared to P_j / pd;
    # weight i is s*U_i + t*V_i, lift i is sum_j P_j*B_j[i] / pd / weight i
    us, vs = vandermonde_nullspace(VandermondeSystem(hs, 4))
    rng = random.Random(f"tangent-instance:{seed}")
    retries = 0
    for _ in range(MAX_WEIGHT_SAMPLES):
        s, t = rng.randint(-9, 9), rng.randint(-9, 9)
        weights = [s * u + t * v for u, v in zip(us, vs)]
        if (s, t) != (0, 0) and all(weights):
            break
        retries += 1
    else:
        raise GenerationFailureError("could not sample weights with all entries nonzero")

    beta_basis = vandermonde_nullspace(VandermondeSystem(hs, 3))
    pd, ps = sympoly.clear_denominators(params)
    betas = [sum(p * b for p, b in zip(ps, column)) for column in zip(*beta_basis)]
    lifts = [Fraction(b, pd * w) for b, w in zip(betas, weights)]
    inst = CoordinateInstance(hs, lifts, weights)
    return TangentInstance(instance=inst, weight_retries=retries)


@dataclass(frozen=True)
class AnalysisReport:
    """Full exact analysis of a decomposition against a line."""

    summary: str
    divisible: bool
    remainder: HomogeneousForm | None = None
    cofactor: HomogeneousForm | None = None
    conic_rank: int | None = None
    tangent: bool | None = None
    tangency_point: IntVector | None = None
    certificate: TangencyCertificate | None = None


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
        return AnalysisReport(summary=summary, divisible=False, remainder=exc.remainder)
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
        cofactor=cofactor,
        conic_rank=rank,
        tangent=tangent,
        tangency_point=point if point is not None else (
            certificate.tangency_point if certificate else None
        ),
        certificate=certificate,
    )
