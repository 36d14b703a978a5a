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
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm, prod
from operator import mul
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
    cleared_rows,
    conic_rank,
    divide_by_linear,
    interpolate,
    line_frame,
    power_sum,
    restrict,
)
from .linalg import (
    Cleared,
    IntVector,
    VandermondeSystem,
    clear_denominators,
    cleared,
    moment_kernel,
    normalize_vector,
    rank,
    vandermonde_nullspace,
)
from .record import Record

_LINE_X2 = HomogeneousForm.linear((0, 0, 1))


def line_x2() -> HomogeneousForm:
    """The coordinate line x2 = 0 used by all coordinate instances, one shared form."""
    return _LINE_X2


class WaringDecomposition(Record):
    """Weighted sum of fourth powers of linear forms in three variables, held as
    the canonical pairs ``cleared_weights`` (E, W) and ``cleared_rows`` (D, rows):
    weight i is W_i / E and line i is rows_i / D.  ``pairs`` is given so (any
    nonzero dens) or as (weight, linear form) terms, cleared once when built."""

    pairs: tuple[Cleared, tuple[int, tuple[IntVector, ...]]]

    def __post_init__(self):
        given = tuple(self.pairs)  # ((E, W), (D, rows)), or terms whose second entries are forms
        if not (len(given) == 2 and isinstance(given[0][1], tuple)):
            if any(not isinstance(f, HomogeneousForm) or f.num_vars != 3 or f.degree != 1 for _, f in given):
                raise StructuralError("decomposition terms must be linear forms in three variables")
            given = clear_denominators([w for w, _ in given]), cleared_rows([f for _, f in given])
        (wd, ws), (ld, rows) = given
        if len(rows) != len(ws) or any(len(row) != 3 for row in rows):
            raise StructuralError("a decomposition needs one weight per row, each row of length 3")
        ld, flat = cleared(ld, [x for row in rows for x in row])
        vars(self)["pairs"] = cleared(wd, ws), (ld, tuple(flat[i : i + 3] for i in range(0, len(flat), 3)))

    cleared_weights = property(lambda self: self.pairs[0])
    cleared_rows = property(lambda self: self.pairs[1])

    @property
    def n(self) -> int:
        return len(self.pairs[0][1])

    @property
    def is_pure(self) -> bool:
        wd, ws = self.pairs[0]
        return all(w == wd for w in ws)

    def value(self) -> HomogeneousForm:
        """The quartic sum_i weight_i * l_i^4, computed on every call."""
        if not self.n:
            return HomogeneousForm.zero(3, 4)
        return power_sum(*self.pairs, 4)


def _fractions_of(field: str) -> property:
    """A property reading the ``Cleared`` field ``field`` as Fractions, built when read."""

    def read(self) -> tuple[Fraction, ...]:
        den, ints = vars(self)[field]
        return tuple(Fraction(x, den) for x in ints)

    return property(read)


class CoordinateInstance(Record):
    """Six or seven lines x0 + slope*x1 + lift*x2 with weights, each vector
    stored as its canonical pair ``(den, ints)`` and given either so (any
    nonzero den) or as ints and Fractions; ``slopes``, ``lifts`` and
    ``weights`` build their Fractions only when read."""

    cleared_slopes: Cleared
    cleared_lifts: Cleared
    cleared_weights: Cleared

    def __post_init__(self):
        for name in self._fields:
            given = tuple(vars(self)[name])  # a pair (den, tuple of ints), or rationals, none a tuple
            is_pair = len(given) == 2 and isinstance(given[1], tuple)
            vars(self)[name] = cleared(*(given if is_pair else clear_denominators(given)))
        n = self.n
        if n not in (6, 7):
            raise StructuralError(f"coordinate instances have 6 or 7 terms, got {n}")
        if len(self.cleared_lifts[1]) != n or len(self.cleared_weights[1]) != n:
            raise StructuralError("slopes, lifts and weights must have equal length")

    @property
    def n(self) -> int:
        return len(self.cleared_slopes[1])

    slopes = _fractions_of("cleared_slopes")
    lifts = _fractions_of("cleared_lifts")
    weights = _fractions_of("cleared_weights")

    def to_decomposition(self) -> WaringDecomposition:
        """The decomposition of this instance, built on every call.  With the
        slopes H_i / D and the lifts K_i / E, line i is the row
        (D * E, H_i * E, K_i * D) over D * E; the weights pass as their pair."""
        (hd, hs), (kd, ks) = self.cleared_slopes, self.cleared_lifts
        rows = tuple((hd * kd, h * kd, k * hd) for h, k in zip(hs, ks))
        return WaringDecomposition((self.cleared_weights, (hd * kd, rows)))


class DoubleLineQuartic(Record):
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


class KernelBasis(Record):
    """Kernel of the map sending coefficient vectors a to sum_i a_i * L_i^d."""

    vectors: tuple[IntVector, ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def power_kernel(restricted: FormTuple, degree: int) -> KernelBasis:
    """Exact kernel basis of a |-> sum_i a_i * L_i^degree for binary linear L_i.

    The entries must be one or more binary linear forms, else StructuralError,
    and nonzero and pairwise non-proportional, else DegenerateNodesError.
    For n such entries the dimension is max(n - 1 - degree, 0), and the basis
    is the closed-form RREF basis of ``linalg.moment_kernel``.
    """
    shapes = {(f.num_vars, f.degree) if isinstance(f, HomogeneousForm) else None for f in restricted}
    if shapes != {(2, 1)}:
        raise StructuralError("expected a nonempty tuple of binary linear forms")
    if degree < 0:
        raise StructuralError("degree must be non-negative")
    (vectors,) = moment_kernel(cleared_rows(restricted)[1], (degree,))
    return KernelBasis(vectors=tuple(vectors))


class TangencyCertificate(Record):
    """Exact witnesses that the line is tangent to the cofactor conic, built
    only by ``tangency_certificate`` (which ``analyze`` calls) and checked only
    by ``verify``.

    The fields satisfy, with L_i the line restricted to the base line, the
    binary linear form with coefficients ``cleared_points[1][i]`` over
    ``cleared_points[0]``, and alpha the weights:

    * ``annihilator`` spans the kernel of the degree-5 power map and has no
      zero entry;
    * ``annihilator_i * L_i(contact_vector) == alpha_i`` for every i;
    * ``annihilator_i * L_i(bridge) == alpha_i * line_values_i`` for every i;
    * ``restricted_conic == 6 * sum_i alpha_i * line_values_i^2 * L_i^2``;
    * the polarization of ``restricted_conic`` kills ``contact_vector``, so
      the line touches the conic at ``tangency_point``.

    Every field is ints, a canonical pair ``(den, ints)`` (``Cleared``) or a
    ``BinaryQuadratic`` holding one, so equal certificates have equal fields:
    ``cleared_points`` holds the points D * L_i = (p_i, r_i) over D, the other
    ``cleared_`` fields the weights, the contact vector, the transversal point
    and the line values (the last three read as Fractions by properties), and
    ``bridge`` and ``restricted_conic`` (the cofactor's restriction, computed
    by ``analyze`` from the cofactor alone) their coefficients on y0^2,
    y0*y1, y1^2.  ``verify`` reads the ints and pairs as they are (any
    nonzero den checks, as every identity is homogeneous in each pair),
    builds no Fraction, calls no function of ``sympoly``, ``forms`` or
    ``linalg``, and checks every identity at the points (p_i, r_i), where a
    degree-d form takes D**d times its value:
    sum_i a_i * L_i^5 = 0 runs as the six moments sum_i a_i * p_i^(5-k) * r_i^k,
    the power-sum conic as the three moments of 6 * alpha_i * line_values_i^2
    (the middle one doubled) against D**2 times ``restricted_conic``, and the
    contact and bridge values against D * alpha_i and
    D**2 * alpha_i * line_values_i, each side times the other side's
    denominators.  The annihilator, which ``moment_kernel`` builds on ints,
    is read as it is (rational entries still check exactly).
    """

    cleared_points: tuple[int, tuple[tuple[int, int], ...]]
    cleared_weights: Cleared
    annihilator: IntVector
    cleared_contact: Cleared
    cleared_transversal: Cleared
    cleared_values: Cleared
    bridge: BinaryQuadratic
    restricted_conic: BinaryQuadratic
    tangency_point: IntVector

    contact_vector = _fractions_of("cleared_contact")
    transversal_point = _fractions_of("cleared_transversal")
    line_values = _fractions_of("cleared_values")

    def verify(self) -> None:
        """Check every certified identity; raises TheoremViolationError.

        The polar-kernel check cannot fail alone: given L_i(c) = alpha_i / a_i
        and a_i * B(L_i) = alpha_i * lv_i (c the contact vector, B the bridge),
        the conic's polarization at c against u is
        6 * sum_i a_i * B(L_i)^2 * L_i(u), a degree-5 moment of a, so 0.  It
        stays as the certificate's conclusion."""
        den, points = self.cleared_points
        v_den, values = self.cleared_values
        w_den, alphas = self.cleared_weights
        if {len(self.annihilator), len(alphas), len(values)} != {len(points)}:
            raise StructuralError("certificate vectors do not match the point count")
        ann = self.annihilator
        m0 = m1 = m2 = m3 = m4 = m5 = 0  # m_k = sum_i a_i * p_i^(5-k) * r_i^k, in one pass
        for x, (p, r) in zip(ann, points):
            xp, xp3, r2 = x * p, x * p * p * p, r * r
            m0, m1, m2 = m0 + xp3 * p * p, m1 + xp3 * p * r, m2 + xp3 * r2
            m3, m4, m5 = m3 + xp * p * r2 * r, m4 + xp * r2 * r2, m5 + x * r2 * r2 * r
        if m0 or m1 or m2 or m3 or m4 or m5:
            raise TheoremViolationError("annihilator does not kill the degree-5 powers")
        c_den, (c0, c1) = self.cleared_contact
        scale = c_den * den
        if any(x * (c0 * p + c1 * r) * w_den != al * scale for x, al, (p, r) in zip(ann, alphas, points)):
            raise TheoremViolationError("contact vector does not reproduce the weights")
        b_den, (b0, b1, b2) = self.bridge.cleared
        scale = b_den * den**2
        if any(
            x * (b0 * p * p + b1 * p * r + b2 * r * r) * w_den * v_den != al * v * scale
            for x, al, v, (p, r) in zip(ann, alphas, values, points)
        ):
            raise TheoremViolationError("bridge tensor does not reproduce the line values")
        q_den, (qa, qb, qc) = self.restricted_conic.cleared
        scale = w_den * v_den**2 * den**2
        m0 = m1 = m2 = 0  # m_k = sum_i alpha_i * line_values_i^2 * p_i^(2-k) * r_i^k
        for al, v, (p, r) in zip(alphas, values, points):
            t = al * v * v
            m0, m1, m2 = m0 + t * p * p, m1 + t * p * r, m2 + t * r * r
        if (6 * m0 * q_den, 12 * m1 * q_den, 6 * m2 * q_den) != (qa * scale, qb * scale, qc * scale):
            raise TheoremViolationError("restricted conic does not match its power-sum expression")
        # the polarization at the contact vector, against (1, 0) and (0, 1), times 2 * q_den * c_den
        if 2 * qa * c0 + qb * c1 or qb * c0 + 2 * qc * c1:
            raise TheoremViolationError("contact vector is not in the polar kernel")


def tangency_certificate(
    dec: WaringDecomposition, line: HomogeneousForm, restricted_conic: BinaryQuadratic
) -> TangencyCertificate | None:
    """The certificate that ``analyze``, its only caller, attaches: it calls this
    for seven terms whose value is line^2 * cofactor with cofactor nonzero, and
    ``restricted_conic`` is the cofactor's restriction.  None is returned when
    the lines do not meet ``line = 0`` in seven distinct points.
    The points D * L_i are the lines' int rows (the ones ``value`` read) times
    the cleared kernel basis, over the product of their denominators, both
    divided by their common gcd to leave D; the line values are the rows at
    the cleared transversal point.  The annihilator, the contact vector and the bridge,
    which interpolate their identities at the first two and three points
    (degree-d values times D**d), are built on these ints, and every rational
    witness is stored as the canonical pair of the ints it was built as, so
    no Fraction is made; ``verify`` alone checks all seven points.
    The annihilator's zero-entry check cannot fire: entry i is M over the
    product of the brackets [L_j, L_i], j != i, nonzero for distinct points.
    It stays because the witnesses divide by the entries."""
    (bd, (b0, b1)), (td, t), _ = line_frame(line)
    ld, rows = dec.cleared_rows
    # a linear form restricts to its coefficients paired with the kernel basis
    points = [(sum(map(mul, row, b0)), sum(map(mul, row, b1))) for row in rows]
    den = ld * bd  # positive, so the canonical pair divides by the gcd alone
    g = gcd(den, *[x for point in points for x in point])
    den, points = den // g, [(p // g, r // g) for p, r in points]
    try:
        # seven points at degree 5 leave one free index, so one kernel vector
        [(annihilator,)] = moment_kernel(points, (5,))
    except DegenerateNodesError:
        return None  # a line restricts to zero, or two meet the base line in one point
    if any(a == 0 for a in annihilator):
        raise TheoremViolationError("degree-5 kernel generator has a zero entry")

    # weight_k / annihilator_k for k < 3 is scaled[k] / (wd * a), a the product of the three
    wd, ws = dec.cleared_weights
    a = prod(annihilator[:3])
    scaled = [w * (a // x) for w, x in zip(ws[:3], annihilator)]
    contact = cleared(*interpolate(points[:2], [den * s for s in scaled[:2]], wd * a))

    lvs = [sum(map(mul, row, t)) for row in rows]  # ld * td times the values at the transversal point
    b_den, b = interpolate(points[:3], [den * den * s * v for s, v in zip(scaled, lvs)], wd * ld * td * a)

    certificate = TangencyCertificate(
        cleared_points=(den, tuple(points)),
        cleared_weights=dec.cleared_weights,
        annihilator=annihilator,
        cleared_contact=contact,
        cleared_transversal=(td, t),
        cleared_values=cleared(ld * td, lvs),
        bridge=BinaryQuadratic((b_den, b)),
        restricted_conic=restricted_conic,
        tangency_point=normalize_vector(contact[1]),
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
    (hd, hs), (kd, ks), (wd, ws) = inst.cleared_slopes, inst.cleared_lifts, inst.cleared_weights
    # s_p = S_p / (wd * kd**2 * hd**p) with S_p = sum_i W_i * K_i**2 * H_i**p on ints
    s0 = s1 = s2 = 0
    for h, k, w in zip(hs, ks, ws):
        base = w * k * k
        s0 += base
        s1 += base * h
        s2 += base * h * h
    return Fraction(s1 * s1 - s0 * s2, (wd * kd * kd * hd) ** 2)


class IdentitySliceReport(Record):
    """Outcome of the symbolic identity check on one slope slice."""

    alpha_dim: int
    beta_dim: int
    expanded_monomials: int
    node_difference_product: Fraction
    residue: sympoly.Poly

    @property
    def is_zero(self) -> bool:
        return not self.residue


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

    Each stage is one pass on ints.  Each beta_i**2 * prod_{j != i} alpha_j
    is added pair by pair into s_0, s_1 and s_2, times 1, H_i and H_i**2.
    The two big products multiply primitive parts.  With g_p the gcd of
    s_p's coefficients and S_p = s_p / g_p, s_1 * s_1 is g_1**2 * (S_1 * S_1)
    and s_0 * s_2 is g_0 * g_2 * (S_0 * S_2): the same ints, so the residue
    and ``expanded_monomials`` are exactly those of the direct products,
    while the factors multiplied term by term are much shorter (by Gauss's
    lemma their products are primitive too).  One walk over the unordered
    term pairs of the S_p's joint support forms both products.
    """
    if len(slopes) != 7:
        raise StructuralError(f"expected 7 slopes, got {len(slopes)}")
    alpha_basis, beta_basis = vandermonde_nullspace(system := VandermondeSystem(tuple(slopes), (4, 3)))
    den, nodes = system.cleared_nodes
    na = len(alpha_basis)
    keys = [sympoly.monomial((0,) * j + (1,)) for j in range(na + len(beta_basis))]

    # alpha_i and beta_i, straight from the kernel vectors' entries at index i
    alphas = [{k: vec[i] for k, vec in zip(keys, alpha_basis) if vec[i]} for i in range(7)]
    betas = [{k: vec[i] for k, vec in zip(keys[na:], beta_basis) if vec[i]} for i in range(7)]

    # products of all weight polynomials except one, via prefix/suffix arrays of at most six
    one = {0: 1}
    prefix, suffix = [one], [one]
    for a, z in zip(alphas[:6], reversed(alphas[1:])):
        prefix.append(sympoly.mul(prefix[-1], a))
        suffix.append(sympoly.mul(suffix[-1], z))

    # s_p = sum_i H_i**p * beta_i**2 * prod_{j != i} alpha_j, all three in one pass per term
    sums: tuple[sympoly.Poly, ...] = ({}, {}, {})
    for i, (h, b) in enumerate(zip(nodes, betas)):
        sympoly.add_product(sums, sympoly.mul(b, b), sympoly.mul(prefix[i], suffix[6 - i]), (1, h, h * h))

    # each s_p as g_p times its primitive part (g_p = 1 for a zero s_p), dropping cancelled terms
    g0, g1, g2 = gcds = [gcd(*s.values()) or 1 for s in sums]
    parts = ({t: c // g for t, c in s.items() if c} for s, g in zip(sums, gcds))
    square, cross = sympoly.square_and_cross(*parts)
    residue = sympoly.add(sympoly.scale(square, g1 * g1), sympoly.scale(cross, -g0 * g2))
    if perturb:
        full = sympoly.mul(prefix[6], alphas[6])  # the product of all seven weight polynomials
        residue = sympoly.add(residue, sympoly.scale(sympoly.mul(full, full), den * den))

    return IdentitySliceReport(
        alpha_dim=na,
        beta_dim=len(beta_basis),
        expanded_monomials=len(square) + len(cross),
        # each of the 21 differences H_i - H_j is D times h_i - h_j
        node_difference_product=Fraction(prod(a - b for a, b in combinations(nodes, 2)), den**21),
        residue=residue,
    )


class SixTermVanishingReport(Record):
    """Outcome of the six-term collapse check for distinct slopes."""

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
    if len(slopes) != 6:
        raise StructuralError(f"expected 6 slopes, got {len(slopes)}")
    # six nodes at degree 4 leave one free index, so one annihilator
    (alpha,), lifts = vandermonde_nullspace(system := VandermondeSystem(tuple(slopes), (4, 3)))
    all_nonzero = all(a != 0 for a in alpha)

    # the lifts are b / alpha for b in the degree-3 kernel B; with no zero
    # alpha_i (only a bug makes one) that scaling is invertible and takes
    # span{1, h} to the span of T = [alpha, alpha*H], H = D*h the cleared
    # slopes, so the family is the translations exactly when B, T and B with
    # T appended have one rank
    _, nodes = system.cleared_nodes
    shifts = [alpha, [a * h for a, h in zip(alpha, nodes)]]
    family_matches = all_nonzero and rank(lifts) == rank(shifts) == rank([*lifts, *shifts])

    return SixTermVanishingReport(
        annihilator=alpha,
        all_weights_nonzero=all_nonzero,
        family_is_translations=family_matches,
        quartic_vanishes=not any(sum(a * h**p for a, h in zip(alpha, nodes)) for p in range(5)),
    )


class TwoValueReport(Record):
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
    applicable = report.conic_rank == 3 and report.tangent is False
    hd, hs = inst.cleared_slopes  # counted on the ints, which sort as the slopes do (hd > 0)
    counts = tuple((Fraction(h, hd), c) for h, c in sorted(Counter(hs).items()))
    if applicable:
        if len(counts) != 2 or any(c != 3 for _, c in counts):
            raise TheoremViolationError("slopes do not collapse to two triples")
        if not all(inst.cleared_weights[1]):
            raise TheoremViolationError("a weight vanishes on a nondegenerate instance")
    return TwoValueReport(applicable, counts, report.conic_rank, report.tangent)


def generate_six_term_family(
    slope_pair: tuple[Fraction | int, Fraction | int], seed: int
) -> CoordinateInstance:
    """Six-term instance with slope triples on the two given values.

    Within each triple the lifts are (0, c, -c) and the weights
    (2*s, -s, -s), which forces the value to be a double line times a
    nondegenerate conic; ``two_value_collapse_check`` derives that conic and
    its rank.  The seed draws c in -9..9 without 0 and s in 1..9 for each triple.
    """
    hd, (ha, hb) = clear_denominators(slope_pair)
    if ha == hb:
        raise InvalidInputError("slope pair must be distinct")
    rng = random.Random(f"six-term:{seed}")
    scales = (rng.randint(1, 9), rng.randint(1, 9))
    spreads = [rng.choice([x for x in range(-9, 10) if x != 0]) for _ in range(2)]
    lifts = [x for c in spreads for x in (0, c, -c)]
    weights = [x for s in scales for x in (2 * s, -s, -s)]
    return CoordinateInstance((hd, (ha, ha, ha, hb, hb, hb)), (1, tuple(lifts)), (1, tuple(weights)))


class TangentInstance(Record):
    """A generated seven-term instance and its rejected weight samples;
    ``quartic``, an extraction separate from ``analyze``, is built when read."""

    instance: CoordinateInstance
    weight_retries: int

    @cached_property
    def quartic(self) -> DoubleLineQuartic:
        value = self.instance.to_decomposition().value()
        return DoubleLineQuartic(line_x2(), extract_cofactor(value, line_x2()), value)


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
    system = VandermondeSystem(tuple(slopes), (4, 3))
    if len(system.nodes) != 7:
        raise StructuralError(f"expected 7 slopes, got {len(system.nodes)}")
    if len(lift_params) != 3:
        raise StructuralError("expected 3 lift parameters")
    pd, ps = clear_denominators(lift_params)
    # on ints: the kernel bases (U, V) and B_j are integer, parameters cleared to P_j / pd;
    # weight i is s*U_i + t*V_i, lift i is sum_j P_j*B_j[i] / pd / weight i
    (us, vs), beta_basis = vandermonde_nullspace(system)
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

    betas = [sum(p * b for p, b in zip(ps, column)) for column in zip(*beta_basis)]
    m = lcm(*weights)  # the lifts share the den pd * m
    lifts = tuple(b * (m // w) for b, w in zip(betas, weights))
    inst = CoordinateInstance(system.cleared_nodes, (pd * m, lifts), (1, tuple(weights)))
    return TangentInstance(instance=inst, weight_retries=retries)


class AnalysisReport(Record):
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
    ``extract_cofactor`` alone refuses a zero or nonlinear line.
    """
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
            certificate = tangency_certificate(dec, line, restricted_conic)
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
        tangency_point=point or (certificate.tangency_point if certificate else None),
        certificate=certificate,
    )
