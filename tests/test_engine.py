import inspect
import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from conftest import (
    ZERO_WEIGHT_TRIPLES,
    count_calls,
    count_clearings,
    count_fractions,
    decomposition_terms,
    determinant,
    evaluate,
    kills,
    monomials,
    nondegenerate_analysis,
    packed_variable,
    power_map_rows,
    random_fraction,
    random_invertible_3x3,
    ref_add,
    ref_mul,
    ref_product,
    ref_scale,
    ref_variable,
    reference_certificate,
    reference_family_is_translations,
    reference_kernel,
    reference_solve,
    reference_tangency_defect,
    reference_tangent_instance,
    reference_witnesses,
    replace,
    sample_nodes,
    unpack,
    wrong_kernel,
)
from hypothesis import example, given
from hypothesis import strategies as st

from doubleline import engine, forms, linalg, sympoly
from doubleline.engine import (
    CoordinateInstance,
    DoubleLineQuartic,
    TangencyCertificate,
    WaringDecomposition,
    analyze,
    extract_cofactor,
    generate_six_term_family,
    generate_tangent_instance,
    line_x2,
    power_kernel,
    six_term_vanishing_check,
    tangency_certificate,
    tangency_defect,
    two_value_collapse_check,
    verify_identity_slice,
)
from doubleline.errors import (
    DegenerateNodesError,
    GenerationFailureError,
    InvalidInputError,
    NotDoubleLineError,
    PreconditionError,
    StructuralError,
    TheoremViolationError,
)
from doubleline.forms import (
    BinaryQuadratic,
    FormTuple,
    HomogeneousForm,
    cleared_rows,
    embed_in_plane,
    line_frame,
    parse_form,
    power_sum,
    restrict,
)
from doubleline.linalg import VandermondeSystem, vandermonde_nullspace, weighted_moment_kernel

X2 = HomogeneousForm.variable(3, 2)
SEVEN = tuple(range(7))

REFERENCE_LINES = [
    (2, (1, 0, 0)),
    (-1, (1, 0, 1)),
    (-1, (1, 0, -1)),
    (2, (1, 1, 0)),
    (-1, (1, 1, 1)),
    (-1, (1, 1, -1)),
]


def reference_decomposition() -> WaringDecomposition:
    return WaringDecomposition(
        tuple((Fraction(w), HomogeneousForm.linear(c)) for w, c in REFERENCE_LINES)
    )


def reference_value() -> HomogeneousForm:
    conic = parse_form("6*x0^2 + 6*x0*x1 + 3*x1^2 + x2^2", 3)
    return Fraction(-4) * conic * X2**2


def flagship_instance() -> CoordinateInstance:
    """Seven-term solution of both moment systems on slopes 0..6."""
    slopes = tuple(Fraction(i) for i in range(7))
    weights = tuple(Fraction(v) for v in (2, -11, 25, -30, 20, -7, 1))
    beta = tuple(Fraction(v) for v in (1, -4, 6, -4, 1, 0, 0))
    lifts = tuple(b / w for b, w in zip(beta, weights))
    return CoordinateInstance(slopes, lifts, weights)


def moment_solution(rng: random.Random, slopes) -> CoordinateInstance:
    """Random exact solution of both moment systems on the given slopes."""
    alpha_basis, beta_basis = vandermonde_nullspace(VandermondeSystem(slopes, (4, 3)))
    while True:
        coords = [Fraction(rng.randint(-9, 9)) for _ in alpha_basis]
        weights = tuple(
            sum((c * vec[i] for c, vec in zip(coords, alpha_basis)), Fraction(0))
            for i in range(len(slopes))
        )
        if all(w != 0 for w in weights):
            break
    coords = [random_fraction(rng, 6, 3) for _ in beta_basis]
    beta = tuple(
        sum((c * vec[i] for c, vec in zip(coords, beta_basis)), Fraction(0))
        for i in range(len(slopes))
    )
    lifts = tuple(b / w for b, w in zip(beta, weights))
    return CoordinateInstance(tuple(slopes), lifts, weights)


ACCEPTANCE_SLICES = [
    tuple(range(7)),
    (0, 1, 2, 3, 4, 5, -1),
    (0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)),
]


# sampled slices that each hold a negative and a fractional slope
MIXED_SIGN_FRACTION_SLICES = [
    hs
    for hs in (sample_nodes(random.Random(2000 + k), 7) for k in range(12))
    if any(h < 0 for h in hs) and any(h.denominator > 1 for h in hs)
][:8]


def whole_product_residue(slopes, perturb):
    """The identity-slice residue and expanded-monomial count from whole
    ``sympoly.mul`` products, combined by ``sympoly.add`` and ``scale``."""
    alpha_basis, beta_basis = vandermonde_nullspace(system := VandermondeSystem(tuple(slopes), (4, 3)))
    den, nodes = system.cleared_nodes
    symbols = [packed_variable(j) for j in range(len(alpha_basis) + len(beta_basis))]

    def combination(basis, syms, i):
        out: sympoly.Poly = {}
        for vec, sym in zip(basis, syms):
            out = sympoly.add(out, sympoly.scale(sym, vec[i]))
        return out

    alphas = [combination(alpha_basis, symbols, i) for i in range(7)]
    betas = [combination(beta_basis, symbols[len(alpha_basis) :], i) for i in range(7)]
    sums: list[sympoly.Poly] = [{}, {}, {}]
    for i in range(7):
        term = sympoly.mul(betas[i], betas[i])
        for j in range(7):
            if j != i:
                term = sympoly.mul(term, alphas[j])
        for p in range(3):
            sums[p] = sympoly.add(sums[p], sympoly.scale(term, nodes[i] ** p))
    g0, g1, g2 = gcds = [gcd(*s.values()) or 1 for s in sums]
    p0, p1, p2 = ({t: c // g for t, c in s.items()} for s, g in zip(sums, gcds))
    minuend = sympoly.scale(sympoly.mul(p1, p1), g1 * g1)
    subtrahend = sympoly.scale(sympoly.mul(p0, p2), g0 * g2)
    residue = sympoly.add(minuend, sympoly.scale(subtrahend, -1))
    if perturb:
        full = {0: 1}
        for a in alphas:
            full = sympoly.mul(full, a)
        residue = sympoly.add(residue, sympoly.scale(sympoly.mul(full, full), den * den))
    return len(minuend) + len(subtrahend), residue


def fraction_identity_expansion(slopes):
    """The identity-slice expansion over the Fraction kernel data, term by term.

    Returns the expanded-monomial count, the residue and the residue of the
    perturbed control, with exponent-tuple keys.
    """
    hs = tuple(Fraction(h) for h in slopes)
    alpha_basis, beta_basis = vandermonde_nullspace(VandermondeSystem(hs, (4, 3)))
    nvars = len(alpha_basis) + len(beta_basis)
    symbols = [ref_variable(nvars, j) for j in range(nvars)]

    def combination(basis, syms, i):
        out: dict = {}
        for vec, sym in zip(basis, syms):
            out = ref_add(out, ref_scale(sym, vec[i]))
        return out

    alphas = [combination(alpha_basis, symbols, i) for i in range(7)]
    betas = [combination(beta_basis, symbols[len(alpha_basis) :], i) for i in range(7)]
    sums: list[dict] = [{}, {}, {}]
    for i in range(7):
        cleared = ref_product([a for k, a in enumerate(alphas) if k != i], nvars)
        term = ref_mul(ref_mul(betas[i], betas[i]), cleared)
        for p in range(3):
            sums[p] = ref_add(sums[p], ref_scale(term, hs[i] ** p))
    minuend = ref_mul(sums[1], sums[1])
    subtrahend = ref_mul(sums[0], sums[2])
    residue = ref_add(minuend, ref_scale(subtrahend, -1))
    full = ref_product(alphas, nvars)
    return len(minuend) + len(subtrahend), residue, ref_add(residue, ref_mul(full, full))


def fraction_six_term_quartic(slopes, alpha=None):
    """The six-term quartic over the Fraction slopes and an annihilator, by
    default the degree-4 kernel vector."""
    hs = tuple(Fraction(h) for h in slopes)
    if alpha is None:
        (alpha,) = vandermonde_nullspace(VandermondeSystem(hs, (4,)))[0]
    x0, x1, x2, t0, t1 = (ref_variable(5, i) for i in range(5))
    quartic: dict = {}
    for h, a in zip(hs, alpha):
        line = ref_add(ref_add(x0, ref_scale(x1, h)), ref_mul(ref_add(t0, ref_scale(t1, h)), x2))
        quartic = ref_add(quartic, ref_scale(ref_product([line] * 4, 5), a))
    return quartic


class TestValue:
    def test_reference_identity(self):
        assert reference_decomposition().value() == reference_value()

    def test_single_term(self):
        dec = WaringDecomposition(((Fraction(1), HomogeneousForm.linear((1, 0, 0))),))
        assert dec.value() == parse_form("x0^4", 3)

    def test_cancellation(self):
        l = HomogeneousForm.linear((1, 0, 0))
        dec = WaringDecomposition(((Fraction(1), l), (Fraction(-1), l)))
        assert dec.value().is_zero()


    # small pools, so that repeated lines and cancelling weights are common
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([-2, -1, 0, Fraction(1, 2), 1, 3]),
                st.tuples(*[st.sampled_from([-1, 0, Fraction(2, 3), 1])] * 3),
            ),
            min_size=1,
            max_size=7,
        )
    )
    def test_value_matches_public_operators(self, terms):
        dec = WaringDecomposition(
            tuple((Fraction(w), HomogeneousForm.linear(c)) for w, c in terms)
        )
        expected = HomogeneousForm.zero(3, 4)
        for w, c in terms:
            expected = expected + w * HomogeneousForm.linear(c) ** 4
        value = dec.value()
        assert value == expected
        assert HomogeneousForm.from_terms(3, 4, value.terms) == value

    @given(
        st.sampled_from([2, 3]).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.fractions(min_value=-3, max_value=3, max_denominator=4),
                    st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=5)] * n),
                ),
                min_size=1,
                max_size=4,
            )
        ),
        st.integers(0, 5),
    )
    @example([(Fraction(2, 3), (Fraction(1, 2), 0, Fraction(-3, 4)))], 4)  # one term
    @example([(Fraction(1, 2), (1, 2)), (Fraction(-5, 3), (0, 0))], 0)  # the zero form, e = 0
    def test_power_sum_matches_reference(self, terms, exponent):
        n = len(terms[0][1])
        lines = cleared_rows([HomogeneousForm.linear(c) for _, c in terms])
        total = power_sum(linalg.clear_denominators([w for w, _ in terms]), lines, exponent)
        expected: dict = {}
        for w, c in terms:
            line = {m: Fraction(x) for m, x in zip(monomials(n, 1), c) if x}
            expected = ref_add(expected, ref_scale(ref_product([line] * exponent, n), w))
        assert (total.num_vars, total.degree) == (n, exponent)
        assert total.terms == expected
        assert all(type(c) is Fraction for c in total.terms.values())

    def test_cleared_rows_rejects_nonlinear_forms(self):
        x0 = HomogeneousForm.variable(3, 0)
        for forms in ((x0 * x0,), (HomogeneousForm.zero(3, 0),) * 2):
            with pytest.raises(StructuralError, match="degree-1 form"):
                cleared_rows(forms)

    @pytest.mark.parametrize(
        "rows",
        [(), ((1, 0), (1, 0, 0)), ((1, 0, 0, 0),), ((1,),)],
        ids=["empty", "unequal", "four-entries", "one-entry"],
    )
    def test_power_sum_rejects_bad_rows(self, rows):
        with pytest.raises(StructuralError, match="rows all of length 2 or all of 3"):
            power_sum((1, (1,) * len(rows)), (1, rows), 2)

    def test_power_sum_rejects_bad_weight_counts_and_exponents(self):
        rows = (1, ((1, 0), (0, 1)))
        for weights in ((1, (1,)), (1, (1, 1, 1))):
            with pytest.raises(StructuralError, match="one weight per row"):
                power_sum(weights, rows, 2)
        for exponent in (-1, sympoly.MAX_EXPONENT + 1):
            with pytest.raises(StructuralError, match="a power in 0"):
                power_sum((1, (1, 1)), rows, exponent)

    @pytest.mark.parametrize(
        "weights, rows",
        [
            ((1, (0.5,)), (1, ((1, 1),))),
            ((1, (Fraction(1, 2),)), (1, ((1, 1),))),
            ((1, (1,)), (1, ((Fraction(1, 2), 1),))),
            ((1, (1,)), (1, ((1, 0.5, 2),))),
            ((2.0, (1,)), (1, ((1, 1),))),
            ((1, (1,)), (Fraction(1), ((1, 1),))),
        ],
        ids=["float-weight", "Fraction-weight", "Fraction-row", "float-row", "float-den", "Fraction-den"],
    )
    def test_power_sum_refuses_non_int_pairs(self, weights, rows):
        with pytest.raises(InvalidInputError, match=r"expected \(den, ints\) pairs"):
            power_sum(weights, rows, 2)

    def test_value_expands_no_polynomial(self, monkeypatch):
        expected = reference_value()

        def refuse(*args):
            raise AssertionError("value() expanded a polynomial")

        monkeypatch.setattr(sympoly, "power", refuse)
        monkeypatch.setattr(sympoly, "mul", refuse)
        assert reference_decomposition().value() == expected

    def test_instance_builds_equal_decompositions(self):
        inst = CoordinateInstance((0, 1, 2, 3, 4, 5), (1,) * 6, (1,) * 6)
        dec = inst.to_decomposition()
        assert inst.to_decomposition() == dec
        assert dec == CoordinateInstance(inst.slopes, inst.lifts, inst.weights).to_decomposition()


class TestExtractCofactor:
    def test_reference(self):
        q = extract_cofactor(reference_value(), X2)
        assert q == Fraction(-4) * parse_form("6*x0^2 + 6*x0*x1 + 3*x1^2 + x2^2", 3)

    def test_not_divisible(self):
        # x0^3*x2 is divisible by the line once: r1 = 0, r2 = x0^3, remainder line * r2
        for text in ("x0^4", "x0^3*x2"):
            with pytest.raises(NotDoubleLineError) as err:
                extract_cofactor(parse_form(text, 3), X2)
            assert err.value.remainder == parse_form(text, 3)

    def test_divisible_quartic_multiplies_no_polynomial(self, monkeypatch):
        value = reference_value()

        def refuse(*args):
            raise AssertionError("extract_cofactor multiplied polynomials")

        monkeypatch.setattr(sympoly, "mul", refuse)
        assert extract_cofactor(value, X2) == Fraction(-4) * parse_form(
            "6*x0^2 + 6*x0*x1 + 3*x1^2 + x2^2", 3
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_remainder_on_a_general_line(self, seed):
        # f = line^2 * q + line * r2 + r1 with r1, r2 nonzero and free of x0,
        # the pivot of a line with every coefficient nonzero
        rng = random.Random(seed)
        coeffs = tuple(random_fraction(rng) or 1 for _ in range(3))
        line = {m: Fraction(c) for m, c in zip(monomials(3, 1), coeffs)}
        q = {m: random_fraction(rng) for m in monomials(3, 2)}
        r2 = {(0, *m): random_fraction(rng) or 1 for m in monomials(2, 3)}
        r1 = {(0, *m): random_fraction(rng) or 1 for m in monomials(2, 4)}
        squared = ref_mul(ref_mul(line, line), q)
        f = ref_add(ref_add(squared, ref_mul(line, r2)), r1)
        with pytest.raises(NotDoubleLineError) as err:
            extract_cofactor(HomogeneousForm.from_terms(3, 4, f), HomogeneousForm.linear(coeffs))
        assert err.value.remainder.terms == ref_add(f, ref_scale(squared, -1))

    def test_rank_one_quartic(self):
        assert extract_cofactor(parse_form("x2^4", 3), X2) == parse_form("x2^2", 3)


class TestPowerKernel:
    def test_degree_five_generator(self):
        L = FormTuple(tuple(HomogeneousForm.linear((1, i)) for i in range(7)))
        basis = power_kernel(L, 5)
        assert basis.dimension == 1
        assert basis.vectors[0] == (1, -6, 15, -20, 15, -6, 1)

    def test_degree_six_trivial(self):
        L = FormTuple(tuple(HomogeneousForm.linear((1, i)) for i in range(7)))
        assert power_kernel(L, 6).dimension == 0

    def test_single_entry_injective(self):
        L = FormTuple((HomogeneousForm.linear((1, 0)),))
        assert power_kernel(L, 0).dimension == 0

    def test_proportional_entries_rejected(self):
        L = FormTuple(tuple(HomogeneousForm.linear(c) for c in ((1, 1), (1, 0), (2, 2))))
        with pytest.raises(DegenerateNodesError, match="points 0 and 2 are proportional"):
            power_kernel(L, 1)

    @given(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=6),
            min_size=1, max_size=8, unique=True,
        ).flatmap(
            lambda hs: st.tuples(
                st.just(hs),
                st.lists(
                    st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
                    min_size=len(hs), max_size=len(hs),
                ),
                st.none() | st.integers(0, len(hs) - 1),
                st.integers(0, len(hs) + 1),
            )
        )
    )
    def test_matches_elimination_on_generic_points(self, case):
        # a_i x + b_i y = scale_i * (x + h_i y), or scale_i * y at one index
        hs, scales, infinity, degree = case
        points = [(s, s * h) for s, h in zip(scales, hs)]
        if infinity is not None:
            points[infinity] = (0, scales[infinity])
        L = FormTuple(tuple(HomogeneousForm.linear(p) for p in points))
        rows = power_map_rows(points, degree)
        basis = power_kernel(L, degree)
        assert list(basis.vectors) == reference_kernel(rows, len(points))
        assert basis.dimension == max(len(points) - 1 - degree, 0)
        assert all(kills(rows, vec) for vec in basis.vectors)

    def test_vectors_kill_the_powers(self):
        rng = random.Random(41)
        L = FormTuple(tuple(HomogeneousForm.linear((1, h)) for h in sample_nodes(rng, 7)))
        for d in range(7):
            basis = power_kernel(L, d)
            assert basis.dimension == 6 - d
            for vec in basis.vectors:
                assert sum((v * f**d for v, f in zip(vec, L)), HomogeneousForm.zero(2, d)).is_zero()


class TestKernelDescend:
    """The descent the certificate's witnesses rest on: for a binary form T,
    when a kills the powers L_i^(d + deg T), the products a_i * T(L_i) kill
    the powers L_i^d."""

    def test_contact_vector_reproduces_weights(self):
        inst = flagship_instance()
        cert = analyze(inst.to_decomposition(), line_x2()).certificate
        w_form = HomogeneousForm.linear(cert.contact_vector)
        # the restricted points are (p, r) / den, and w_form is linear
        den, points = cert.cleared_points
        descended = tuple(a * evaluate(w_form, p) / den for a, p in zip(cert.annihilator, points))
        assert descended == inst.weights
        # the weights land in the degree-4 kernel: all moments d <= 4 vanish
        for d in range(5):
            assert sum(w * h**d for w, h in zip(inst.weights, inst.slopes)) == 0

    def test_descends_to_lower_kernel_by_moment_sums(self):
        rng = random.Random(43)
        slopes = tuple(Fraction(i) for i in range(7))
        L = FormTuple(tuple(HomogeneousForm.linear((1, h)) for h in slopes))
        basis4 = power_kernel(L, 4).vectors
        for _ in range(20):
            coords = [Fraction(rng.randint(-5, 5)) for _ in basis4]
            a = tuple(
                sum((c * vec[i] for c, vec in zip(coords, basis4)), Fraction(0))
                for i in range(7)
            )
            u = HomogeneousForm.linear((random_fraction(rng), random_fraction(rng)))
            out = [x * evaluate(u, (1, h)) for x, h in zip(a, slopes)]
            for d in range(4):
                assert sum(o * h**d for o, h in zip(out, slopes)) == 0


class TestTangencyCertificate:
    def test_flagship(self):
        inst = flagship_instance()
        dec = inst.to_decomposition()
        cofactor = extract_cofactor(dec.value(), line_x2())
        cert = analyze(dec, line_x2()).certificate
        cert.verify()
        # independent tangency test agrees
        flag, point = BinaryQuadratic.from_form(restrict(cofactor, line_x2())).tangency()
        assert flag is True
        assert point == cert.tangency_point
        assert BinaryQuadratic.from_form(restrict(cofactor, line_x2())) == cert.restricted_conic
        assert cert.annihilator == (1, -6, 15, -20, 15, -6, 1)
        assert all(a != 0 for a in cert.annihilator)
        # annihilator kills the degree-5 powers, at the restricted points times their den
        powers = (a * HomogeneousForm.linear(p) ** 5 for a, p in zip(cert.annihilator, cert.cleared_points[1]))
        assert sum(powers, HomogeneousForm.zero(2, 5)).is_zero()

    def test_repeated_intersection_points_rejected(self):
        # four lines on slope 0 and three on slope 1 meet x2 = 0 in two
        # points; each group is divisible by x2^2 (its weights and weighted
        # lifts sum to 0), and without seven distinct points the rank-3
        # cofactor need not be tangent
        slopes = (0, 0, 0, 0, 1, 1, 1)
        lifts = (0, 1, -1, 2, 0, 1, -1)
        weights = (-5, 1, 3, 1, 2, -1, -1)
        dec = CoordinateInstance(slopes, lifts, weights).to_decomposition()
        report = analyze(dec, line_x2())
        assert report.divisible and report.conic_rank == 3 and report.tangent is False
        assert report.certificate is None

    def test_zero_cofactor_rejected(self):
        slopes = tuple(Fraction(i) for i in range(7))
        alpha = vandermonde_nullspace(VandermondeSystem(slopes, (4,)))[0]
        weights = tuple(2 * u - v for u, v in zip(alpha[0], alpha[1]))
        inst = CoordinateInstance(slopes, (0,) * 7, weights)
        report = analyze(inst.to_decomposition(), line_x2())
        assert report.divisible and report.cofactor.is_zero()
        assert report.tangent is None and report.certificate is None

    def test_not_double_line_rejected(self):
        terms = tuple(
            (Fraction(1), HomogeneousForm.linear((1, i, 0))) for i in range(7)
        )
        report = analyze(WaringDecomposition(terms), line_x2())
        assert not report.divisible and report.certificate is None

    def test_six_terms_rejected(self):
        report = analyze(reference_decomposition(), line_x2())
        assert report.divisible and report.conic_rank == 3
        assert report.certificate is None

    def test_base_line_as_a_term_rejected(self):
        # six distinct slopes with their degree-4 annihilator as weights and
        # lifts on the translation family sum to zero (six_term_vanishing_check),
        # so adding 1 * x2^4 makes the value x2^4 and the cofactor x2^2; the
        # seventh line x2 restricts to zero on x2 = 0
        slopes = tuple(Fraction(h) for h in (0, 1, 3, -2, Fraction(1, 2), 5))
        (alpha,) = vandermonde_nullspace(VandermondeSystem(slopes, (4,)))[0]
        t0, t1 = Fraction(2), Fraction(-3, 2)
        terms = tuple(
            (a, HomogeneousForm.linear((1, h, t0 + t1 * h))) for a, h in zip(alpha, slopes)
        )
        dec = WaringDecomposition(terms + ((Fraction(1), X2),))
        assert dec.value() == X2**4
        report = analyze(dec, line_x2())
        assert report.cofactor == X2**2
        assert report.tangent is True and report.tangency_point is None
        assert report.certificate is None

    def test_random_generated_instances(self):
        rng = random.Random(47)
        checked = 0
        trial = 0
        while checked < 15:
            trial += 1
            slopes = sample_nodes(rng, 7)
            params = tuple(random_fraction(rng) for _ in range(3))
            generated = generate_tangent_instance(slopes, params, seed=trial)
            if generated.quartic.cofactor.is_zero():
                continue
            cert = analyze(generated.instance.to_decomposition(), line_x2()).certificate
            cert.verify()
            restricted = restrict(generated.quartic.cofactor, line_x2())
            flag, point = BinaryQuadratic.from_form(restricted).tangency()
            assert flag is True and point == cert.tangency_point
            checked += 1

    def test_non_coordinate_base_line(self):
        # criterion-5 instances moved by x_j -> sum_i rows[i][j] * x_i, so the
        # base line is no longer x2 and the restricted points are not (1, h);
        # the interpolated witnesses must equal the unique solutions of the
        # contact (2x2) and bridge (7x3) systems
        rng = random.Random(109)
        checked = 0
        trial = 0
        while checked < 20:
            trial += 1
            slopes = sample_nodes(rng, 7)
            params = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
            generated = generate_tangent_instance(slopes, params, seed=trial)
            if generated.quartic.cofactor.is_zero():
                continue
            rows = random_invertible_3x3(rng, max_den=1)

            def move(coeffs):
                return HomogeneousForm.linear(
                    tuple(sum(rows[i][j] * coeffs[j] for j in range(3)) for i in range(3))
                )

            line = move((0, 0, 1))
            terms = decomposition_terms(generated.instance.to_decomposition())
            dec = WaringDecomposition(tuple((w, move(coeffs)) for w, coeffs in terms))
            report = analyze(dec, line)
            cert = report.certificate
            assert cert is not None
            cert.verify()

            den, ints = cert.cleared_points
            points = [(Fraction(p, den), Fraction(r, den)) for p, r in ints]
            assert any(a != 1 for a, _ in points)
            c = cert.annihilator
            weights = [w for w, _ in decomposition_terms(dec)]
            contact_rows = [[c[i] * a, c[i] * b] for i, (a, b) in enumerate(points[:2])]
            assert cert.contact_vector == reference_solve(contact_rows, weights[:2])
            bridge_rows = [
                [c[i] * a * a, c[i] * a * b, c[i] * b * b] for i, (a, b) in enumerate(points)
            ]
            rhs = [al * lv for al, lv in zip(weights, cert.line_values)]
            b_den, bridge = cert.bridge.cleared
            assert tuple(Fraction(b, b_den) for b in bridge) == reference_solve(bridge_rows, rhs)

            flag, point = BinaryQuadratic.from_form(restrict(report.cofactor, line)).tangency()
            assert flag is True and point == cert.tangency_point
            checked += 1


class TestCertificateTampering:
    """``verify`` is the only checker of the certificate identities; each
    tampered field below fails the first identity that reads it, and the
    error names that identity.

    The polar-kernel identity cannot be broken on its own: it follows from
    the other four, which is the theorem, so no tampering reaches it alone.
    """

    @pytest.fixture(scope="class")
    def certificate(self):
        return analyze(flagship_instance().to_decomposition(), line_x2()).certificate

    @staticmethod
    def assert_fails(tampered, message):
        with pytest.raises(TheoremViolationError) as info:
            tampered.verify()
        assert str(info.value) == message

    def test_annihilator_entry(self, certificate):
        a = list(certificate.annihilator)
        a[3] += 1
        self.assert_fails(
            replace(certificate, annihilator=tuple(a)),
            "annihilator does not kill the degree-5 powers",
        )

    def test_contact_vector(self, certificate):
        # the first coordinate plus 1, on the pair (den, ints)
        den, (c0, c1) = certificate.cleared_contact
        self.assert_fails(
            replace(certificate, cleared_contact=(den, (c0 + den, c1))),
            "contact vector does not reproduce the weights",
        )

    def test_bridge_coefficient(self, certificate):
        # the y0*y1 coefficient plus 1
        den, (b0, b1, b2) = certificate.bridge.cleared
        self.assert_fails(
            replace(certificate, bridge=BinaryQuadratic((den, (b0, b1 + den, b2)))),
            "bridge tensor does not reproduce the line values",
        )

    @pytest.mark.parametrize("moments", [range(5), range(1, 6)], ids=["0-4", "1-5"])
    def test_annihilator_kills_only_some_moments(self, certificate, moments):
        # v kills the degree-5 moments sum_i v_i * p_i^(5-k) * r_i^k for k in
        # ``moments`` but not the sixth, so a + v fails on that one moment alone;
        # the points are the restricted ones times den, which scales every moment by den**5
        _, points = certificate.cleared_points
        rows = [[p ** (5 - k) * r**k for p, r in points] for k in range(6)]
        (missed,) = set(range(6)) - set(moments)
        v = next(
            v for v in reference_kernel([rows[k] for k in moments], 7)
            if sum(x * y for x, y in zip(rows[missed], v))
        )
        a = tuple(x + y for x, y in zip(certificate.annihilator, v))
        self.assert_fails(
            replace(certificate, annihilator=a),
            "annihilator does not kill the degree-5 powers",
        )

    def test_rescaled_witnesses_verify(self, certificate):
        # every identity is invariant under a -> t * a, contact -> contact / t
        # and bridge -> bridge / t, which leaves a rational annihilator and a
        # contact pair that is no longer canonical (a BinaryQuadratic makes
        # the bridge's canonical again)
        t = Fraction(2, 3)

        def divided(pair):
            den, ints = pair
            return den * t.numerator, tuple(x * t.denominator for x in ints)

        replace(
            certificate,
            annihilator=tuple(t * a for a in certificate.annihilator),
            cleared_contact=divided(certificate.cleared_contact),
            bridge=BinaryQuadratic(divided(certificate.bridge.cleared)),
        ).verify()

    @pytest.mark.parametrize("field", ["a", "b", "c"])
    def test_restricted_conic(self, certificate, field):
        # the coefficient on y0^2, y0*y1 or y1^2 plus 1
        den, ints = certificate.restricted_conic.cleared
        k = "abc".index(field)
        tampered = BinaryQuadratic((den, tuple(x + den * (i == k) for i, x in enumerate(ints))))
        self.assert_fails(
            replace(certificate, restricted_conic=tampered),
            "restricted conic does not match its power-sum expression",
        )


class TestCertificateTamperingFractionalPoints(TestCertificateTampering):
    """The same tamperings on a certificate whose restricted points have
    common denominator D = 3, where ``verify`` scales each degree-d identity
    by D**d; on the flagship D = 1, so a dropped or misplaced factor shows
    only here."""

    @pytest.fixture(scope="class")
    def certificate(self):
        # a criterion-5 instance on slopes k/3, moved as in
        # test_non_coordinate_base_line: the base line becomes x1 + x2
        generated = generate_tangent_instance([Fraction(k, 3) for k in range(-3, 4)], (1, 2, -1), seed=1)
        rows = [[2, 1, 0], [1, 1, 1], [0, 3, 1]]

        def move(coeffs):
            return HomogeneousForm.linear(
                tuple(sum(rows[i][j] * coeffs[j] for j in range(3)) for i in range(3))
            )

        terms = decomposition_terms(generated.instance.to_decomposition())
        dec = WaringDecomposition(tuple((w, move(coeffs)) for w, coeffs in terms))
        cert = analyze(dec, move((0, 0, 1))).certificate
        assert cert.cleared_points[0] == 3
        return cert


class TestCertificateTamperingFractionalWeights(TestCertificateTampering):
    """The same tamperings on the flagship with every weight divided by 7, so
    the weights have common denominator 7; every other certificate here has
    integer weights, where a dropped weight denominator does not show."""

    @pytest.fixture(scope="class")
    def certificate(self):
        inst = flagship_instance()
        scaled = CoordinateInstance(inst.slopes, inst.lifts, tuple(w / 7 for w in inst.weights))
        cert = analyze(scaled.to_decomposition(), line_x2()).certificate
        assert cert.cleared_weights[0] == 7
        return cert


class TestIntegerInputs:
    """Kernel vectors leave ``linalg`` as ints, and the certificate's
    quotients weight / annihilator are built on ints over a common
    denominator; every certificate entry must stay an int or a Fraction, and
    every pair ints."""

    def test_int_weights_give_an_exact_certificate(self):
        inst = generate_tangent_instance(range(7), (1, 2, -1), seed=1).instance
        assert all(w.denominator == 1 for w in inst.weights)
        terms = tuple(
            (int(w), HomogeneousForm.linear((1, h, k)))
            for h, k, w in zip(inst.slopes, inst.lifts, inst.weights)
        )
        cert = analyze(WaringDecomposition(terms), line_x2()).certificate
        assert cert is not None
        for field in (
            cert.annihilator,
            cert.contact_vector,
            cert.transversal_point,
            cert.line_values,
            cert.tangency_point,
        ):
            assert all(type(x) in (int, Fraction) for x in field)
        for pair in (cert.cleared_weights, cert.bridge.cleared, cert.restricted_conic.cleared):
            assert all(type(x) is int for x in (pair[0], *pair[1]))
        assert cert == analyze(inst.to_decomposition(), line_x2()).certificate


def count_library_calls(monkeypatch) -> dict[str, list]:
    """``count_calls`` on every function of ``sympoly``, ``forms`` and
    ``linalg``, under its module's name and under any name ``engine``
    imported it as, and on every plain method of their classes."""
    calls = {}
    for module in (sympoly, forms, linalg):
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                for owner in (module, engine):
                    if vars(owner).get(name) is obj:
                        calls[f"{owner.__name__}.{name}"] = count_calls(monkeypatch, owner, name)
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, method in list(vars(obj).items()):
                    if inspect.isfunction(method):
                        calls[f"{obj.__name__}.{attr}"] = count_calls(monkeypatch, obj, attr)
    return calls


class TestCheckerSharesNoCode:
    """``verify`` checks a certificate on its ints and canonical pairs alone:
    it builds no Fraction and calls no function of ``sympoly``, ``forms`` or
    ``linalg``, the code that computed what it checks.  ``tangency`` decides
    on the restricted conic's pair as ``from_form`` reads it, with no Fraction
    and no clearing."""

    def test_verify_reads_only_ints_and_pairs(self, monkeypatch):
        for inst in (flagship_instance(), generate_tangent_instance(
            [Fraction(k, 3) for k in range(-3, 4)], (1, Fraction(2, 5), -1), seed=1
        ).instance):
            cert = reference_certificate(inst.to_decomposition(), line_x2())
            assert cert is not None
            calls = count_library_calls(monkeypatch)
            made = count_fractions(monkeypatch)
            cert.verify()
            monkeypatch.undo()
            assert made == []
            assert {name: len(c) for name, c in calls.items() if c} == {}

    @pytest.mark.parametrize(
        "conic, tangent",
        [
            ("x0*x2 - x1^2", True),
            ("6*x0^2 + 6*x0*x1 + 3*x1^2 + x2^2", False),
            ("1/2*x0^2 - 2/3*x0*x1 + 2/9*x1^2 + x2^2", True),
            ("x0*x2", True),
        ],
        ids=["square", "nonsquare", "fractional-square", "zero"],
    )
    def test_tangency_reads_only_the_pair(self, monkeypatch, conic, tangent):
        restricted = restrict(parse_form(conic, 3), X2)
        cleared = count_clearings(monkeypatch)
        made = count_fractions(monkeypatch)
        flag, _ = BinaryQuadratic.from_form(restricted).tangency()
        monkeypatch.undo()
        assert flag is tangent
        assert made == [] and cleared == []


def pivot_change(rng: random.Random, pivot: int) -> list[list[Fraction]]:
    """Rows of an invertible 3x3 matrix with entries of denominator up to 3
    that moves the base line x2 = 0 to a line whose last nonzero coefficient,
    the one its kernel basis divides by, is at ``pivot``.  For pivot 1 and 2
    some coefficient before the pivot is not an integer multiple of it, so
    the kernel basis has a denominator above 1; for pivot 0 the line is c*x0,
    whose kernel basis is e1, e2."""
    while True:
        rows = random_invertible_3x3(rng, max_den=3)
        for i in range(pivot + 1, 3):
            rows[i][2] = Fraction(0)
        column = [row[2] for row in rows]
        if column[pivot] and determinant(rows) and (
            pivot == 0 or any((c / column[pivot]).denominator > 1 for c in column[:pivot])
        ):
            return rows


def moved(dec: WaringDecomposition, rows) -> tuple[WaringDecomposition, HomogeneousForm]:
    """``dec`` and the base line x2 after x_j -> sum_i rows[i][j] * x_i."""

    def move(coeffs):
        return HomogeneousForm.linear(
            tuple(sum(rows[i][j] * coeffs[j] for j in range(3)) for i in range(3))
        )

    terms = tuple((w, move(coeffs)) for w, coeffs in decomposition_terms(dec))
    return WaringDecomposition(terms), move((0, 0, 1))


class TestCertificateOracle:
    """``analyze`` builds the certificate on ints; ``conftest.reference_certificate``
    keeps the Fraction formulas it replaced, and both must give equal fields.
    Equal certificates have equal pairs only because each pair is canonical,
    so that is checked on every certificate too."""

    @pytest.mark.parametrize("pivot", [0, 1, 2])
    def test_matches_reference_on_moved_instances(self, pivot):
        rng = random.Random(2000 + pivot)
        checked = trial = 0
        while checked < 6:
            trial += 1
            slopes = sample_nodes(rng, 7)
            params = tuple(random_fraction(rng) for _ in range(3))
            inst = generate_tangent_instance(slopes, params, seed=trial).instance
            if trial % 2:  # weights of denominator up to 5
                scale = random_fraction(rng) or Fraction(1, 5)
                inst = CoordinateInstance(inst.slopes, inst.lifts, tuple(w * scale for w in inst.weights))
            dec, line = moved(inst.to_decomposition(), pivot_change(rng, pivot))
            coeffs = line.linear_coefficients()
            assert max(i for i, c in enumerate(coeffs) if c) == pivot
            coefficients = [c for _, coeffs in decomposition_terms(dec) for c in coeffs]
            assert lcm(*(c.denominator for c in coefficients)) > 1
            basis_den = line_frame(line)[0][0]
            assert basis_den > 1 or pivot == 0
            cert = analyze(dec, line).certificate
            assert cert == reference_certificate(dec, line)
            if cert is not None:
                self.assert_canonical_and_read_as_reference(cert, reference_witnesses(dec, line))
                checked += 1

    @staticmethod
    def assert_canonical_and_read_as_reference(cert, ref):
        den, points = cert.cleared_points
        assert tuple((Fraction(p, den), Fraction(r, den)) for p, r in points) == ref["restricted"]
        pairs = [
            (den, [x for point in points for x in point]),
            cert.cleared_contact,
            cert.cleared_transversal,
            cert.cleared_values,
            cert.bridge.cleared,
            cert.restricted_conic.cleared,
        ]
        for den, ints in pairs:
            assert den > 0 and gcd(den, *ints) == 1
        for name in ("contact_vector", "transversal_point", "line_values", "bridge"):
            assert getattr(cert, name) == ref[name], name

    @pytest.mark.parametrize("pivot", [0, 1, 2])
    @pytest.mark.parametrize("case", ["line restricts to zero", "two lines meet at one point"])
    def test_no_certificate_without_seven_points(self, pivot, case):
        if case == "line restricts to zero":
            # six lines summing to zero (six_term_vanishing_check) plus the base line itself
            slopes = (0, 1, 3, -2, Fraction(1, 2), 5)
            (alpha,) = vandermonde_nullspace(VandermondeSystem(slopes, (4,)))[0]
            lifts = tuple(2 - Fraction(3, 2) * h for h in slopes)
            terms = tuple(
                (a, HomogeneousForm.linear((1, h, k))) for a, h, k in zip(alpha, slopes, lifts)
            )
            dec = WaringDecomposition(terms + ((Fraction(1), X2),))
        else:
            # four lines on slope 0 and three on slope 1, as in
            # TestTangencyCertificate.test_repeated_intersection_points_rejected
            dec = CoordinateInstance(
                (0, 0, 0, 0, 1, 1, 1), (0, 1, -1, 2, 0, 1, -1), (-5, 1, 3, 1, 2, -1, -1)
            ).to_decomposition()
        dec, line = moved(dec, pivot_change(random.Random(pivot), pivot))
        report = analyze(dec, line)
        assert report.divisible and not report.cofactor.is_zero()
        assert report.certificate is None
        assert reference_certificate(dec, line) is None


class TestCoercion:
    """Slopes, lifts and weights read back as Fractions whatever ints or
    Fractions they are given as; an instance and a decomposition store them
    as canonical pairs; a float is refused."""

    VALUES = (
        [3, -1, 0, 2, 5, -4, 1],
        [Fraction(x) for x in (3, -1, 0, 2, 5, -4, 1)],
        [3, Fraction(-1), 0, Fraction(2), 5, Fraction(-4), 1],
    )

    def test_coordinate_instance(self):
        built = [CoordinateInstance(v, v[::-1], v) for v in self.VALUES]
        assert built[0] == built[1] == built[2]
        for inst in built:
            for field in (inst.slopes, inst.lifts, inst.weights):
                assert all(type(x) is Fraction for x in field)
        given = Fraction(7, 3)
        assert CoordinateInstance((given,) * 7, (0,) * 7, (1,) * 7).slopes[0] == given

    def test_instance_from_fractions_equals_instance_from_ints(self):
        # the same rationals as Fractions, as ints over a common den, and as a
        # pair that is not canonical: one instance, which reads them back alike
        slopes = [Fraction(k, 3) for k in range(-3, 4)]
        lifts = [Fraction(1, 2), Fraction(-2, 5), 0, 1, Fraction(7, 10), -3, Fraction(1, 5)]
        weights = [2, -11, 25, -30, 20, -7, 1]
        from_fractions = CoordinateInstance(slopes, lifts, [Fraction(w) for w in weights])
        from_ints = CoordinateInstance(slopes, lifts, weights)
        from_pairs = CoordinateInstance(
            (3, tuple(range(-3, 4))), (-20, (-10, 8, 0, -20, -14, 60, -4)), (2, tuple(2 * w for w in weights))
        )
        assert from_fractions == from_ints == from_pairs
        assert hash(from_fractions) == hash(from_ints) == hash(from_pairs)
        assert from_ints.cleared_lifts == (10, (5, -4, 0, 10, 7, -30, 2))
        for inst in (from_fractions, from_ints, from_pairs):
            assert (inst.slopes, inst.lifts, inst.weights) == (tuple(slopes), tuple(lifts), tuple(weights))
            assert all(type(x) is Fraction for x in inst.slopes + inst.lifts + inst.weights)

    def test_waring_decomposition(self):
        line = HomogeneousForm.linear((1, 2, 3))
        built = [WaringDecomposition(tuple((w, line) for w in v)) for v in self.VALUES]
        assert built[0] == built[1] == built[2]
        assert built[0].cleared_weights == built[1].cleared_weights == (1, (3, -1, 0, 2, 5, -4, 1))
        given = Fraction(-5, 2)
        dec = WaringDecomposition(((given, line), (1, line)))
        assert dec.cleared_weights == (2, (-5, 2)) and decomposition_terms(dec)[0][0] == given

    def test_waring_decomposition_from_pairs_or_terms(self):
        # an instance's pairs, its terms as forms and non-canonical pairs of
        # the same rationals give one decomposition, with the forms' cleared rows
        rng = random.Random(5)
        for trial in range(40):
            params = tuple(random_fraction(rng) for _ in range(3))
            inst = generate_tangent_instance(sample_nodes(rng, 7), params, seed=trial).instance
            dec = inst.to_decomposition()
            lines = [HomogeneousForm.linear((1, h, k)) for h, k in zip(inst.slopes, inst.lifts)]
            from_terms = WaringDecomposition(tuple(zip(inst.weights, lines)))
            assert dec == from_terms and hash(dec) == hash(from_terms)
            assert dec.cleared_rows == cleared_rows(lines)
            (wd, ws), (ld, rows) = dec.pairs
            scaled = ((-3 * wd, tuple(-3 * w for w in ws)), (2 * ld, tuple(tuple(2 * c for c in r) for r in rows)))
            assert WaringDecomposition(scaled) == dec

    @pytest.mark.parametrize(
        "pairs",
        [((1, (1, 1)), (1, ((1, 0, 0),))), ((1, (1,)), (1, ((1, 0),))), ((1, (1,)), (1, ((1, 0, 0, 0),)))],
        ids=["two-weights-one-row", "short-row", "long-row"],
    )
    def test_waring_decomposition_pairs_of_other_shapes_refused(self, pairs):
        with pytest.raises(StructuralError, match="one weight per row, each row of length 3"):
            WaringDecomposition(pairs)

    @pytest.mark.parametrize(
        "terms",
        [((1, (1, 0, 0)),), [[1, [1, 0, 0]], [2, [0, 1, 0]]], [[1, [1]], [1, [[1, 0, 0]]]]],
        ids=["coefficient-tuple", "terms-as-lists", "pairs-as-lists"],
    )
    def test_terms_that_are_not_forms_refused(self, terms):
        # a term's second entry is a HomogeneousForm; the canonical pairs are tuples
        with pytest.raises(StructuralError) as info:
            WaringDecomposition(terms)
        assert str(info.value) == "decomposition terms must be linear forms in three variables"

    def test_generate_tangent_instance(self, monkeypatch):
        built = [generate_tangent_instance(v, v[:3], seed=2).instance for v in self.VALUES]
        assert built[0] == built[1] == built[2]
        assert all(type(h) is Fraction for h in built[0].slopes)
        slopes = tuple(Fraction(h, 3) for h in self.VALUES[0])
        params = (Fraction(1, 2), Fraction(-3), Fraction(2, 7))
        cleared = count_clearings(monkeypatch)
        inst = generate_tangent_instance(slopes, params, seed=2).instance
        assert inst.slopes == slopes and inst.cleared_slopes == (3, tuple(self.VALUES[0]))
        # the parameters reach their one clearing as the given objects
        [passed] = [args[0] for args in cleared if len(args[0]) == 3]
        assert all(p is given for p, given in zip(passed, params))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: HomogeneousForm.linear((0.5, 0, 1)),
            lambda: HomogeneousForm.from_terms(3, 1, {(1, 0, 0): 0.5}),
            lambda: BinaryQuadratic((1, (1, 0, 1))).polar((0.5, 0), (1, 0)),
            lambda: embed_in_plane(X2, (0.5, 1)),
            lambda: WaringDecomposition(((0.5, X2),)),
            lambda: CoordinateInstance((0.5, 1, 2, 3, 4, 5, 6), (0,) * 7, (1,) * 7),
            lambda: generate_tangent_instance((0.5, 1, 2, 3, 4, 5, 6), (1, 0, 0), seed=1),
            lambda: generate_tangent_instance(range(7), (1, 0.5, 0), seed=1),
            lambda: generate_six_term_family((0.5, 1), seed=1),
            lambda: six_term_vanishing_check((0.5, 1, 2, 3, 4, 5)),
            lambda: verify_identity_slice((0.5, 1, 2, 3, 4, 5, 6)),
            lambda: weighted_moment_kernel(range(6), (1, 1, 0.5, 1, 1, 1), 3),
            lambda: HomogeneousForm.linear((1, 0, 0)) * 0.5,
            lambda: 0.5 * HomogeneousForm.linear((1, 0, 0)),
        ],
        ids=[
            "linear", "from_terms", "polar", "embed_in_plane",
            "WaringDecomposition", "CoordinateInstance",
            "tangent-slopes", "tangent-params", "six-term-family", "six-term-check",
            "identity-slice", "weighted-moment-kernel", "form-times-float", "float-times-form",
        ],
    )
    def test_floats_refused(self, build):
        # exactness: a float such as 0.1 is not the rational it is written as
        with pytest.raises(InvalidInputError, match="expected an int or a Fraction, got 0.5"):
            build()

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: CoordinateInstance((0, SEVEN), (1, (0,) * 7), (1, (1,) * 7)), "nonzero den"),
            (lambda: CoordinateInstance(SEVEN, (0,) * 7, (0, (1,) * 7)), "nonzero den"),
            (lambda: CoordinateInstance((1, (0.5, *SEVEN[1:])), (0,) * 7, (1,) * 7), "pair of ints"),
            (lambda: CoordinateInstance(SEVEN, (2.0, (0,) * 7), (1,) * 7), "pair of ints"),
            (lambda: BinaryQuadratic((0, (1, 0, 1))), "nonzero den"),
            (lambda: BinaryQuadratic((1, (1, 0.5, 0))), "pair of ints"),
            (lambda: BinaryQuadratic((2, (1, Fraction(1, 2), 0))), "pair of ints"),
            (lambda: WaringDecomposition(((0, (1,)), (1, ((1, 0, 0),)))), "nonzero den"),
            (lambda: WaringDecomposition(((1, (1,)), (0, ((1, 0, 0),)))), "nonzero den"),
            (lambda: WaringDecomposition(((1, (0.5,)), (1, ((1, 0, 0),)))), "pair of ints"),
            (lambda: WaringDecomposition(((1, (1,)), (1, ((1, Fraction(1, 2), 0),)))), "pair of ints"),
        ],
        ids=[
            "instance-slopes-zero-den", "instance-weights-zero-den", "instance-float",
            "instance-float-den", "BinaryQuadratic-zero-den", "BinaryQuadratic",
            "BinaryQuadratic-fraction", "decomposition-weights-zero-den", "decomposition-rows-zero-den",
            "decomposition-float", "decomposition-fraction",
        ],
    )
    def test_pairs_refused(self, build, message):
        # a (den, ints) pair is checked where it enters: a zero den has no
        # value, and an entry that is not an int is not a cleared rational
        with pytest.raises(InvalidInputError, match=message):
            build()


class TestTangencyDefect:
    def test_flagship_is_zero(self):
        assert tangency_defect(flagship_instance()) == 0

    def test_zero_lifts(self):
        inst = CoordinateInstance(
            tuple(range(7)), (0,) * 7, (1, 2, 3, 4, 5, 6, 7)
        )
        assert tangency_defect(inst) == 0

    def test_single_support_values(self):
        inst = CoordinateInstance(
            tuple(range(7)), (1, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0)
        )
        assert tangency_defect(inst) == 0
        shifted = CoordinateInstance(
            tuple(range(1, 8)), (1, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0)
        )
        assert tangency_defect(shifted) == 0

    def test_nontrivial_value(self):
        inst = CoordinateInstance(
            (1, 2, 3, 4, 5, 6, 7), (1, 1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0)
        )
        assert tangency_defect(inst) == (1 + 2) ** 2 - 2 * (1 + 4) == -1

    def test_matches_fraction_oracle(self):
        # slope denominators 1, 2, 3 and 5, fractional lifts and weights, and
        # zero lifts and weights: every cleared denominator is exercised
        rng = random.Random(613)
        nonzero = 0
        for trial in range(200):
            n = 6 + trial % 2
            slopes = sample_nodes(rng, n)
            lifts = [random_fraction(rng, 9, 7) for _ in range(n)]
            weights = [random_fraction(rng, 9, 7) for _ in range(n)]
            if trial % 5 == 0:
                lifts[rng.randrange(n)] = weights[rng.randrange(n)] = Fraction(0)
            if trial % 50 == 1:
                lifts = [Fraction(0)] * n
            if trial % 50 == 2:
                weights = [Fraction(0)] * n
            inst = CoordinateInstance(slopes, lifts, weights)
            defect = tangency_defect(inst)
            assert type(defect) is Fraction
            assert defect == reference_tangency_defect(inst)
            nonzero += defect != 0
        assert nonzero > 150


class TestDiscriminantBridge:
    def test_symbolic_identity(self):
        # 21 symbols: slopes, lifts, weights of a seven-term instance
        slope = [packed_variable(i) for i in range(7)]
        lift = [packed_variable(7 + i) for i in range(7)]
        weight = [packed_variable(14 + i) for i in range(7)]
        sums = []
        for p in range(3):
            acc: sympoly.Poly = {}
            for i in range(7):
                term = sympoly.mul(weight[i], sympoly.mul(lift[i], lift[i]))
                term = sympoly.mul(term, sympoly.power(slope[i], p))
                acc = sympoly.add(acc, term)
            sums.append(acc)
        cross = sympoly.mul(sums[0], sums[2])
        defect = sympoly.add(sympoly.mul(sums[1], sums[1]), sympoly.scale(cross, -1))
        a = sympoly.scale(sums[0], 6)
        b = sympoly.scale(sums[1], 12)
        c = sympoly.scale(sums[2], 6)
        discriminant = sympoly.add(sympoly.mul(b, b), sympoly.scale(sympoly.mul(a, c), -4))
        assert sympoly.add(sympoly.scale(defect, 144), sympoly.scale(discriminant, -1)) == {}

    def test_numeric_bridge_through_forms(self):
        rng = random.Random(53)
        for _ in range(200):
            slopes = sample_nodes(rng, 7)
            lifts = tuple(random_fraction(rng) for _ in range(7))
            weights = tuple(random_fraction(rng) for _ in range(7))
            inst = CoordinateInstance(slopes, lifts, weights)
            quad = HomogeneousForm.zero(2, 2)
            for h, k, w in zip(slopes, lifts, weights):
                quad = quad + (6 * w * k * k) * HomogeneousForm.linear((1, h)) ** 2
            disc = BinaryQuadratic.from_form(quad).discriminant()
            assert disc == 144 * tangency_defect(inst)


class TestIdentitySlice:
    def test_standard_slice(self):
        report = verify_identity_slice(tuple(range(7)))
        assert report.is_zero
        assert report.alpha_dim == 2 and report.beta_dim == 3
        assert report.expanded_monomials > 0
        assert report.node_difference_product != 0

    def test_second_slice(self):
        assert verify_identity_slice((0, 1, 2, 3, 4, 5, -1)).is_zero

    def test_fraction_slice(self):
        slopes = (0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))
        assert verify_identity_slice(slopes).is_zero

    def test_negative_control(self):
        report = verify_identity_slice(tuple(range(7)), perturb=True)
        assert not report.is_zero
        assert report.residue

    def test_repeated_nodes(self):
        with pytest.raises(DegenerateNodesError):
            verify_identity_slice((0, 1, 2, 3, 4, 5, 5))

    def test_builds_only_the_products_it_reads(self, monkeypatch):
        # six prefix and six suffix products and two per term, beta_i**2 and
        # the other six weights: 26 muls; each term is added into the three
        # sums by one add_product, and both big products are one walk; the
        # perturbed control adds the product of all seven weight polynomials
        # and its square, and nothing else
        count, residue, perturbed = fraction_identity_expansion(range(7))
        calls = count_calls(monkeypatch, sympoly, "mul")
        added = count_calls(monkeypatch, sympoly, "add_product")
        walks = count_calls(monkeypatch, sympoly, "square_and_cross")
        report = verify_identity_slice(tuple(range(7)))
        assert (len(calls), len(added), len(walks)) == (26, 7, 1)
        assert report.is_zero and not residue
        assert report.expanded_monomials == count
        control = verify_identity_slice(tuple(range(7)), perturb=True)
        assert (len(calls), len(added), len(walks)) == (26 + 28, 7 + 7, 1 + 1)
        assert calls[-1][0] is calls[-1][1]  # the full product's square
        assert not control.is_zero and perturbed
        assert control.expanded_monomials == count

    @pytest.mark.parametrize(
        "slopes", ACCEPTANCE_SLICES + [sample_nodes(random.Random(3000 + k), 7) for k in range(20)]
    )
    @pytest.mark.parametrize("perturb", [False, True])
    def test_residue_is_the_whole_product_formula(self, slopes, perturb):
        # key for key the residue of whole sympoly.mul products, with the
        # primitive parts p_k of the sums s_k and their gcds g_k:
        # g1**2 * p1 * p1 - g0 * g2 * p0 * p2, plus the control's term
        count, residue = whole_product_residue(slopes, perturb)
        report = verify_identity_slice(slopes, perturb=perturb)
        assert report.residue == residue
        assert report.expanded_monomials == count
        assert report.is_zero is not perturb

    @pytest.mark.parametrize("slopes", ACCEPTANCE_SLICES + MIXED_SIGN_FRACTION_SLICES)
    def test_node_difference_product_is_the_fraction_product(self, slopes):
        # the product is taken on the cleared nodes D * h_i over D**21; the
        # oracle multiplies the 21 Fraction differences h_i - h_j, i < j
        hs = [Fraction(h) for h in slopes]
        expected = Fraction(1)
        for i in range(7):
            for j in range(i + 1, 7):
                expected *= hs[i] - hs[j]
        assert verify_identity_slice(slopes).node_difference_product == expected

    @pytest.mark.parametrize(
        "slopes",
        ACCEPTANCE_SLICES + [sample_nodes(random.Random(1000 + k), 7) for k in range(12)],
    )
    def test_integer_expansion_rescales_fraction_expansion(self, slopes):
        count, residue, perturbed = fraction_identity_expansion(slopes)
        report = verify_identity_slice(slopes)
        control = verify_identity_slice(slopes, perturb=True)
        assert report.expanded_monomials == control.expanded_monomials == count
        assert report.is_zero and not residue
        assert not control.is_zero and perturbed
        # coordinate j scaled by c_j and slopes by den: the residue is
        # den^2 * prod c_j^e_j times the Fraction coefficient, monomial by monomial
        hs = [Fraction(h) for h in slopes]
        den = lcm(*(h.denominator for h in hs))
        scales = [
            lcm(*(x.denominator for x in vec))
            for basis in vandermonde_nullspace(VandermondeSystem(hs, (4, 3)))
            for vec in basis
        ]
        expected = {
            term: den**2 * prod(c**e for c, e in zip(scales, term)) * coeff
            for term, coeff in perturbed.items()
        }
        assert unpack(control.residue, len(scales), sympoly.BITS) == expected


class TestSixTermVanishing:
    def test_consecutive_slopes(self):
        report = six_term_vanishing_check(tuple(range(6)))
        assert report.passed
        assert report.annihilator == (1, -5, 10, -10, 5, -1)
        assert report.quartic_vanishes and report.family_is_translations

    def test_repeated_slopes(self):
        with pytest.raises(DegenerateNodesError):
            six_term_vanishing_check((0, 0, 1, 2, 3, 4))

    def test_random_slopes(self):
        rng = random.Random(59)
        for _ in range(10):
            assert six_term_vanishing_check(sample_nodes(rng, 6)).passed

    @pytest.mark.parametrize("seed", range(12))
    def test_integer_expansion_agrees_with_fraction_expansion(self, seed):
        # the five integer moments decide what the Fraction expansion decides
        slopes = sample_nodes(random.Random(2000 + seed), 6)
        report = six_term_vanishing_check(slopes)
        assert report.quartic_vanishes == (not fraction_six_term_quartic(slopes))

    def test_off_kernel_annihilator_leaves_a_quartic(self, monkeypatch):
        # M_0..M_3 vanish and M_4 = 24 does not: only the degree-4 moment
        # tells this vector from a kernel vector
        wrong_kernel(monkeypatch, "off-kernel")
        report = six_term_vanishing_check(range(6))
        assert report.annihilator == (2, -9, 16, -14, 6, -1)
        assert report.all_weights_nonzero and not report.quartic_vanishes
        assert fraction_six_term_quartic(range(6), report.annihilator)

    @pytest.mark.parametrize("seed", range(12))
    def test_integer_rank_agrees_with_fraction_rref(self, seed):
        slopes = sample_nodes(random.Random(3000 + seed), 6)
        assert any(h.denominator > 1 for h in slopes)
        report = six_term_vanishing_check(slopes)
        assert report.family_is_translations is reference_family_is_translations(slopes) is True

    @pytest.mark.parametrize("fault", ["degree-2", "one-entry"])
    def test_wrong_family_fails_both_comparisons(self, monkeypatch, fault):
        wrong_kernel(monkeypatch, fault)
        slopes = (Fraction(-1, 2), 0, Fraction(1, 3), 1, 2, Fraction(7, 5))
        report = six_term_vanishing_check(slopes)
        assert report.family_is_translations is reference_family_is_translations(slopes) is False
        assert report.all_weights_nonzero and not report.passed

    def test_zero_annihilator_entry_is_no_match(self, monkeypatch):
        # a zero weight leaves b / alpha undefined: reported, not raised
        wrong_kernel(monkeypatch, "zero-annihilator")
        report = six_term_vanishing_check(range(6))
        assert report.annihilator[0] == 0
        assert not report.all_weights_nonzero and not report.family_is_translations


class TestTwoValueCollapse:
    def test_reference_instance(self):
        inst = CoordinateInstance(
            (0, 0, 0, 1, 1, 1), (0, 1, -1, 0, 1, -1), (2, -1, -1, 2, -1, -1)
        )
        report = two_value_collapse_check(inst)
        assert report.applicable
        assert report.slope_counts == ((Fraction(0), 3), (Fraction(1), 3))
        assert report.conic_rank == 3 and report.tangent is False

    def test_generated_families(self):
        rng = random.Random(61)
        for seed in range(8):
            pair = tuple(rng.sample(sample_nodes(rng, 6), 2))
            inst = generate_six_term_family(pair, seed=seed)
            report = two_value_collapse_check(inst)
            assert report.applicable

    def test_distinct_slopes_are_vacuous(self):
        # with six distinct slopes the value collapses to zero, so the
        # nondegenerate branch is unreachable
        rng = random.Random(67)
        inst = moment_solution(rng, tuple(Fraction(i) for i in range(6)))
        report = two_value_collapse_check(inst)
        assert not report.applicable
        assert report.conic_rank == 0

    def test_not_double_line_rejected(self):
        inst = CoordinateInstance(
            (0, 1, 2, 3, 4, 5), (0,) * 6, (1, 1, 1, 1, 1, 1)
        )
        with pytest.raises(PreconditionError):
            two_value_collapse_check(inst)

    @pytest.mark.parametrize(
        "inst, message",
        [
            (ZERO_WEIGHT_TRIPLES, "a weight vanishes on a nondegenerate instance"),
            (
                CoordinateInstance((0, 0, 1, 1, 1, 1), (0, 1, -1, 0, 1, -1), (2, -1, -1, 2, -1, -1)),
                "slopes do not collapse to two triples",
            ),
        ],
        ids=["zero-weight", "not-two-triples"],
    )
    def test_violation_fires(self, monkeypatch, inst, message):
        # no genuine instance reaches either raise, so analyze reports the
        # nondegenerate case for instances that are not in it
        nondegenerate_analysis(monkeypatch)
        with pytest.raises(TheoremViolationError, match=message):
            two_value_collapse_check(inst)


class TestGenerators:
    def test_six_term_family_valid(self):
        from doubleline.forms import conic_rank

        inst = generate_six_term_family((0, 2), seed=3)
        q = extract_cofactor(inst.to_decomposition().value(), line_x2())
        assert conic_rank(q) == 3

    def test_six_term_equal_pair_rejected(self):
        with pytest.raises(InvalidInputError):
            generate_six_term_family((1, 1), seed=0)

    def test_six_term_deterministic(self):
        assert generate_six_term_family((0, 1), seed=5) == generate_six_term_family((0, 1), seed=5)

    def test_tangent_instance_flagship_parameters(self):
        slopes = tuple(Fraction(i) for i in range(7))
        generated = generate_tangent_instance(slopes, (1, 0, 0), seed=2)
        inst = generated.instance
        assert tangency_defect(inst) == 0
        if not generated.quartic.cofactor.is_zero():
            restricted = restrict(generated.quartic.cofactor, line_x2())
            flag, _ = BinaryQuadratic.from_form(restricted).tangency()
            assert flag is True

    def test_tangent_instance_zero_params(self):
        slopes = tuple(Fraction(i) for i in range(7))
        generated = generate_tangent_instance(slopes, (0, 0, 0), seed=2)
        assert generated.quartic.cofactor.is_zero()
        assert generated.quartic.target.is_zero()

    def test_tangent_instance_repeated_slopes(self):
        with pytest.raises(DegenerateNodesError):
            generate_tangent_instance((0, 0, 1, 2, 3, 4, 5), (1, 0, 0), seed=1)

    def test_tangent_instance_deterministic(self):
        slopes = tuple(Fraction(i) for i in range(7))
        a = generate_tangent_instance(slopes, (1, 2, 3), seed=9)
        b = generate_tangent_instance(slopes, (1, 2, 3), seed=9)
        assert a.instance == b.instance and a.weight_retries == b.weight_retries

    def test_tangent_instance_matches_fraction_oracle(self):
        rng = random.Random(769)
        retried = 0
        for seed in range(100):
            slopes = sample_nodes(rng, 7)
            params = [random_fraction(rng, 6, 4) for _ in range(3)]
            generated = generate_tangent_instance(slopes, params, seed=seed)
            instance, retries = reference_tangent_instance(slopes, params, seed)
            assert generated.instance == instance
            assert generated.weight_retries == retries
            retried += retries > 0
        assert retried > 0

    def test_generators_derive_nothing(self, monkeypatch):
        extractions = count_calls(monkeypatch, engine, "extract_cofactor")
        ranks = count_calls(monkeypatch, engine, "conic_rank")
        generate_tangent_instance(tuple(range(7)), (1, 2, 3), seed=9)
        generate_six_term_family((0, 2), seed=3)
        assert extractions == [] and ranks == []

    def test_tangent_instance_quartic_is_read_once(self, monkeypatch):
        generated = generate_tangent_instance(tuple(range(7)), (1, 2, 3), seed=9)
        extractions = count_calls(monkeypatch, engine, "extract_cofactor")
        first = generated.quartic
        assert generated.quartic is first
        assert len(extractions) == 1
        value = generated.instance.to_decomposition().value()
        direct = DoubleLineQuartic(
            line=line_x2(), cofactor=extract_cofactor(value, line_x2()), target=value
        )
        assert first == direct and not first.cofactor.is_zero()

    def test_weight_sampling_exhausted(self, monkeypatch):
        monkeypatch.setattr(engine, "MAX_WEIGHT_SAMPLES", 0)
        with pytest.raises(GenerationFailureError, match="could not sample weights"):
            generate_tangent_instance(tuple(range(7)), (1, 2, 3), seed=9)


class TestAnalyze:
    def test_reference_decomposition(self):
        report = analyze(reference_decomposition(), line_x2())
        assert report.divisible
        assert report.conic_rank == 3
        assert report.tangent is False
        assert report.certificate is None

    def test_generated_instance_attaches_certificate(self):
        slopes = tuple(Fraction(i) for i in range(7))
        generated = generate_tangent_instance(slopes, (1, 0, 0), seed=5)
        assert not generated.quartic.cofactor.is_zero()
        report = analyze(generated.instance.to_decomposition(), line_x2())
        assert report.divisible and report.tangent is True
        assert isinstance(report.certificate, TangencyCertificate)
        assert report.tangency_point == report.certificate.tangency_point
        # the builder rebuilds this certificate from scratch on a fresh
        # decomposition and its own restriction of the cofactor
        terms = decomposition_terms(generated.instance.to_decomposition())
        fresh = WaringDecomposition(tuple((w, HomogeneousForm.linear(coeffs)) for w, coeffs in terms))
        cofactor = extract_cofactor(fresh.value(), line_x2())
        restricted = BinaryQuadratic.from_form(restrict(cofactor, line_x2()))
        assert tangency_certificate(fresh, line_x2(), restricted) == report.certificate

    def test_not_double_line_reported(self):
        dec = WaringDecomposition(((Fraction(1), HomogeneousForm.linear((1, 0, 0))),))
        report = analyze(dec, line_x2())
        assert not report.divisible
        assert report.remainder == parse_form("x0^4", 3)
        assert report.cofactor is None


class TestRoundTrips:
    def test_line_x2_is_one_shared_form(self):
        # a form cannot be changed, so every caller may share the one x2
        assert line_x2() is line_x2()
        assert line_x2() == HomogeneousForm.linear((0, 0, 1)) == parse_form("x2", 3)

    def test_coordinate_round_trip_and_exact_cofactor(self):
        rng = random.Random(71)
        for trial in range(200):
            n = 6 if trial % 2 == 0 else 7
            inst = moment_solution(rng, sample_nodes(rng, n))
            dec = inst.to_decomposition()
            assert tuple(w for w, _ in decomposition_terms(dec)) == inst.weights
            lines = [coeffs for _, coeffs in decomposition_terms(dec)]
            assert lines == [(1, h, k) for h, k in zip(inst.slopes, inst.lifts)]
            value = dec.value()
            q = extract_cofactor(value, line_x2())
            assert line_x2() ** 2 * q == value

    def test_instance_size_validation(self):
        with pytest.raises(StructuralError):
            CoordinateInstance((0, 1), (0, 0), (1, 1))
        with pytest.raises(StructuralError):
            CoordinateInstance((0, 1, 2, 3, 4, 5), (0,) * 5, (1,) * 6)


class TestDoubleLineQuartic:
    def test_of_constructor(self):
        q = parse_form("x0^2 + x1^2", 3)
        target = parse_form("x0^2*x2^2 + x1^2*x2^2", 3)
        dl = DoubleLineQuartic(line=X2, cofactor=q, target=target)
        assert dl.target == X2**2 * q

    def test_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            DoubleLineQuartic(line=X2, cofactor=parse_form("x0^2", 3), target=parse_form("x0^4", 3))
