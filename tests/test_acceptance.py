"""Acceptance suite: one test per criterion, exact tolerances, stated budgets.

Every check is an exact rational equality (zero tolerance).  Each test prints
one PASS/FAIL line with its elapsed time; the stated time budgets are asserted
as hard bounds.
"""

import io
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from conftest import sample_nodes

from doubleline.cli import main, parse_document
from doubleline.engine import (
    CoordinateInstance,
    WaringDecomposition,
    analyze,
    generate_tangent_instance,
    line_x2,
    power_kernel,
    six_term_vanishing_check,
    tangency_defect,
    verify_identity_slice,
)
from doubleline.forms import (
    BinaryQuadratic,
    FormTuple,
    HomogeneousForm,
    conic_rank,
    parse_form,
    restrict,
)
from doubleline.linalg import (
    VandermondeSystem,
    vandermonde_nullspace,
    weighted_moment_kernel,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def budget(name: str, limit_s: float):
    """Context manager asserting the stated runtime budget and printing a line."""

    class _Budget:
        def __enter__(self):
            self.started = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.perf_counter() - self.started
            status = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s, budget {limit_s}s)")
            if exc_type is None:
                assert elapsed < limit_s, f"{name} exceeded {limit_s}s ({elapsed:.2f}s)"
            return False

    return _Budget()


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def test_criterion_1_example_reproduction():
    with budget("1 example-reproduction", 1.0):
        lines = [
            (2, (1, 0, 0)), (-1, (1, 0, 1)), (-1, (1, 0, -1)),
            (2, (1, 1, 0)), (-1, (1, 1, 1)), (-1, (1, 1, -1)),
        ]
        dec = WaringDecomposition(
            tuple((Fraction(w), HomogeneousForm.linear(c)) for w, c in lines)
        )
        conic = parse_form("6*x0^2 + 6*x0*x1 + 3*x1^2 + x2^2", 3)
        assert dec.value() == Fraction(-4) * conic * HomogeneousForm.variable(3, 2) ** 2
        assert conic_rank(conic) == 3
        restricted = BinaryQuadratic.from_form(restrict(conic, line_x2()))
        assert restricted.discriminant() == -36
        code, out = run_cli(["example"])
        assert code == 0 and "result: pass" in out


def test_criterion_2_kernel_dimension_law():
    with budget("2 kernel-dimension-law", 10.0):
        rng = random.Random(101)
        for _ in range(100):
            slopes = sample_nodes(rng, 7)
            L = FormTuple(tuple(HomogeneousForm.linear((1, h)) for h in slopes))
            for d in range(7):
                assert power_kernel(L, d).dimension == 6 - d
            generator = power_kernel(L, 5).vectors[0]
            assert all(x != 0 for x in generator)


def test_criterion_3_vandermonde_closed_form():
    with budget("3 vandermonde-closed-form", 10.0):
        rng = random.Random(103)
        for trial in range(100):
            n = 6 if trial % 2 == 0 else 7
            nodes = sample_nodes(rng, n)
            basis = vandermonde_nullspace(VandermondeSystem(nodes, (n - 2,)))[0]
            assert len(basis) == 1
            closed = []
            for h in nodes:
                prod = Fraction(1)
                for g in nodes:
                    if g != h:
                        prod *= h - g
                closed.append(1 / prod)
            found = basis[0]
            ref = next(i for i, x in enumerate(closed) if x != 0)
            assert all(
                found[i] * closed[ref] == closed[i] * found[ref] for i in range(n)
            )


def test_criterion_4_six_term_claim():
    with budget("4 six-term-claim", 30.0):
        rng = random.Random(107)
        slope_sets = [tuple(Fraction(i) for i in range(6))]
        slope_sets += [sample_nodes(rng, 6) for _ in range(50)]
        for slopes in slope_sets:
            report = six_term_vanishing_check(slopes)
            assert report.quartic_vanishes
            assert report.family_is_translations
            assert report.all_weights_nonzero


def test_criterion_5_main_theorem():
    with budget("5 main-theorem", 60.0):
        rng = random.Random(109)
        checked = 0
        trial = 0
        while checked < 100:
            trial += 1
            slopes = sample_nodes(rng, 7)
            params = tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)
            )
            generated = generate_tangent_instance(slopes, params, seed=trial)
            if generated.quartic.cofactor.is_zero():
                continue
            inst = generated.instance
            # path 1: the exact defect
            assert tangency_defect(inst) == 0
            # path 2: independent discriminant test on the cofactor
            report = analyze(inst.to_decomposition(), line_x2())
            assert report.tangent is True
            # path 3: constructive certificate
            cert = report.certificate
            assert cert is not None
            cert.verify()
            assert cert.restricted_conic == BinaryQuadratic.from_form(
                restrict(generated.quartic.cofactor, line_x2())
            )
            for u in ((1, 0), (0, 1)):
                assert cert.restricted_conic.polar(cert.contact_vector, u) == 0
            checked += 1


def test_criterion_6_specialized_identity():
    slices = [
        tuple(Fraction(i) for i in range(7)),
        tuple(Fraction(v) for v in (0, 1, 2, 3, 4, 5, -1)),
        (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2)),
    ]
    for idx, slopes in enumerate(slices):
        with budget(f"6 specialized-identity-slice-{idx}", 300.0):
            assert verify_identity_slice(slopes).is_zero
            assert not verify_identity_slice(slopes, perturb=True).is_zero


def test_criterion_7_discriminant_bridge():
    with budget("7 discriminant-bridge", 10.0):
        rng = random.Random(113)
        for trial in range(500):
            slopes = sample_nodes(rng, 7)
            if trial % 2 == 0:
                # genuine moment-system solution
                alpha_basis = vandermonde_nullspace(VandermondeSystem(slopes, (4,)))[0]
                weights = None
                while weights is None or any(w == 0 for w in weights):
                    weights = tuple(
                        rng.randint(-9, 9) * u + rng.randint(-9, 9) * v
                        for u, v in zip(alpha_basis[0], alpha_basis[1])
                    )
                kernel = weighted_moment_kernel(slopes, weights, 3)
                coords = [Fraction(rng.randint(-5, 5)) for _ in kernel.basis]
                lifts = tuple(
                    sum((c * vec[i] for c, vec in zip(coords, kernel.basis)), Fraction(0))
                    for i in range(7)
                )
            else:
                # arbitrary non-solution
                weights = tuple(Fraction(rng.randint(-9, 9)) for _ in range(7))
                lifts = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(7))
            inst = CoordinateInstance(slopes, lifts, weights)
            quad = HomogeneousForm.zero(2, 2)
            for h, k, w in zip(slopes, lifts, weights):
                quad = quad + (6 * w * k * k) * HomogeneousForm.linear((1, h)) ** 2
            assert BinaryQuadratic.from_form(quad).discriminant() == 144 * tangency_defect(inst)


def test_criterion_8_determinism_and_format():
    with budget("8 determinism-and-format", 60.0):
        commands = [
            ["example"],
            ["verify", str(FIXTURES / "example.json")],
            ["verify", str(FIXTURES / "tangent7.json")],
            ["theorem-check", "--trials", "5", "--seed", "7"],
            ["identity-check", "--h", "0,1,2,3,4,5,6"],
            ["claim-check", "--h", "0,1,2,3,4,5"],
            ["claim-check", "--random", "3", "--seed", "3"],
        ]
        for argv in commands:
            for mode in ([], ["--json"]):
                first = run_cli(argv + mode)
                second = run_cli(argv + mode)
                assert first == second
                assert first[0] == 0
        # document round-trip
        from doubleline.cli import DecompositionDocument, render_document
        from conftest import random_fraction

        rng = random.Random(127)
        for _ in range(100):
            doc = DecompositionDocument(
                variables=("x0", "x1", "x2"),
                line=tuple(random_fraction(rng) for _ in range(3)),
                terms=tuple(
                    (random_fraction(rng), tuple(random_fraction(rng) for _ in range(3)))
                    for _ in range(rng.choice([1, 6, 7]))
                ),
            )
            assert parse_document(render_document(doc)) == doc
