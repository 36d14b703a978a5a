"""Shared oracles and sampling helpers for the test suite."""

from __future__ import annotations

import random
import warnings
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm, prod

from hypothesis import settings

from doubleline import engine, forms, linalg, sympoly
from doubleline.errors import GenerationFailureError
from doubleline.forms import BinaryQuadratic
from doubleline.linalg import VandermondeSystem, vandermonde_nullspace

settings.register_profile("exact", deadline=None)
settings.load_profile("exact")

# When a @given test fails, Hypothesis's pytest plugin imports its patch
# writer, whose libcst import warns that mypy_extensions.TypedDict is
# deprecated; under filterwarnings = error that warning would end the session
# as INTERNALERROR before the falsifying example is shown.  Import it once
# here with only that warning silenced, so a failure is reported as one.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    import hypothesis.extra._patching  # noqa: F401


def determinant(rows: list[list[Fraction]]) -> Fraction:
    """Cofactor-expansion determinant; independent of the elimination code."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    sign = 1
    for j in range(n):
        if rows[0][j]:
            minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
            total += sign * rows[0][j] * determinant(minor)
        sign = -sign
    return total


def minor_rank(rows: list[list[Fraction]]) -> int:
    """Rank as the largest size of a nonzero minor (brute force)."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    for k in range(min(nrows, ncols), 0, -1):
        for row_idx in combinations(range(nrows), k):
            for col_idx in combinations(range(ncols), k):
                sub = [[rows[i][j] for j in col_idx] for i in row_idx]
                if determinant(sub) != 0:
                    return k
    return 0


def power_map_rows(points, degree: int) -> list[list[Fraction]]:
    """Matrix of c |-> sum_i c_i (a_i x + b_i y)^degree: row e holds the
    coefficients of x^(degree - e) y^e, one column per point."""
    return [
        [comb(degree, e) * Fraction(a) ** (degree - e) * Fraction(b) ** e for a, b in points]
        for e in range(degree + 1)
    ]


def vandermonde_rows(nodes, max_power: int) -> list[list[Fraction]]:
    """Moment matrix: row d holds h_i^d for 0 <= d <= max_power."""
    return [[Fraction(h) ** d for h in nodes] for d in range(max_power + 1)]


def gauss_jordan(rows) -> tuple[list[list[Fraction]], int, tuple[int, ...]]:
    """Reduced row echelon form (all rows, zero rows last), rank and pivot
    columns by plain Gauss-Jordan elimination on Fractions: each pivot row is
    divided by its pivot and cleared from every other row.  It shares no code
    with ``linalg``'s fraction-free Bareiss loop."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(len(work[0]) if work else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(work)) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i, row in enumerate(work):
            if i != r and row[c]:
                work[i] = [a - row[c] * b for a, b in zip(row, work[r])]
        pivots.append(c)
    return work, len(pivots), tuple(pivots)


def primitive(vec) -> tuple[int, ...]:
    """``vec`` scaled to ints with content 1 and a positive leading entry (a
    zero vector stays zero), the normalization the kernels promise."""
    den = lcm(*(Fraction(x).denominator for x in vec))
    ints = [int(Fraction(x) * den) for x in vec]
    g = gcd(*ints)
    if g and next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints) if g else tuple(ints)


def reference_kernel(rows: list[list[Fraction]], ncols: int) -> list[tuple[int, ...]]:
    """Right-kernel basis of an explicit matrix by elimination: ``gauss_jordan``,
    then one ``primitive`` vector per free column, the basis the closed forms
    must reproduce."""
    reduced, _, pivot_cols = gauss_jordan(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivot_cols):
            vec[pc] = -reduced[i][fc]
        basis.append(primitive(vec))
    return basis


def reference_solve(rows: list[list[Fraction]], rhs) -> tuple[Fraction, ...] | None:
    """One solution of ``rows x = rhs`` by elimination (free variables 0), or
    None when the system is inconsistent: ``gauss_jordan`` of the augmented
    matrix, read off at the pivot columns."""
    ncols = len(rows[0])
    reduced, _, pivot_cols = gauss_jordan([[*row, b] for row, b in zip(rows, rhs)])
    if ncols in pivot_cols:
        return None
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivot_cols):
        x[pc] = reduced[i][ncols]
    return tuple(x)


def reference_tangency_defect(inst) -> Fraction:
    """The tangency defect s_1^2 - s_0 * s_2, with s_p = sum_i w_i * k_i^2 * h_i^p
    summed term by term in Fractions."""
    s0 = s1 = s2 = Fraction(0)
    for h, k, w in zip(inst.slopes, inst.lifts, inst.weights):
        base = w * k * k
        s0 += base
        s1 += base * h
        s2 += base * h * h
    return s1 * s1 - s0 * s2


def reference_tangent_instance(slopes, lift_params, seed: int):
    """The instance and weight-retry count of ``generate_tangent_instance``,
    built in Fractions: the same seeded samples, each weight vector an
    integer combination of the degree-4 kernel vectors, each lift the
    parameters' combination of the degree-3 kernel vectors over its weight."""
    hs = tuple(Fraction(h) for h in slopes)
    params = tuple(Fraction(p) for p in lift_params)
    alpha_basis, beta_basis = vandermonde_nullspace(VandermondeSystem(hs, (4, 3)))
    rng = random.Random(f"tangent-instance:{seed}")
    retries = 0
    for _ in range(engine.MAX_WEIGHT_SAMPLES):
        s, t = rng.randint(-9, 9), rng.randint(-9, 9)
        weights = tuple(s * u + t * v for u, v in zip(alpha_basis[0], alpha_basis[1]))
        if (s, t) != (0, 0) and all(w != 0 for w in weights):
            break
        retries += 1
    else:
        raise GenerationFailureError("could not sample weights with all entries nonzero")
    beta = [sum((p * vec[i] for p, vec in zip(params, beta_basis)), Fraction(0)) for i in range(7)]
    lifts = tuple(b / w for b, w in zip(beta, weights))
    return engine.CoordinateInstance(hs, lifts, weights), retries


def reference_family_is_translations(slopes) -> bool:
    """Whether the six-term lift family is span{1, h}, decided in Fractions:
    the lifts b / alpha from ``weighted_moment_kernel``, then ``gauss_jordan``
    equality against [1 ... 1; h].  Every kernel is looked up through
    ``linalg`` when called, so a patched ``linalg.vandermonde_nullspace``
    reaches this comparison too."""
    hs = [Fraction(h) for h in slopes]
    (alpha,) = linalg.vandermonde_nullspace(VandermondeSystem(hs, (4,)))[0]
    found = linalg.weighted_moment_kernel(hs, alpha, 3).basis
    expected = [[Fraction(1)] * len(hs), hs]
    return gauss_jordan(found)[0] == gauss_jordan(expected)[0]


def wrong_kernel(monkeypatch, fault: str) -> None:
    """Patch ``vandermonde_nullspace`` in ``engine`` and ``linalg`` with one fault:
    ``"degree-2"`` answers the degree-3 call with the degree-2 kernel (three
    rows), ``"one-entry"`` answers it with its own basis after adding 1 to
    one entry (two rows, but e_0 is not in span{alpha, alpha*h}, so the span
    is wrong), ``"zero-annihilator"`` sets the first entry of the degree-4
    annihilator to 0, and ``"off-kernel"`` answers the degree-4 call with
    alpha + b_0, b_0 the first degree-3 kernel vector (on slopes 0..5 that is
    (2, -9, 16, -14, 6, -1): its moments are 0, 0, 0, 0, 24 and no entry is
    zero)."""
    original = linalg.vandermonde_nullspace

    def answer(nodes, max_power, basis):
        if fault == "degree-2" and max_power == 3:
            return original(VandermondeSystem(nodes, (2,)))[0]
        if fault == "one-entry" and max_power == 3:
            return [(basis[0][0] + 1, *basis[0][1:]), *basis[1:]]
        if fault == "zero-annihilator" and max_power == 4:
            return [(0, *vec[1:]) for vec in basis]
        if fault == "off-kernel" and max_power == 4:
            lift = original(VandermondeSystem(nodes, (3,)))[0][0]
            return [tuple(a + b for a, b in zip(basis[0], lift))]
        return basis

    def faulty(system):
        bases = original(system)
        return [answer(system.nodes, p, b) for p, b in zip(system.max_powers, bases)]

    monkeypatch.setattr(engine, "vandermonde_nullspace", faulty)
    monkeypatch.setattr(linalg, "vandermonde_nullspace", faulty)


def reference_kernel_basis(line) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The basis e_i - (c_i / c_j) * e_j, i != j, of the plane where ``line``
    vanishes, c its coefficients and j the largest index with c_j != 0, in
    plain Fractions."""
    c = line.linear_coefficients()
    j = max(i for i, x in enumerate(c) if x)
    b0, b1 = (
        tuple(Fraction(k == i) - (c[i] / c[j] if k == j else 0) for k in range(3)) for i in range(3) if i != j
    )
    return b0, b1


def reference_interpolate(points, values) -> list[Fraction]:
    """Coefficients on y0^d, y0^(d-1)*y1, ..., y1^d of the binary form of degree
    d = len(points) - 1 taking values[k] at points[k], by Lagrange's formula
    on reference polynomials: sum_k values[k] * prod_{m != k} [P_m, y] / [P_m, P_k]
    with [P, y] = a*y1 - b*y0 for P = (a, b)."""
    d = len(points) - 1
    total: dict = {}
    for k, (ak, bk) in enumerate(points):
        others = [(am, bm) for m, (am, bm) in enumerate(points) if m != k]
        factors = [ref_add({(1, 0): Fraction(-bm)}, {(0, 1): Fraction(am)}) for am, bm in others]
        brackets = prod(Fraction(am * bk - bm * ak) for am, bm in others)
        total = ref_add(total, ref_scale(ref_product(factors, 2), Fraction(values[k]) / brackets))
    return [total.get((d - e, e), Fraction(0)) for e in range(d + 1)]


def evaluate(form, point) -> Fraction:
    """The value of ``form`` at ``point``, summed term by term over ``terms`` in Fractions."""
    total = Fraction(0)
    for mono, c in form.terms.items():
        for x, e in zip(point, mono):
            c *= Fraction(x) ** e
        total += c
    return total


def decomposition_terms(dec) -> tuple[tuple[Fraction, tuple[Fraction, ...]], ...]:
    """The (weight, line coefficients) of each term of ``dec``, as Fractions
    read from its pairs ``cleared_weights`` and ``cleared_rows``."""
    (wd, ws), (ld, rows) = dec.cleared_weights, dec.cleared_rows
    return tuple((Fraction(w, wd), tuple(Fraction(c, ld) for c in row)) for w, row in zip(ws, rows))


def reference_witnesses(dec, line) -> dict | None:
    """The witnesses of the certificate ``analyze`` attaches for a seven-term
    double-line value with nonzero cofactor, keyed by the certificate's
    field and property names, built by Fraction formulas that share no code
    with the builder: each restricted point a Fraction sum of a line's
    coefficients against ``reference_kernel_basis``, cleared by the lcm of
    their denominators; the annihilator the ``reference_kernel`` of the
    degree-5 ``power_map_rows`` at the cleared points; the line values
    Fraction sums at the transversal point e_j / c_j (c_j the line's last
    nonzero coefficient); and the contact vector and bridge interpolated by
    ``reference_interpolate`` from the Fraction values weight / annihilator
    (times the line value for the bridge) at the cleared points, the tangency
    point the ``primitive`` contact vector.  The restricted conic is the
    cofactor's restriction by the reference substitution.  None when the
    lines do not meet the base line in seven distinct points: a zero point
    or two proportional ones make a bracket a_i * b_k - a_k * b_i zero."""
    b0, b1 = reference_kernel_basis(line)
    terms = decomposition_terms(dec)
    coeffs = [cf for _, cf in terms]
    restricted = tuple(
        tuple(sum((c * b for c, b in zip(cf, v)), Fraction(0)) for v in (b0, b1)) for cf in coeffs
    )
    den = lcm(*(x.denominator for point in restricted for x in point))
    points = [tuple(int(x * den) for x in point) for point in restricted]
    if any(a * d - b * c == 0 for (a, b), (c, d) in combinations(points, 2)):
        return None
    [annihilator] = reference_kernel(power_map_rows(points, 5), len(points))
    weights = tuple(w for w, _ in terms)
    scaled = [w / a for w, a in zip(weights[:3], annihilator)]
    contact = tuple(reference_interpolate(points[:2], [den * s for s in scaled[:2]]))
    lc = line.linear_coefficients()
    j = max(i for i, x in enumerate(lc) if x)
    transversal = tuple(1 / lc[j] if i == j else Fraction(0) for i in range(3))
    line_values = tuple(sum((c * t for c, t in zip(cf, transversal)), Fraction(0)) for cf in coeffs)
    bridge = reference_interpolate(points[:3], [den**2 * s * lv for s, lv in zip(scaled, line_values)])
    cofactor = engine.extract_cofactor(dec.value(), line)
    images = [ref_add({(1, 0): b0[i]}, {(0, 1): b1[i]}) for i in range(3)]
    conic = ref_substitute(cofactor.terms, images, 2)
    return {
        "restricted": restricted,
        "weights": weights,
        "annihilator": annihilator,
        "contact_vector": contact,
        "transversal_point": transversal,
        "line_values": line_values,
        "bridge": BinaryQuadratic(reference_pair(bridge)),
        "restricted_conic": BinaryQuadratic(
            reference_pair([conic.get(m, Fraction(0)) for m in ((2, 0), (1, 1), (0, 2))])
        ),
        "tangency_point": primitive(contact),
    }


def reference_pair(values) -> tuple[int, tuple[int, ...]]:
    """Fractions as the pair (D, D * values), D the lcm of their denominators.
    It is canonical: a prime power p**e exactly dividing D divides some
    denominator d_i exactly, so p does not divide that numerator times D / d_i."""
    den = lcm(*(Fraction(x).denominator for x in values))
    return den, tuple(int(x * den) for x in values)


def reference_certificate(dec, line):
    """The certificate of ``reference_witnesses``, its rational witnesses
    stored as ``reference_pair``s; None when they are."""
    ref = reference_witnesses(dec, line)
    if ref is None:
        return None
    den, flat = reference_pair([x for point in ref["restricted"] for x in point])
    return engine.TangencyCertificate(
        cleared_points=(den, tuple(zip(flat[::2], flat[1::2]))),
        cleared_weights=reference_pair(ref["weights"]),
        annihilator=ref["annihilator"],
        cleared_contact=reference_pair(ref["contact_vector"]),
        cleared_transversal=reference_pair(ref["transversal_point"]),
        cleared_values=reference_pair(ref["line_values"]),
        bridge=ref["bridge"],
        restricted_conic=ref["restricted_conic"],
        tangency_point=ref["tangency_point"],
    )


# two slope triples with the lifts and weights of ``generate_six_term_family``,
# except a zero weight at index 3
ZERO_WEIGHT_TRIPLES = engine.CoordinateInstance(
    (0, 0, 0, 1, 1, 1), (0, 1, -1, 0, 1, -1), (2, -1, -1, 0, -1, -1)
)


def nondegenerate_analysis(monkeypatch) -> None:
    """Patch ``engine.analyze`` to report a divisible, rank-3, non-tangent
    conic for every input, the case in which ``two_value_collapse_check``
    must find two slope triples and no zero weight."""
    report = engine.AnalysisReport(divisible=True, conic_rank=3, tangent=False)
    monkeypatch.setattr(engine, "analyze", lambda dec, line: report)


def replace(record, **changes):
    """A copy of ``record`` with ``changes``, rebuilt through its constructor
    so that its ``__post_init__`` runs on the new fields."""
    return type(record)(**{**{f: getattr(record, f) for f in record._fields}, **changes})


def count_calls(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` by a wrapper that appends to the returned list
    on every call."""
    calls: list = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def count_clearings(monkeypatch) -> list:
    """``count_calls`` on ``linalg.clear_denominators``, with the one wrapper
    also set where ``forms`` and ``engine`` import it, so every call counts."""
    calls = count_calls(monkeypatch, linalg, "clear_denominators")
    for module in (forms, engine):
        monkeypatch.setattr(module, "clear_denominators", linalg.clear_denominators)
    return calls


def count_fractions(monkeypatch) -> list:
    """Replace ``Fraction.__new__`` by a wrapper that appends its arguments to
    the returned list for every Fraction built."""
    made: list = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return made


def kills(rows: list[list[Fraction]], vec) -> bool:
    return all(sum(x * v for x, v in zip(row, vec)) == 0 for row in rows)


def node_pool(max_abs: int = 12, denominators=(1, 2, 3, 5)) -> list[Fraction]:
    pool = {Fraction(n, d) for d in denominators for n in range(-max_abs, max_abs + 1)}
    return sorted(pool)


def sample_nodes(rng: random.Random, count: int) -> tuple[Fraction, ...]:
    return tuple(rng.sample(node_pool(), count))


def random_fraction(rng: random.Random, max_abs: int = 9, max_den: int = 5) -> Fraction:
    return Fraction(rng.randint(-max_abs, max_abs), rng.randint(1, max_den))


def random_invertible_3x3(rng: random.Random, max_den: int = 3) -> list[list[Fraction]]:
    """Rows of a random invertible 3x3 matrix, entries p/q with |p| <= 4 and
    q <= max_den (integers for max_den = 1)."""
    while True:
        rows = [[random_fraction(rng, 4, max_den) for _ in range(3)] for _ in range(3)]
        if determinant([row[:] for row in rows]) != 0:
            return rows


# Reference sparse polynomials: exponent tuples to Fractions, the layout the
# symbolic kernel used before it packed monomials into ints.


def packed_variable(index: int) -> dict:
    """The packed polynomial x_index, its key made by ``sympoly.monomial``."""
    return {sympoly.monomial((0,) * index + (1,)): 1}


def ref_variable(nvars: int, index: int) -> dict:
    return {tuple(int(i == index) for i in range(nvars)): Fraction(1)}


def ref_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for term, c in q.items():
        out[term] = out.get(term, Fraction(0)) + c
    return {t: c for t, c in out.items() if c}


def ref_scale(p: dict, value) -> dict:
    return {t: Fraction(value) * c for t, c in p.items() if value}


def ref_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for t1, c1 in p.items():
        for t2, c2 in q.items():
            term = tuple(a + b for a, b in zip(t1, t2))
            out[term] = out.get(term, Fraction(0)) + Fraction(c1) * c2
    return {t: c for t, c in out.items() if c}


def ref_product(factors, nvars: int) -> dict:
    out = {(0,) * nvars: Fraction(1)}
    for f in factors:
        out = ref_mul(out, f)
    return out


def ref_substitute(p: dict, images: list, nvars: int) -> dict:
    """Compose p with one reference polynomial per variable, term by term."""
    out: dict = {}
    for mono, c in p.items():
        factors = [image for image, e in zip(images, mono) for _ in range(e)]
        out = ref_add(out, ref_scale(ref_product(factors, nvars), c))
    return out


def monomials(num_vars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, graded-lex descending."""
    if num_vars == 1:
        return [(degree,)]
    return [
        (e, *rest) for e in range(degree, -1, -1) for rest in monomials(num_vars - 1, degree - e)
    ]


def unpack(poly: dict, nvars: int, bits: int) -> dict:
    """A packed-monomial polynomial in the reference layout."""
    mask = (1 << bits) - 1
    return {tuple((t >> (bits * i)) & mask for i in range(nvars)): c for t, c in poly.items()}
