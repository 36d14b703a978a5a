"""Exact power-sum decompositions of double-line plane quartics.

Public surface: exact homogeneous forms, conic rank and tangency
(``forms``, shape-checked views over the one polynomial core ``sympoly``),
rationals, their linear algebra and closed-form moment kernels (``linalg``),
the decomposition engine with tangency certificates and symbolic identity
checks (``engine``), and the ``doubleline`` command-line driver (``cli``).
"""

from .engine import (
    AnalysisReport,
    CoordinateInstance,
    DoubleLineQuartic,
    KernelBasis,
    TangencyCertificate,
    WaringDecomposition,
    analyze,
    extract_cofactor,
    generate_six_term_family,
    generate_tangent_instance,
    line_x2,
    power_kernel,
    six_term_vanishing_check,
    tangency_defect,
    two_value_collapse_check,
    verify_identity_slice,
)
from .forms import (
    BinaryQuadratic,
    FormTuple,
    HomogeneousForm,
    conic_rank,
    parse_form,
    render_form,
    restrict,
)
from .linalg import (
    VandermondeSystem,
    moment_kernel,
    vandermonde_nullspace,
    weighted_moment_kernel,
)

__version__ = "0.1.0"
