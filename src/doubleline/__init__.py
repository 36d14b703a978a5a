"""Exact power-sum decompositions of double-line plane quartics.

Each name lives in its module and is imported from there: exact homogeneous
forms, conic rank and tangency from ``doubleline.forms`` (shape-checked views
over the one polynomial core ``doubleline.sympoly``), rationals, their linear
algebra and closed-form moment kernels from ``doubleline.linalg``, the
decomposition engine with tangency certificates and symbolic identity checks
from ``doubleline.engine``, and the ``doubleline`` command line from
``doubleline.cli``.
"""

__version__ = "0.1.0"
