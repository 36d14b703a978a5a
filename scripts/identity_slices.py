#!/usr/bin/env python3
"""Sweep the symbolic identity check over a batch of slope slices.

For each slice the five-parameter family of moment-system solutions is
expanded symbolically and the cleared tangency defect is tested for exact
cancellation; the perturbed control (defect + 1) must fail.  Slices mix
integer, negative and fractional slopes.  The exit status is 1 when a slice
is not zero or its control does not fail, else 0.
"""

import random
import time
from fractions import Fraction

from doubleline.engine import verify_identity_slice

FIXED_SLICES = [
    tuple(Fraction(i) for i in range(7)),
    tuple(Fraction(v) for v in (0, 1, 2, 3, 4, 5, -1)),
    (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
     Fraction(1, 2), Fraction(-1, 2)),
    tuple(Fraction(v) for v in (-3, -2, -1, 0, 1, 2, 3)),
]


def random_slice(rng: random.Random):
    pool = sorted({Fraction(n, d) for n in range(-8, 9) for d in (1, 2, 3)})
    return tuple(rng.sample(pool, 7))


def main() -> int:
    rng = random.Random(2024)
    slices = FIXED_SLICES + [random_slice(rng) for _ in range(8)]
    width = max(len(format_slice(s)) for s in slices)
    print(f"{'slice':<{width}}  monomials  zero  control-fails  ms")
    ok = True
    for slopes in slices:
        started = time.perf_counter()
        report = verify_identity_slice(slopes)
        control = verify_identity_slice(slopes, perturb=True)
        elapsed = time.perf_counter() - started
        ok = ok and report.is_zero and not control.is_zero
        print(
            f"{format_slice(slopes):<{width}}  {report.expanded_monomials:>9}  "
            f"{str(report.is_zero).lower():<5} {str(not control.is_zero).lower():<14} {elapsed * 1e3:.2f}"
        )
    return 0 if ok else 1


def format_slice(slopes) -> str:
    return ",".join(str(h) for h in slopes)


if __name__ == "__main__":
    raise SystemExit(main())
