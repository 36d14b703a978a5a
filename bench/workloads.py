"""Seeded inputs for the benchmark workloads.

Each workload is a list of CLI argument vectors, made only from the seed;
the program sees nothing but these argv lists.  Why each workload exists:

* ``theorem7`` -- ``theorem-check --trials 1`` with seeded trial seeds, the
  ROADMAP's ``--trials 100`` traffic split into items so that percentiles
  exist.  It stresses ``forms`` and ``engine`` and never calls ``sympoly``,
  so it is the control for a ``sympoly`` change.
* ``identity-slices`` -- the three slices of acceptance criterion 6, then
  seeded ``identity-check`` slices.  Its time is in a few large
  five-variable ``sympoly`` products; it never reaches ``forms``, so it is
  the control for a ``forms`` change.
* ``sixterm`` -- ``claim-check --random 1`` alternating with
  ``claim-check`` on seeded slopes.  Same layers, used differently: many
  small ``sympoly`` powers of linear forms, non-tangent rank-3 conics in
  ``forms``, and the shortest items, so the largest ``cli`` share.  A
  ``sympoly.mul`` change that helps large operands but hurts small ones
  shows here.

Slope lists are passed as ``--h=<list>``, never as ``--h <list>``: with the
separate form argparse reads a list with a leading minus as an option and
exits 2 ("expected one argument").  That CLI defect is left to ROADMAP
item 4.

Run as a script, this module is the set-up probe: in a fresh interpreter it
imports ``doubleline`` and builds one workload's inputs, then prints the
seconds that took and the median seconds of five reference-kernel runs.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

# the slope pool of tests/conftest.py: p/q with |p| <= 12 and q in {1, 2, 3, 5}
SLOPE_POOL = sorted({Fraction(p, q) for q in (1, 2, 3, 5) for p in range(-12, 13)})
ACCEPTANCE_SLICES = ("0,1,2,3,4,5,6", "0,1,2,3,4,5,-1", "0,1,-1,2,-2,1/2,-1/2")
SRC = Path(__file__).resolve().parent.parent / "src"


def _slopes(rng: random.Random, count: int) -> str:
    return "--h=" + ",".join(str(h) for h in rng.sample(SLOPE_POOL, count))


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**32))


def theorem7(rng: random.Random) -> list[list[str]]:
    return [["theorem-check", "--trials", "1", "--seed", _seed(rng)] for _ in range(120)]


def identity_slices(rng: random.Random) -> list[list[str]]:
    fixed = [["identity-check", "--h=" + s] for s in ACCEPTANCE_SLICES]
    return fixed + [["identity-check", _slopes(rng, 7)] for _ in range(147)]


def sixterm(rng: random.Random) -> list[list[str]]:
    items = []
    for _ in range(80):
        items.append(["claim-check", "--random", "1", "--seed", _seed(rng)])
        items.append(["claim-check", _slopes(rng, 6)])
    return items


WORKLOADS = {"theorem7": theorem7, "identity-slices": identity_slices, "sixterm": sixterm}


def build(workload: str, seed: int) -> list[list[str]]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def add_src_to_path() -> None:
    """Make ``import doubleline`` work from a plain checkout, without installing."""
    if not (SRC / "doubleline" / "__init__.py").is_file():
        raise SystemExit(f"bench: no doubleline sources at {SRC}")
    sys.path.insert(0, str(SRC))


if __name__ == "__main__":
    started = time.perf_counter()
    add_src_to_path()
    import doubleline.cli  # noqa: F401

    build(sys.argv[1], int(sys.argv[2]))
    elapsed = time.perf_counter() - started

    from refkernel import reference_kernel

    ref = []
    for _ in range(5):
        started = time.perf_counter()
        reference_kernel()
        ref.append(time.perf_counter() - started)
    print(elapsed, statistics.median(ref))
