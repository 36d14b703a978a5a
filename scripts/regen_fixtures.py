#!/usr/bin/env python3
"""Regenerate the committed decomposition fixtures.

fixtures/example.json is the hand-written six-term reference identity and is
left alone.  fixtures/tangent7.json is a seven-term instance produced by the
moment-system generator with a fixed seed, so reruns are byte-identical.
"""

from fractions import Fraction
from pathlib import Path

from doubleline.cli import DecompositionDocument, render_document
from doubleline.engine import generate_tangent_instance, tangency_defect

ROOT = Path(__file__).resolve().parent.parent
SEED = 11


def render_fixture() -> str:
    """The text of fixtures/tangent7.json, rebuilt from the generator."""
    slopes = tuple(Fraction(v) for v in (0, 1, 2, 3, 4, 5, 6))
    generated = generate_tangent_instance(slopes, (1, 0, 0), seed=SEED)
    inst = generated.instance
    assert not generated.quartic.cofactor.is_zero()
    assert tangency_defect(inst) == 0
    (hd, hs), (kd, ks), (wd, ws) = inst.cleared_slopes, inst.cleared_lifts, inst.cleared_weights
    doc = DecompositionDocument(
        variables=("x0", "x1", "x2"),
        line=(Fraction(0), Fraction(0), Fraction(1)),
        terms=tuple(
            (Fraction(w, wd), (Fraction(1), Fraction(h, hd), Fraction(k, kd)))
            for h, k, w in zip(hs, ks, ws)
        ),
    )
    return render_document(doc)


def main() -> None:
    target = ROOT / "fixtures" / "tangent7.json"
    target.write_text(render_fixture(), encoding="utf-8")
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
