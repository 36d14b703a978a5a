"""The committed generated fixture is what its script renders today.

``scripts/regen_fixtures.py`` builds ``fixtures/tangent7.json`` from
``generate_tangent_instance`` with a fixed seed; the weights are drawn from
the first two vectors of the degree-4 moment kernel basis, so a change in
that basis's order or normalization changes the fixture and fails here.
"""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tangent7_fixture_is_reproducible(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    regen = importlib.import_module("regen_fixtures")
    committed = (ROOT / "fixtures" / "tangent7.json").read_text(encoding="utf-8")
    assert regen.render_fixture() == committed
