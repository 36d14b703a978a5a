"""``scripts/identity_slices.py`` exits 1 when its sweep finds a failure, and
the README's library sketch runs as written."""

import importlib
import re
from fractions import Fraction
from pathlib import Path

import pytest

from doubleline.engine import IdentitySliceReport

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def identity_slices(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return importlib.import_module("identity_slices")


def test_committed_slices_pass(identity_slices, capsys):
    assert identity_slices.main() == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 12 and all(" true  true " in row for row in rows)


@pytest.mark.parametrize(
    "residue, control_residue",
    [({0: 1}, {0: 1}), ({}, {})],
    ids=["nonzero-slice", "zero-control"],
)
def test_failure_exits_1(identity_slices, monkeypatch, capsys, residue, control_residue):
    def stub(slopes, perturb=False):
        found = control_residue if perturb else residue
        return IdentitySliceReport(2, 3, 0, Fraction(1), found)

    monkeypatch.setattr(identity_slices, "verify_identity_slice", stub)
    assert identity_slices.main() == 1
    assert "false" in capsys.readouterr().out


def test_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [sketch] = re.findall(r"## Library sketch\n\n```python\n(.*?)```", readme, re.DOTALL)
    exec(compile(sketch, "README.md", "exec"), {})
