"""The layer contrasts the benchmark's workloads rely on.

``theorem7`` is the control for ``sympoly`` and ``identity-slices`` the
control for ``forms``: the traced bench reports a layer design failure when
the control layer has any self time.  These tests hold the program to the
same contract, checked with ``sys.setprofile`` on every Python function the
commands enter.  Each command runs once first, as the bench's untraced
replay does, so that caches filled on a first run (``_monomial_table``) are
warm.
"""

import io
import sys
from contextlib import redirect_stderr
from pathlib import Path

import pytest

from doubleline import forms, sympoly
from doubleline.cli import main

SYMPOLY = Path(sympoly.__file__).resolve()
FORMS = Path(forms.__file__).resolve()


def entered_files(argv: list[str]) -> set[Path]:
    """The source files of the Python functions one warm run of ``argv`` enters."""
    with redirect_stderr(io.StringIO()):
        assert main(argv, out=io.StringIO()) == 0
    files: set[str] = set()

    def record(frame, event, arg):
        if event == "call":
            files.add(frame.f_code.co_filename)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        with redirect_stderr(io.StringIO()):
            code = main(argv, out=io.StringIO())
    finally:
        sys.setprofile(previous)
    assert code == 0
    return {Path(name).resolve() for name in files if not name.startswith("<")}


@pytest.mark.parametrize(
    "argv",
    [
        ["theorem-check", "--trials", "20"],
        ["claim-check", "--random", "10"],
        ["claim-check", "--h=0,1,-1,2,-2,1/2"],
    ],
    ids=["theorem-check", "claim-check-random", "claim-check-slopes"],
)
def test_commands_enter_no_polynomial_core(argv):
    assert SYMPOLY not in entered_files(argv)


def test_identity_check_enters_no_forms():
    files = entered_files(["identity-check", "--h=0,1,-1,2,-2,1/2,-1/2"])
    assert SYMPOLY in files and FORMS not in files
