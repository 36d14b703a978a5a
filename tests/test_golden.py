"""Golden stdout: every acceptance-criterion-8 command, pinned by SHA-256.

The digests were recorded before the arithmetic fast paths in ``forms`` and
``engine`` were added.  Any byte change in a report (a reordered field, a
differently normalized rational, a new line) fails here, so an optimization
that must not change output is checked by ``pytest`` itself.  Fixture paths are repository-relative and the tests run
from the repository root, because ``verify`` prints the path it was given.
Regenerate a digest only for a deliberate, documented output change.
"""

import hashlib
import io
from contextlib import redirect_stderr
from pathlib import Path

import pytest

from doubleline.cli import main

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = {
    "example": (
        "621d46421b0ecd74cac263f800ee77037baf97caddf8adc2f926add085f04f94",
        "3cfbbbb9d1edf28236f2243f24d429f98ad079e1cdb9fbc4d77487fe67b58701",
    ),
    "verify fixtures/example.json": (
        "378c9e24faca137005c385466bdd119177e0fa22bdb68977cd7733b118d925ce",
        "dc3f8c5bdb019ba10a31fa68b4a5e02b217a17f3b5bebdfe0d9d06f61737d248",
    ),
    "verify fixtures/tangent7.json": (
        "870f3c4d2ef077bba72336834c65d2278ef4c82fd0eb831f3242ae2aa1730f4b",
        "d843b7d896c99ecaa7dfc816a12cbfb90d1402b571c7e1d508fd17a26b54cf51",
    ),
    "theorem-check --trials 5 --seed 7": (
        "04adacd69148c8b58fe7186bc978f4ae782e4b352474645abdf8d3e4608b4c2a",
        "b6a02449c111db7e3db2b6bc120b595865c432b3f45e4e3281f4bc28c7163f92",
    ),
    "identity-check --h 0,1,2,3,4,5,6": (
        "eb651c07884cad9207dd5fe744eb863e5965f0de99469472a8ef08963e3b840c",
        "172f8071e10e3f52fb5a17e600f991c2ecba33bb7048b9345210425d64196f17",
    ),
    "claim-check --h 0,1,2,3,4,5": (
        "ddfcd1a232754529cd74b9391cc746dabb1d1f43b62d4fd025791c7fe2670774",
        "6b263f1a2b60c5c1c8f2eb660c7d275c521eae1e92a8759a5674fe67fc58e425",
    ),
    "claim-check --random 3 --seed 3": (
        "e587b69fe4d7f09e86176721ff8df99ec0060501246230ea25877e355b51119b",
        "821422e00e554aafc488394aad60ae01c474b11d19c6647b17c4af061765390b",
    ),
}


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_digest(command, mode, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = command.split() + (["--json"] if mode == "json" else [])
    out = io.StringIO()
    with redirect_stderr(io.StringIO()):
        code = main(argv, out=out)
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == GOLDEN[command][mode == "json"]
