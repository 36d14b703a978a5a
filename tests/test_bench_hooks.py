"""The benchmark's span hooks still find every name they wrap.

``bench/spans.py`` wraps package functions and methods by name; a renamed or
deleted target would otherwise show up only as a ``KeyError`` in the traced
benchmark pass.  This test only reads ``bench/``.
"""

import importlib
import io
from contextlib import redirect_stderr
from pathlib import Path

from doubleline import cli, engine, forms, linalg, sympoly

BENCH = Path(__file__).resolve().parent.parent / "bench"

EXPECTED_SPANS = {
    "forms.conic_rank",
    "forms.restrict",
    "forms.divide_by_linear",
    "linalg.rref",
    "linalg.vandermonde_nullspace",
    "engine.WaringDecomposition.value",
    "sympoly.add",
    "sympoly.mul",
}


def test_traced_commands_record_the_bench_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    recorder = spans.Recorder()
    modules = {"cli": cli, "engine": engine, "forms": forms, "linalg": linalg, "sympoly": sympoly}
    with spans.installed(recorder, modules):
        for argv in (
            ["theorem-check", "--trials", "1"],
            ["claim-check", "--h=0,1,2,3,4,5"],
            ["identity-check", "--h=0,1,2,3,4,5,6"],
        ):
            with redirect_stderr(io.StringIO()):
                assert cli.main(argv, out=io.StringIO()) == 0
    _, _, calls = recorder.summary()
    assert EXPECTED_SPANS <= set(calls), EXPECTED_SPANS - set(calls)
    # the bench tallies a product's work as len(p) * len(q) over packed keys
    assert recorder.counts["sympoly.mul.term_pairs"] > 0
