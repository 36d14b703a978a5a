"""The benchmark's span hooks still find every name they wrap, and its
items still print the stdout it stored.

``bench/spans.py`` wraps package functions and methods by name; a renamed or
deleted target would otherwise show up only as a ``KeyError`` in the traced
benchmark pass.  ``bench/run.py`` fails every item of a workload whose seed-0
stdout no longer matches ``bench/digests.json``.  These tests only read
``bench/``.
"""

import importlib
import io
import json
from contextlib import redirect_stderr
from pathlib import Path

from doubleline import cli, engine, forms, linalg, sympoly

BENCH = Path(__file__).resolve().parent.parent / "bench"
TANGENT7 = str(BENCH.parent / "fixtures" / "tangent7.json")

EXPECTED_SPANS = {
    "forms.conic_rank",
    "forms.restrict",
    "forms.divide_by_linear",
    "linalg.vandermonde_nullspace",
    "engine.WaringDecomposition.value",
    "engine.tangency_certificate",
    "sympoly.add",
    "sympoly.mul",
    "sympoly.square_and_cross",
}


MODULES = {"cli": cli, "engine": engine, "forms": forms, "linalg": linalg, "sympoly": sympoly}


def _traced_calls(monkeypatch, *runs):
    """Recorder and per-span call counts of running each ``(argv, exit code)``
    of ``runs`` under the bench spans, checking its exit code."""
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    recorder = spans.Recorder()
    with spans.installed(recorder, MODULES):
        for argv, code in runs:
            with redirect_stderr(io.StringIO()):
                assert cli.main(argv, out=io.StringIO()) == code, argv
    return recorder, recorder.summary()[2]


def test_traced_commands_record_the_bench_spans(monkeypatch):
    # identity-check reaches sympoly only through square_and_cross; example
    # reaches sympoly.mul, and verify against a line that does not divide the
    # quartic (exit 1) reaches sympoly.add
    recorder, calls = _traced_calls(
        monkeypatch,
        (["theorem-check", "--trials", "1"], 0),
        (["claim-check", "--h=0,1,2,3,4,5"], 0),
        (["identity-check", "--h=0,1,2,3,4,5,6"], 0),
        (["example"], 0),
        (["verify", "--line", "1,2,3", TANGENT7], 1),
    )
    assert EXPECTED_SPANS <= set(calls), EXPECTED_SPANS - set(calls)
    # no command calls linalg.rref, but the bench still wraps it by name and
    # reports its counts, so the name must resolve to the function
    spans = importlib.import_module("spans")
    wrapped = {name: vars(owner).get(attr) for owner, attr, name in spans.targets(MODULES)}
    assert wrapped["linalg.rref"] is linalg.rref
    # the bench tallies a product's work as len(p) * len(q) over packed keys
    assert recorder.counts["sympoly.mul.term_pairs"] > 0


def test_certificate_kernel_is_attributed_to_linalg(monkeypatch):
    # tangency_certificate calls moment_kernel through engine's import, not
    # through power_kernel, so its time is a linalg span, not engine self time
    _, calls = _traced_calls(monkeypatch, (["theorem-check", "--trials", "1"], 0))
    assert calls["linalg.moment_kernel"] >= 1


def test_seed_zero_items_match_the_stored_digests(monkeypatch):
    # the replay the benchmark makes before timing, through its own functions:
    # every item exits 0 and ends with "result: pass", and the concatenated
    # stdout of each workload matches its stored SHA-256
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    stored = json.loads((BENCH / "digests.json").read_text())
    assert stored.keys() == workloads.WORKLOADS.keys()
    for name in workloads.WORKLOADS:
        items = workloads.build(name, run.DEFAULT_SEED)
        failed, reasons, _ = run.check_items([run.run_pass(cli.main, items)], items, stored[name])
        assert failed == 0, (name, reasons)
