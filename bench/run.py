"""The doubleline benchmark: closed-loop CLI workloads, costs in reference units.

One client runs the items of one workload one at a time, in process, through
``doubleline.cli.main(argv, out=...)``, with no threads.  Before every item
it times the reference kernel (``refkernel.py``); an item's cost is its time
divided by that kernel time, which cancels the host's speed drift.  The
item list is replayed in whole passes until ``--seconds`` is used up.

    python3 bench/run.py --workload theorem7 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                  # every workload, untraced then traced
    python3 bench/run.py --write-digests  # re-record the stored stdout digests

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and it carries the per-layer metrics of ``spans.py``, whose spans are also
written to ``bench/out/spans-<workload>.jsonl``.  Every item must exit 0
and end its report with ``result: pass``; it must print the same bytes on
every pass.  Before timing, every run also replays the items of the
default seed, whose concatenated stdout must match the SHA-256 stored in
``digests.json``; on a mismatch all of those items fail.  An item that fails
any of these checks counts in ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import spans
import workloads
from refkernel import EXPECTED_WORD, REFERENCE_SECONDS, reference_kernel

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
OUT = BENCH / "out"
DEFAULT_SEED = 0
SETUP_RUNS = 9
LAYERS = ("cli", "engine", "forms", "linalg", "sympoly")

# per-layer metric -> the span name or counter it is computed from
SHARES = {
    "engine.analyze.share": "engine.analyze",
    "engine.tangency_certificate.share": "engine.tangency_certificate",
    "engine.generate_tangent_instance.share": "engine.generate_tangent_instance",
    "engine.value.share": "engine.WaringDecomposition.value",
    "forms.restrict.share": "forms.restrict",
    "forms.divide_by_linear.share": "forms.divide_by_linear",
    "forms.conic_rank.share": "forms.conic_rank",
    "linalg.vandermonde_nullspace.share": "linalg.vandermonde_nullspace",
    "sympoly.add.share": "sympoly.add",
}
CALLS = {
    "engine.value.calls_per_item": "engine.WaringDecomposition.value",
    "forms.restrict.calls_per_item": "forms.restrict",
    "forms.HomogeneousForm.inits_per_item": "forms.HomogeneousForm.__init__",
    "linalg.rref.calls_per_item": "linalg.rref",
    "sympoly.mul.calls_per_item": "sympoly.mul",
}
TALLIED = {
    "linalg.rref.entries_per_item": "linalg.rref.entries",
    "sympoly.mul.term_pairs_per_item": "sympoly.mul.term_pairs",
}


# running items


class Pass:
    """Times, exit codes and output of one pass over the items.

    ``texts`` holds None where an item printed exactly what it printed in the
    first pass, so that memory does not grow with the number of passes.
    """

    def __init__(self) -> None:
        self.item_ns: list[int] = []
        self.ref_ns: list[int] = []
        self.codes: list[int] = []
        self.texts: list[str] = []
        self.errors: list[str] = []


def run_pass(main, items: list[list[str]], first: Pass | None = None) -> Pass:
    result = Pass()
    for k, argv in enumerate(items):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            r0 = perf_counter_ns()
            reference_kernel()
            r1 = perf_counter_ns()
            try:
                code = main(argv, out=out)
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code if isinstance(exc.code, int) else 2
            r2 = perf_counter_ns()
        result.ref_ns.append(r1 - r0)
        result.item_ns.append(r2 - r1)
        result.codes.append(code)
        text = out.getvalue()
        result.texts.append(None if first is not None and text == first.texts[k] else text)
        result.errors.append(err.getvalue() if code else "")
    return result


def check_items(passes: list[Pass], items: list[list[str]], expected: str | None):
    """Failed item count and the reasons for the first few failures."""
    first = passes[0].texts
    digest = hashlib.sha256("".join(first).encode()).hexdigest()
    failed, reasons = 0, []
    for p in passes:
        for k, (code, text) in enumerate(zip(p.codes, p.texts)):
            repeated = text is None
            text = first[k] if repeated else text
            why = None
            if code != 0:
                detail = text.strip() or p.errors[k].strip()
                why = f"exit {code}: {detail.splitlines()[-1][:200] if detail else ''}"
            elif not text.endswith("result: pass\n"):
                why = "stdout does not end with 'result: pass'"
            elif p is not passes[0] and not repeated:
                why = "stdout differs from the first pass"
            elif expected is not None and digest != expected:
                why = "concatenated stdout does not match the stored digest"
            if why:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"{' '.join(items[k])}: {why}")
    return failed, reasons, digest


def measure(main, items, seconds: float, traced_main=None) -> tuple[list[Pass], list[Pass]]:
    """Whole passes until the time is used up; with ``traced_main`` they alternate."""
    plain: list[Pass] = []
    traced: list[Pass] = []
    started = time.perf_counter()
    while True:
        first = plain[0] if plain else None
        plain.append(run_pass(main, items, first))
        if traced_main is not None:
            traced.append(traced_main(items, plain[0]))
        elapsed = time.perf_counter() - started
        # stop when one more round of the same length would overrun
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            return plain, traced


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Seconds a fresh interpreter takes to import doubleline and build the
    inputs, each with the reference-kernel seconds measured right after it."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), workload, str(seed)]
    # bytecode caches on and inside the checkout, whatever the caller's environment
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    subprocess.run(cmd, check=True, capture_output=True, env=env)  # fills the caches
    return [
        tuple(map(float, subprocess.run(
            cmd, check=True, capture_output=True, text=True, env=env
        ).stdout.split()))
        for _ in range(SETUP_RUNS)
    ]


# metrics


def cost_metrics(passes: list[Pass]) -> dict[str, tuple[float, str, int]]:
    attempted = len(passes) * len(passes[0].item_ns)
    total_item = sum(sum(p.item_ns) for p in passes)
    total_ref = sum(sum(p.ref_ns) for p in passes)
    per_item = [
        statistics.median(p.item_ns[k] / p.ref_ns[k] for p in passes)
        for k in range(len(passes[0].item_ns))
    ]
    return {
        "item_cost_mean": (total_item / total_ref, "ref", attempted),
        "item_cost_p50": (statistics.median(per_item), "ref", len(per_item)),
        "item_cost_p90": (statistics.quantiles(per_item, n=10)[-1], "ref", len(per_item)),
        "raw_item_ms_mean": (total_item / attempted / 1e6, "ms", attempted),
        "raw_ref_ms_median": (
            statistics.median(r for p in passes for r in p.ref_ns) / 1e6, "ms", attempted
        ),
    }


def _report_field(text: str, key: str) -> int:
    prefix = key + ": "
    return sum(int(line[len(prefix):]) for line in text.splitlines() if line.startswith(prefix))


def layer_metrics(recorders, items: int, texts: list[str], overhead: float):
    self_ns: Counter = Counter()
    incl_ns: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    for rec in recorders:
        s, i, c = rec.summary()
        self_ns.update(s)
        incl_ns.update(i)
        calls.update(c)
        counts.update(rec.counts)
    total = incl_ns["cli.main"]
    done = items * len(recorders)
    metrics = {
        f"{layer}.self_share": (
            sum(v for name, v in self_ns.items() if name.startswith(layer + ".")) / total,
            "fraction",
        )
        for layer in LAYERS
    }
    metrics.update({m: (incl_ns[name] / total, "fraction") for m, name in SHARES.items()})
    metrics.update({m: (calls[name] / done, "calls/item") for m, name in CALLS.items()})
    metrics.update({m: (counts[name] / done, "count/item") for m, name in TALLIED.items()})
    pairs = counts["sympoly.mul.term_pairs"]
    metrics["sympoly.mul.out_terms_ratio"] = (
        counts["sympoly.mul.out_terms"] / pairs if pairs else 0.0,
        "terms/pair",
    )
    trials = sum(_report_field(t, "trials") for t in texts)
    q_zero = sum(_report_field(t, "q-zero-degenerate") for t in texts)
    retries = sum(_report_field(t, "weight-retries") for t in texts)
    metrics["engine.q_zero_frac"] = (q_zero / trials if trials else 0.0, "fraction")
    metrics["engine.weight_retries_per_item"] = (retries / items, "retries/item")
    metrics["trace.overhead"] = (overhead, "fraction")
    return metrics


def layer_design_check(workload: str, metrics) -> list[str]:
    """Contrasts the workloads rely on; an empty list means they hold."""
    problems = []
    total = sum(metrics[f"{layer}.self_share"][0] for layer in LAYERS)
    if abs(total - 1) > 1e-9:
        problems.append(f"layer self shares sum to {total}, not 1")
    control = {"theorem7": "sympoly", "identity-slices": "forms"}.get(workload)
    if control and metrics[f"{control}.self_share"][0] != 0:
        problems.append(f"{control}.self_share is not 0 on {workload}")
    return problems


# entry point


def environment() -> str:
    rev = "unknown"
    if (ROOT / ".git").exists():
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        ).stdout.strip() or rev
    return f"git_rev={rev} python={platform.python_version()} nproc={os.cpu_count()}"


def write_spans(path: Path, header: dict, recorder: spans.Recorder) -> None:
    OUT.mkdir(exist_ok=True)
    columns = ["name", "parent", "start_ns", "end_ns"]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({**header, "columns": columns, "names": recorder.names}) + "\n")
        for row in recorder.rows():
            handle.write(json.dumps(row) + "\n")


def run(workload: str, seed: int, seconds: float, trace: bool) -> None:
    from doubleline import cli, engine, forms, linalg, sympoly

    print(f"bench workload={workload} seed={seed} seconds={seconds} trace={int(trace)} {environment()}")
    setup = None if trace else measure_setup(workload, seed)
    items = workloads.build(workload, seed)
    modules = {"cli": cli, "engine": engine, "forms": forms, "linalg": linalg, "sympoly": sympoly}
    recorders: list[spans.Recorder] = []

    def traced_pass(items, first):
        rec = spans.Recorder()
        with spans.installed(rec, modules):
            result = run_pass(rec.wrap("cli.main", cli.main), items, first)
        recorders.append(rec)
        return result

    golden_items = workloads.build(workload, DEFAULT_SEED)
    expected = json.loads(DIGESTS.read_text()).get(workload)
    golden_failed, golden_reasons, digest = check_items(
        [run_pass(cli.main, golden_items)], golden_items, expected
    )
    plain, traced = measure(cli.main, items, seconds, traced_pass if trace else None)
    failed, reasons, _ = check_items(plain + traced, items, None)
    failed += golden_failed
    attempted = len(items) * len(plain + traced) + len(golden_items)
    costs = cost_metrics(plain)
    print(f"passes={len(plain)}+{len(traced)} items={len(items)}"
          f" seed {DEFAULT_SEED} stdout_sha256={digest} stored={expected}")
    reasons = golden_reasons + reasons
    for reason in reasons:
        print(f"FAILED {reason}")

    if trace:
        overhead = cost_metrics(traced)["item_cost_mean"][0] / costs["item_cost_mean"][0] - 1
        metrics = layer_metrics(recorders, len(items), plain[0].texts, overhead)
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit} n={len(items)}")
        problems = layer_design_check(workload, metrics)
        print("layer-design: " + ("; ".join(problems) if problems else "pass"))
        path = OUT / f"spans-{workload}.jsonl"
        write_spans(path, {"workload": workload, "seed": seed, "items": len(items)}, recorders[0])
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = {
            "item_cost_mean": costs["item_cost_mean"][:2],
            "item_cost_p50": costs["item_cost_p50"][:2],
            "item_cost_p90": costs["item_cost_p90"][:2],
            "setup_s": (statistics.median(s / r * REFERENCE_SECONDS for s, r in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        samples = {name: n for name, (_, _, n) in costs.items()}
        samples.update(setup_s=len(setup), peak_rss_mb=1)
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit} n={samples[name]}")
        print(f"fail_frac {failed / attempted:.6g} fraction n={attempted}")
        for name in ("raw_item_ms_mean", "raw_ref_ms_median"):
            value, unit, n = costs[name]
            print(f"{name} {value:.6g} {unit} n={n} (diagnostic)")
        print(f"raw_setup_s_median {statistics.median(s for s, _ in setup):.6g} s n={len(setup)} (diagnostic)")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def write_digests() -> None:
    from doubleline import cli

    stored = {}
    for workload in workloads.WORKLOADS:
        items = workloads.build(workload, DEFAULT_SEED)
        failed, reasons, digest = check_items([run_pass(cli.main, items)], items, None)
        if failed:
            raise SystemExit(f"bench: {workload} fails: {reasons}")
        stored[workload] = digest
        print(f"{workload} seed {DEFAULT_SEED}: {digest}")
    DIGESTS.write_text(json.dumps(stored, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()
    workloads.add_src_to_path()
    if reference_kernel()[1] != EXPECTED_WORD:
        raise SystemExit("bench: the reference kernel was changed; every recorded cost is re-based")
    if args.write_digests:
        write_digests()
        return 0
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload and args.trace is not None:
        run(args.workload, args.seed, seconds, bool(args.trace))
        return 0
    # one process per run, so that peak_rss_mb is each run's own
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        for trace in [args.trace] if args.trace is not None else [0, 1]:
            subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                check=True,
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
