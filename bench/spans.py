"""Spans around the calls between ``doubleline`` modules, recorded from outside.

The traced pass replaces, for its duration only, the names that one module
of the package calls in another with wrappers that record a span: the
functions a module imported from a sibling (``cli`` -> ``engine``/``forms``,
``engine`` -> ``forms``/``linalg``, ``forms`` -> ``linalg``), every function
of a sibling module used through its module object (``engine`` ->
``sympoly``), and a few names named explicitly below.  Nothing under
``src/`` is edited.  A span's layer is the module of the called function;
its self time is its duration minus that of its child spans, so the self
times of all spans under one item add up to the item's time exactly.

Calls made inside a module through a wrapped module attribute (for example
``sympoly.power`` calling ``sympoly.mul``, or ``linalg.nullspace`` calling
``linalg.rref``) are recorded too, so call counts are all the work a layer
did, not only the calls that crossed into it.  Constructors and methods of
classes are not wrapped unless listed; their time stays with the caller.
"""

from __future__ import annotations

import functools
import inspect
import types
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterator

PACKAGE = "doubleline"

# class attributes and in-module globals that also get spans, beyond the
# names that cross module boundaries by import
EXTRA = (
    ("engine", "WaringDecomposition", "value"),
    ("engine", None, "tangency_certificate"),
    ("linalg", None, "rref"),
    ("forms", "HomogeneousForm", "__init__"),
    ("forms", "HomogeneousForm", "__add__"),
    ("forms", "HomogeneousForm", "__sub__"),
    ("forms", "HomogeneousForm", "__neg__"),
    ("forms", "HomogeneousForm", "__mul__"),
    ("forms", "HomogeneousForm", "__rmul__"),
    ("forms", "HomogeneousForm", "__pow__"),
)


def _tally_rref(counts: Counter, args: tuple, result) -> None:
    counts["linalg.rref.entries"] += args[0].rows * args[0].cols


def _tally_mul(counts: Counter, args: tuple, result) -> None:
    counts["sympoly.mul.term_pairs"] += len(args[0]) * len(args[1])
    counts["sympoly.mul.out_terms"] += len(result)


TALLIES: dict[str, Callable[[Counter, tuple, object], None]] = {
    "linalg.rref": _tally_rref,
    "sympoly.mul": _tally_mul,
}


class Recorder:
    """Spans of one traced pass, kept in memory until the pass is summarized.

    ``spans`` holds four integers per span: name id, parent span index (-1
    for an item's root span), start and end in ``perf_counter_ns`` units.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self.counts: Counter = Counter()
        self._ids: dict[str, int] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn: Callable) -> Callable:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        spans, stack, counts = self.spans, self._stack, self.counts
        tally = TALLIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans) >> 2
            spans.extend((nid, stack[-1], 0, 0))
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[4 * idx + 2] = start
                spans[4 * idx + 3] = end
            if tally is not None:
                tally(counts, args, result)
            return result

        return traced

    def summary(self) -> tuple[Counter, Counter, Counter]:
        """Self time, inclusive time and call count per span name."""
        self_ns: Counter = Counter()
        incl_ns: Counter = Counter()
        calls: Counter = Counter()
        s = self.spans
        for i in range(0, len(s), 4):
            name = self.names[s[i]]
            duration = s[i + 3] - s[i + 2]
            self_ns[name] += duration
            incl_ns[name] += duration
            calls[name] += 1
            if s[i + 1] >= 0:
                self_ns[self.names[s[4 * s[i + 1]]]] -= duration
        return self_ns, incl_ns, calls

    def rows(self) -> Iterator[list[int]]:
        """One ``[name id, parent, start_ns, end_ns]`` row per span, in start order."""
        s = self.spans
        for i in range(0, len(s), 4):
            yield s[i : i + 4].tolist()


def _layer(module_name: str) -> str:
    return module_name.rpartition(".")[2]


def _in_package(module_name: str) -> bool:
    return module_name.startswith(PACKAGE + ".")


def targets(modules: dict[str, types.ModuleType]) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every call site the traced pass wraps."""
    found: dict[tuple[int, str], tuple[object, str, str]] = {}
    for module in modules.values():
        for attr, obj in vars(module).items():
            imported = inspect.isfunction(obj) and obj.__module__ != module.__name__
            if imported and _in_package(obj.__module__):
                found[id(module), attr] = (module, attr, f"{_layer(obj.__module__)}.{attr}")
            elif isinstance(obj, types.ModuleType) and _in_package(obj.__name__):
                for fattr, fn in vars(obj).items():
                    if inspect.isfunction(fn) and fn.__module__ == obj.__name__:
                        found[id(obj), fattr] = (obj, fattr, f"{_layer(obj.__name__)}.{fattr}")
    for layer, cls, attr in EXTRA:
        owner = getattr(modules[layer], cls) if cls else modules[layer]
        name = f"{layer}.{cls}.{attr}" if cls else f"{layer}.{attr}"
        found[id(owner), attr] = (owner, attr, name)
    return list(found.values())


@contextmanager
def installed(recorder: Recorder, modules: dict[str, types.ModuleType]):
    """Wrap every target for the duration of the block, then restore it."""
    originals = []
    try:
        for owner, attr, name in targets(modules):
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
