"""Every function of the package is entered by some command, or is listed in
``UNREACHED`` with the reason it stays.

The commands run in a fresh interpreter under ``sys.setprofile``: in this
process ``build_parser`` and ``_node_pool`` may already be cached by earlier
tests, and then they would not be entered.  A function is a module-level
function of the package, or a method, property or cached property of one of
its classes; nested functions are not counted.  The test fails both on a
function that no command enters and that is not listed, and on a listed
function that a command now enters.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (argv, exit code): every command, both fixtures with --json and with a
# --line that does not divide, and inputs that exit 1 or 2
COMMANDS = [
    (["theorem-check", "--trials", "20", "--seed", "1"], 0),
    (["claim-check", "--random", "5", "--seed", "1"], 0),
    (["claim-check", "--h", "0,1,3,-2,1/2,5"], 0),
    (["identity-check", "--h", "-3,-1,0,1/2,2,3,5"], 0),
    (["example"], 0),
    *(
        (argv + [f"fixtures/{name}.json"], 0)
        for name in ("tangent7", "example")
        for argv in (["verify"], ["verify", "--json"])
    ),
    (["verify", "--line", "1,2,3", "fixtures/tangent7.json"], 1),
    (["verify", "--line", "1,2,3", "fixtures/example.json"], 1),
    (["identity-check", "--h", "0,0,1,2,3,4,5"], 1),
    (["theorem-check", "--trials", "0"], 2),
    (["verify", "--line", "0,0,0", "fixtures/tangent7.json"], 2),
    (["verify", "fixtures/missing.json"], 2),
    (["verify", "README.md"], 2),
]

UNREACHED = {
    "render_document": "writes fixtures in scripts/regen_fixtures.py; acceptance criterion 8",
    "DoubleLineQuartic.__post_init__": "checks TangentInstance.quartic",
    "KernelBasis.dimension": "acceptance criterion 2",
    "TangentInstance.quartic": "acceptance criterion 5 and scripts/regen_fixtures.py",
    "power_kernel": "acceptance criterion 2",
    "BinaryQuadratic.discriminant": "acceptance criteria 1 and 7",
    "BinaryQuadratic.polar": "acceptance criterion 5",
    "HomogeneousForm.zero": "acceptance criterion 7",
    "weighted_moment_kernel": "acceptance criterion 7",
    "rref": "wrapped by name in bench/spans.py",
    "HomogeneousForm.__neg__": "wrapped by name in bench/spans.py",
    "HomogeneousForm.__sub__": "wrapped by name in bench/spans.py",
    "HomogeneousForm.__repr__": "pytest prints forms on failure",
    "HomogeneousForm.__str__": "str() of a form is its rendering",
    "Record.__hash__": "records are hashable values",
    "Record.__repr__": "pytest prints records on failure",
    "Record.__setattr__": "keeps records immutable",
    "Record.__init_subclass__": "runs when a class is defined, at import",
    "_fractions_of": "makes the Fraction properties when their classes are defined, at import",
}

PROBE = r"""
import functools, inspect, io, json, sys, types

import doubleline.cli
from doubleline.cli import main


def functions():
    # code object -> qualified name; one code object can sit under two names
    found = {}
    for name, module in list(sys.modules.items()):
        if name != "doubleline" and not name.startswith("doubleline."):
            continue
        for obj in vars(module).values():
            inner = vars(obj).values() if isinstance(obj, type) and obj.__module__ == name else [obj]
            for item in inner:
                if isinstance(item, (staticmethod, classmethod)):
                    item = item.__func__
                elif isinstance(item, functools.cached_property):
                    item = item.func
                elif isinstance(item, property):
                    item = item.fget
                item = inspect.unwrap(item) if callable(item) else item
                if isinstance(item, types.FunctionType) and item.__module__.startswith("doubleline"):
                    found.setdefault(item.__code__, item.__qualname__)
    return found


found = functions()
entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


codes = []
sys.setprofile(profile)
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(main(argv, out=io.StringIO()))
    except SystemExit as exc:
        codes.append(exc.code)
sys.setprofile(None)
print(json.dumps({"codes": codes, "unreached": sorted(n for c, n in found.items() if c not in entered)}))
"""


def test_every_function_is_reached_or_listed():
    argvs = [argv for argv, _ in COMMANDS]
    result = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    out = json.loads(result.stdout)
    assert out["codes"] == [code for _, code in COMMANDS]
    unreached = set(out["unreached"])
    assert sorted(unreached - UNREACHED.keys()) == [], "entered by no command and not listed"
    assert sorted(UNREACHED.keys() - unreached) == [], "listed but now entered by a command"
