"""The ``Record`` base of the package's value classes, and what importing the
package loads."""

import functools
import importlib
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import doubleline
from doubleline.cli import RunReport
from doubleline.engine import AnalysisReport, CoordinateInstance, generate_tangent_instance
from doubleline.errors import StructuralError
from doubleline.record import Record

SRC = Path(__file__).resolve().parent.parent / "src"
SLOPES = (0, 1, 2, 3, 4, 5, 6)


class Triple(Record):
    """A record holding CoordinateInstance's three vectors, in another class."""

    slopes: tuple
    lifts: tuple
    weights: tuple


class Coerced(Record):
    """Three fields that ``__post_init__`` coerces to Fractions."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        for name in self._fields:
            vars(self)[name] = Fraction(vars(self)[name])


class Labelled(Record):
    label: str
    count: int = 0


def coordinate_instance() -> CoordinateInstance:
    return CoordinateInstance(SLOPES, (1,) * 7, (2,) * 7)


class TestConstruction:
    def test_positional_keyword_and_default(self):
        positional = Coerced(1, 2, 3)
        assert positional == Coerced(c=3, a=1, b=2) == Coerced(1, c=3, b=2)
        assert (positional.a, positional.b, positional.c) == (1, 2, 3)
        assert Labelled("x") == Labelled(label="x") == Labelled("x", 0)
        assert Labelled("x").count == 0 and Labelled("x", count=4).count == 4
        report = AnalysisReport(divisible=True)
        assert report.remainder is report.certificate is None

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Coerced(1, 2), "Coerced is missing field 'c'"),
            (lambda: Labelled(count=1), "Labelled is missing field 'label'"),
            (lambda: Coerced(1, 2, 3, d=4), "Coerced has no field 'd'"),
            (lambda: Labelled("x", colour=1), "Labelled has no field 'colour'"),
            (lambda: Coerced(1, 2, 3, 4), "Coerced takes 3 fields, each given once"),
            (lambda: Coerced(1, 2, 3, a=1), "Coerced takes 3 fields, each given once"),
            (lambda: Labelled("x", label="y"), "Labelled takes 2 fields, each given once"),
        ],
        ids=[
            "missing", "missing-default", "unknown", "unknown-default",
            "too-many", "repeated", "repeated-default",
        ],
    )
    def test_bad_fields_raise_type_error(self, build, message):
        with pytest.raises(TypeError) as info:
            build()
        assert str(info.value) == message

    def test_post_init_runs_and_coerces(self):
        for q in (Coerced(1, 2, 3), Coerced(a=1, b=2, c=3)):
            assert all(type(x) is Fraction for x in (q.a, q.b, q.c))
        inst = coordinate_instance()
        assert all(type(h) is Fraction for h in inst.slopes + inst.lifts + inst.weights)
        with pytest.raises(StructuralError, match="must have equal length"):
            CoordinateInstance((0,), (1, 2), (1,))

    def test_assignment_raises(self):
        q = Coerced(1, 2, 3)
        with pytest.raises(AttributeError):
            q.a = Fraction(5)
        with pytest.raises(AttributeError):
            q.extra = 1
        with pytest.raises(AttributeError):
            del q.a
        assert q.a == 1 and not hasattr(q, "extra")


class TestValueSemantics:
    def test_equality_only_within_one_class(self):
        inst = coordinate_instance()
        assert inst == coordinate_instance() and not inst != coordinate_instance()
        assert inst != CoordinateInstance(SLOPES, (1,) * 7, (3,) * 7)
        fields = (inst.slopes, inst.lifts, inst.weights)
        assert inst != fields and fields != inst
        assert inst != Triple(*fields) and Triple(*fields) != inst
        assert inst.__eq__(fields) is NotImplemented

    def test_equal_records_have_equal_hashes(self):
        assert hash(coordinate_instance()) == hash(coordinate_instance())
        assert hash(Coerced(1, 2, 3)) == hash(Coerced(Fraction(1), 2, Fraction(6, 2)))
        distinct = {Coerced(1, 2, 3), Coerced(a=1, b=2, c=3), Coerced(0, 0, 0)}
        assert len(distinct) == 2

    def test_repr(self):
        assert repr(Labelled("x")) == "Labelled(label='x', count=0)"
        assert repr(Coerced(1, 2, 3)) == (
            "Coerced(a=Fraction(1, 1), b=Fraction(2, 1), c=Fraction(3, 1))"
        )

    def test_cached_property_is_read_once(self):
        generated = generate_tangent_instance(SLOPES, (1, 2, 3), seed=0)
        first = generated.quartic
        assert generated.quartic is first
        assert first.target == generated.instance.to_decomposition().value()


def package_classes() -> list[type]:
    """The classes defined in the modules of ``doubleline``."""
    classes = []
    for info in pkgutil.iter_modules(doubleline.__path__, "doubleline."):
        if info.name == "doubleline.__main__":
            continue
        for cls in vars(importlib.import_module(info.name)).values():
            if isinstance(cls, type) and cls.__module__ == info.name:
                classes.append(cls)
    return classes


def test_only_record_guards_attributes():
    # one immutability mechanism: a class of the package that defines its own
    # __setattr__ or __delattr__ is a second copy of Record's
    guards = [
        f"{cls.__name__}.{a}"
        for cls in package_classes()
        if cls is not Record
        for a in ("__setattr__", "__delattr__")
        if a in vars(cls)
    ]
    assert guards == []


def test_no_hand_written_value_classes():
    # one value mechanism: besides the exceptions and the mutable RunReport,
    # a class of the package with its own __slots__ or __init__ is a Record
    hand_written = [
        f"{cls.__name__}.{a}"
        for cls in package_classes()
        if not issubclass(cls, (BaseException, Record)) and cls is not RunReport
        for a in ("__slots__", "__init__")
        if a in vars(cls)
    ]
    assert hand_written == []


def test_only_the_quartic_is_cached():
    # one clearing policy: a value clears its inputs once, when it is built;
    # the one lazy attribute is TangentInstance.quartic, an extraction kept
    # apart from analyze
    cached = [
        f"{cls.__name__}.{name}"
        for cls in package_classes()
        for name, attr in vars(cls).items()
        if isinstance(attr, functools.cached_property)
    ]
    assert cached == ["TangentInstance.quartic"]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S: no site hooks, so nothing this environment preloads can hide an import
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import doubleline.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


def test_importing_the_cli_does_not_load_json():
    # json serves only verify documents and --json output, which import it when run
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import doubleline.cli; "
        "print('json' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
    )
    assert result.stdout == "False\n"
