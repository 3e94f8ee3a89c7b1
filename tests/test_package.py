"""The lazy package namespace and the immutable value classes."""

import copy
import importlib
import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import lcd2
from lcd2._frozen import Frozen
from lcd2.classify import EquivClass, MultVector
from lcd2.code import LinearCode, WeightEnumerator
from lcd2.family import ATuple, BTuple, Family, family_catalog
from lcd2.linalg import Mat
from lcd2.verify import CheckResult, VerificationReport

PUBLIC_NAMES = [
    "ATuple", "BTuple", "EquivClass", "Family", "LinearCode", "Mat", "MultVector",
    "VerificationReport", "WeightEnumerator", "a_to_b", "are_equivalent", "b_to_a",
    "build_generator", "canonical_form", "census", "check_lcd_conditions_a",
    "check_lcd_conditions_b", "classify_optimal", "code_to_multvector", "codewords",
    "conj_transpose", "delta", "det", "dmax", "enumerate_optimal", "extend_with_zero",
    "family_catalog", "family_tuples", "gram", "has_zero_coordinate",
    "hermitian_inner", "hull_dimension", "induced_point_permutations", "is_hermitian_lcd",
    "mat", "min_weight", "move_add_row", "move_swap345", "move_swap_rows",
    "multvector_to_code", "parse_matrix", "rank", "verify_classification", "weight_enumerator",
]


def test_public_names_are_the_objects_their_modules_define():
    assert lcd2.__all__ == PUBLIC_NAMES
    for name in lcd2.__all__:
        obj = getattr(lcd2, name)
        home = obj.__module__
        assert home.startswith("lcd2."), name
        assert obj is getattr(importlib.import_module(home), name), name


def test_dir_and_star_import_list_every_public_name():
    # A fresh interpreter, where no public name has been read yet.
    probe = (
        "import json, lcd2\n"
        "listed = dir(lcd2)\n"
        "namespace = {}\n"
        "exec('from lcd2 import *', namespace)\n"
        "print(json.dumps([listed, sorted(set(namespace) - {'__builtins__'})]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lcd2.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    listed, star = json.loads(result.stdout)
    assert set(PUBLIC_NAMES) <= set(listed)
    assert star == PUBLIC_NAMES


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lcd2.no_such_name
    with pytest.raises(ImportError):
        exec("from lcd2 import no_such_name", {})
    # classify forwards only the report entry point that moved to verify.
    import lcd2.classify as classify_module

    assert classify_module.verify_classification is lcd2.verify.verify_classification
    with pytest.raises(AttributeError):
        classify_module.VERIFY_BUDGET


_CHECK = CheckResult("T3", 12, False, "C_{5m+2,1}: 'x'")
_GEN = Mat(((1, 0, 1), (0, 1, 3)), 3)

# A sample of each value class, an equal one built anew, one that differs
# in a field, and the repr a frozen dataclass prints for it.
SAMPLES = [
    (
        MultVector(1, (1, 1, 0, 2, 3)),
        MultVector(m0=1, mp=(1, 1, 0, 2, 3)),
        MultVector(1, (1, 1, 0, 3, 2)),
        "MultVector(m0=1, mp=(1, 1, 0, 2, 3))",
    ),
    (
        EquivClass(MultVector(2, (1, 1, 1, 2, 2)), "C_{5m+4,8}"),
        EquivClass(canon=MultVector(2, (1, 1, 1, 2, 2)), label="C_{5m+4,8}"),
        EquivClass(MultVector(2, (1, 1, 1, 2, 2))),
        "EquivClass(canon=MultVector(m0=2, mp=(1, 1, 1, 2, 2)), label='C_{5m+4,8}')",
    ),
    (
        EquivClass(MultVector(0, (1, 2, 3, 5, 4))),
        EquivClass(MultVector(0, (1, 2, 3, 5, 4)), label=None),
        EquivClass(MultVector(0, (1, 2, 3, 5, 4)), "x"),
        "EquivClass(canon=MultVector(m0=0, mp=(1, 2, 3, 5, 4)), label=None)",
    ),
    (
        _CHECK,
        CheckResult(id="T3", n=12, passed=False, detail="C_{5m+2,1}: 'x'"),
        CheckResult("T3", 12, True, "C_{5m+2,1}: 'x'"),
        "CheckResult(id='T3', n=12, passed=False, detail=\"C_{5m+2,1}: 'x'\")",
    ),
    (
        VerificationReport(12, (_CHECK,)),
        VerificationReport(n_max=12, checks=(_CHECK,)),
        VerificationReport(13, (_CHECK,)),
        "VerificationReport(n_max=12, checks=(CheckResult(id='T3', n=12, passed=False, "
        "detail=\"C_{5m+2,1}: 'x'\"),))",
    ),
    (
        _GEN,
        Mat(rows=((1, 0, 1), (0, 1, 3)), ncols=3),
        Mat(((1, 0, 1), (0, 1, 2)), 3),
        "Mat(rows=((1, 0, 1), (0, 1, 3)), ncols=3)",
    ),
    (Mat((), 4), Mat((), ncols=4), Mat((), 5), "Mat(rows=(), ncols=4)"),
    (
        LinearCode(_GEN),
        LinearCode(gen=Mat(((1, 0, 1), (0, 1, 3)), 3)),
        LinearCode(Mat(((1, 0, 1), (0, 1, 2)), 3)),
        "LinearCode(gen=Mat(rows=((1, 0, 1), (0, 1, 3)), ncols=3))",
    ),
    (
        WeightEnumerator(((0, 1), (2, 6), (3, 9))),
        WeightEnumerator(counts=((0, 1), (2, 6), (3, 9))),
        WeightEnumerator(((0, 1), (2, 9), (3, 6))),
        "WeightEnumerator(counts=((0, 1), (2, 6), (3, 9)))",
    ),
    (
        ATuple(1, 2, 3, 4, 5, a0=2),
        ATuple(a1=1, a2=2, a3=3, a4=4, a5=5, a0=2),
        ATuple(1, 2, 3, 4, 5),
        "ATuple(a1=1, a2=2, a3=3, a4=4, a5=5, a0=2)",
    ),
    (
        ATuple(1, 2, 3, 4, 5),
        ATuple(1, 2, 3, 4, 5, a0=0),
        ATuple(1, 2, 3, 5, 4),
        "ATuple(a1=1, a2=2, a3=3, a4=4, a5=5, a0=0)",
    ),
    (
        BTuple(1, 2, 0, 0, 1, 3, 7, 5),
        BTuple(b1=1, b2=2, b3=0, b4=0, b5=1, delta=3, n=7, d=5),
        BTuple(1, 2, 0, 0, 1, 3, 7, 4),
        "BTuple(b1=1, b2=2, b3=0, b4=0, b5=1, delta=3, n=7, d=5)",
    ),
    (
        family_catalog()[0],
        Family("C_{5m,1}", 0, 1, (0, 0, 0, 0, -2), 2),
        Family("C_{5m,1}", 0, 1, (0, 0, 0, 0, -2), 3),
        "Family(label='C_{5m,1}', residue=0, index=1, offsets=(0, 0, 0, 0, -2), m_min=2)",
    ),
]


@pytest.mark.parametrize("value, same, other, text", SAMPLES, ids=[type(s[0]).__name__ for s in SAMPLES])
def test_value_classes_behave_as_frozen_dataclasses(value, same, other, text):
    assert repr(value) == text
    assert value == same and not value != same and hash(value) == hash(same)
    assert value != other and not value == other
    assert len({value, same, other}) == 2
    fields = tuple(getattr(value, name) for name in type(value).__slots__)
    # Unlike a NamedTuple, a value is equal to nothing of another type.
    assert value != fields and value.__eq__(fields) is NotImplemented
    assert value != object()
    for name in (*type(value).__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and type(twin) is type(value)


def test_value_classes_validate_their_fields():
    with pytest.raises(ValueError, match="expected 5 point multiplicities, got 2"):
        MultVector(0, (1, 2))
    with pytest.raises(ValueError, match="expected 5 point multiplicities, got 2"):
        MultVector(mp=(1, 2), m0=0)
    with pytest.raises(ValueError, match=r"negative multiplicity in MultVector\(m0=-1, "):
        MultVector(-1, (1, 1, 0, 0, 0))
    with pytest.raises(ValueError, match="is not a rank-2 canonical form"):
        EquivClass(MultVector(0, (2, 1, 0, 0, 0)))
    with pytest.raises(ValueError, match="is not a rank-2 canonical form"):
        EquivClass(label="x", canon=MultVector(0, (0, 0, 0, 0, 3)))
    with pytest.raises(ValueError, match="dimension 3 exceeds length 2"):
        LinearCode(Mat(((1, 0), (0, 1), (1, 1)), 2))
    with pytest.raises(ValueError, match="rank deficient"):
        LinearCode(Mat(((1, 0), (1, 0)), 2))
    with pytest.raises(ValueError) as exc:
        ATuple(1, 2, 3, 4, 5, a0=-1)
    assert str(exc.value) == "negative multiplicity in ATuple(a1=1, a2=2, a3=3, a4=4, a5=5, a0=-1)"
    with pytest.raises(ValueError, match=r"negative multiplicity in ATuple\(a1=1, "):
        ATuple(a1=1, a2=2, a3=3, a4=4, a5=-5)


# Each value class's constructor parameters, in order, and their defaults.
CONSTRUCTORS = [
    (MultVector, ("m0", "mp"), {}),
    (EquivClass, ("canon", "label"), {"label": None}),
    (ATuple, ("a1", "a2", "a3", "a4", "a5", "a0"), {"a0": 0}),
    (BTuple, ("b1", "b2", "b3", "b4", "b5", "delta", "n", "d"), {}),
    (Family, ("label", "residue", "index", "offsets", "m_min"), {}),
    (LinearCode, ("gen",), {}),
    (WeightEnumerator, ("counts",), {}),
    (CheckResult, ("id", "n", "passed", "detail"), {}),
    (VerificationReport, ("n_max", "checks"), {}),
]


@pytest.mark.parametrize("cls, names, defaults", CONSTRUCTORS, ids=[c[0].__name__ for c in CONSTRUCTORS])
def test_generated_constructors_keep_their_signatures(cls, names, defaults):
    params = inspect.signature(cls).parameters.values()
    assert tuple(p.name for p in params) == names == cls.__slots__
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert {p.name: p.default for p in params if p.default is not p.empty} == defaults
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"


@pytest.mark.parametrize("value", [s[0] for s in SAMPLES], ids=[type(s[0]).__name__ for s in SAMPLES])
def test_value_classes_build_from_keywords_in_any_order(value):
    fields = {name: getattr(value, name) for name in type(value).__slots__}
    assert type(value)(**dict(reversed(fields.items()))) == value
    with pytest.raises(TypeError):
        type(value)(*fields.values(), None)
    with pytest.raises(TypeError):
        type(value)(**fields, extra=None)


def test_generated_constructors_call_post_init_once(monkeypatch):
    calls = []
    for cls in (MultVector, EquivClass, ATuple, LinearCode):
        monkeypatch.setattr(cls, "__post_init__", lambda self: calls.append(type(self).__name__))
    EquivClass(MultVector(0, (1, 1, 1, 2, 2)))
    ATuple(a5=1, a4=1, a3=1, a2=1, a1=1)
    LinearCode(_GEN)
    WeightEnumerator(((0, 1),))
    assert calls == ["MultVector", "EquivClass", "ATuple", "LinearCode"]
    # The classes without a validation hook get a constructor that calls none.
    for cls, *_ in CONSTRUCTORS:
        if cls.__name__ not in calls:
            assert not hasattr(cls, "__post_init__"), cls


def test_mat_keeps_its_converting_constructor():
    rows = Mat([[1, 0, 1], bytearray((0, 1, 3))], ncols=3).rows
    assert rows == (b"\x01\x00\x01", b"\x00\x01\x03") and all(type(r) is bytes for r in rows)
    assert list(inspect.signature(Mat).parameters) == ["rows", "ncols"]
    assert Mat.__init__.__code__.co_filename == lcd2.linalg.__file__


def test_frozen_defaults_must_name_the_last_fields_in_order():
    for defaults in ({"x": 0}, {"y": 0, "x": 0}, {"z": 0}, {"y": 0, "z": 0}):
        with pytest.raises(TypeError, match="are not its last fields"):

            class Bad(Frozen, defaults=defaults):
                __slots__ = ("x", "y")

    # A default reaches the constructor as the object itself, not as its repr.
    marker = object()

    class Pair(Frozen, defaults={"x": 1, "y": marker}):
        __slots__ = ("x", "y")

    assert Pair().y is marker and Pair(y=2) == Pair(1, 2) and Pair(2).x == 2
