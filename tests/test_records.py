"""Value semantics of the record types, the constructor `Record`
supplies, and their report form."""

import ast
import copy
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

import roundlab
from roundlab.cayley import (CayleyRoundnessReport, ExplicitGenerators,
                             FamilyGenerators, MStarReport, ProjectionReport)
from roundlab.cyclic import (CycleSpace, DoubleSimplex, IncidenceCounts,
                             Isometry, PairClass, ProductCycleSpace,
                             SimplexClass, SparsePairBatch)
from roundlab.inject import (BallChainTarget, InjectionReport,
                             InjectionTable, LevelStructure, SeqVector)
from roundlab.metric import FiniteMetricSpace, ValidationReport
from roundlab.moduli import ModulusEnvelope, SnowflakeOracle
from roundlab.obstruction import (ChainReport, CircleEmbeddingMap,
                                  CoarseObstructionReport, ConstantMap,
                                  IdentityMap, LevelAverage, SnowflakeMap,
                                  StepReport, UniformObstructionReport)
from roundlab.report import sanitize
from roundlab.roundness import GapResult, RoundnessEstimate
from roundlab.spaces import PlanarPoints
from roundlab.zspace import (BallCensus, BallCensusEntry,
                             CorrectedCertificate, TriangleViolation, ZPoint)

F = Fraction
C8 = CycleSpace(8)
SPACE = ProductCycleSpace(3, C8)
PATH3 = tuple(tuple(F(abs(i - j)) for j in range(3)) for i in range(3))

# type: (constructor arguments, (argument index, a different value),
# [(bad arguments, exception, message)]); the errors are those the
# constructor raised when these types were frozen dataclasses
RECORDS = {
    CycleSpace: ((8, F(1, 2)), (1, F(1, 4)), [
        ((7,), ValueError, "units must be a positive even integer"),
        ((0,), ValueError, "units must be a positive even integer"),
        ((8, F(0)), ValueError, "quantum must be positive")]),
    ProductCycleSpace: ((3, C8), (1, CycleSpace(6)), [
        ((0, C8), ValueError, "coords must be >= 1")]),
    PairClass: ((1, 2), (1, 3), [
        ((0, 2), ValueError, "delta must be >= 1"),
        ((1, 0), ValueError, "support must be >= 1")]),
    SimplexClass: ((1, 2, 4), (2, 2), [
        ((1, 2, 3), ValueError, "families must be an even integer >= 2"),
        ((1, 0, 2), ValueError, "delta and support must be >= 1")]),
    DoubleSimplex: (((0, 2), (1, 3)), (1, (1, 2)), [
        (((0, 2), (1,)), ValueError, "families must have equal size"),
        (((0,), (1,)), ValueError, "families must have >= 2 members")]),
    Isometry: (((1, 0), (0, 3), (False, True), 8), (2, (True, True)), []),
    IncidenceCounts: ((1, 1, 2, 4, 8, 1, 1, 2), (0, 2), [
        ((1, 1, 2, 4, 4, 1, 1, 3), ArithmeticError,
         "edge double-counting identity failed"),
        ((1, 1, 2, 4, 4, 1, 1, 2), ArithmeticError,
         "connecting double-counting identity failed")]),
    FiniteMetricSpace: ((PATH3, ("a", "b", "c")), (1, ("a", "b", "d")), [
        ((PATH3, ("a",)), ValueError, "labels length must match"),
        ((((F(0), F(1)), (F(1),)),), ValueError, "must be square"),
        ((((F(1), F(1)), (F(1), F(0))),), ValueError, "fails identity"),
        ((((F(0), F(1)), (F(2), F(0))),), ValueError, "fails symmetry"),
        ((((F(0), F(0)), (F(0), F(0))),), ValueError, "fails positivity"),
        ((((F(0), F(1), F(3)), (F(1), F(0), F(1)), (F(3), F(1), F(0))),),
         ValueError, r"triangle inequality fails at \(0,2,1\)")]),
    SnowflakeOracle: ((C8, F(1, 2)), (1, F(1, 3)), []),
    ModulusEnvelope: (((1, 2), (1, 3), (1, 3), (1, 3)), (3, (2, 3)), []),
    IdentityMap: ((SPACE,), (0, ProductCycleSpace(4, C8)), []),
    CircleEmbeddingMap: ((SPACE, 2.0), (1, 3.0), []),
    SnowflakeMap: ((SPACE, 0.5), (1, 0.25), [
        ((SPACE, 0.0), ValueError, r"alpha must lie in \(0, 1\]"),
        ((SPACE, 1.5), ValueError, r"alpha must lie in \(0, 1\]")]),
    ConstantMap: ((SPACE,), (0, ProductCycleSpace(4, C8)), []),
    LevelAverage: ((PairClass(1, 2), 2.0, 1.5, 10, "mc"), (4, "exact"), []),
    GapResult: ((2, F(8), F(4), True, 0), (2, F(5)), []),
    PlanarPoints: ((((0, 0), (3, 4)),), (0, ((0, 0), (1, 1))), []),
    ZPoint: ((2, ((0, 1), (3, 2))), (1, ((0, 1),)), [
        ((3,), ValueError, "block size must be even"),
        ((2, ((4, 1),)), ValueError, "coordinate 4 out of range"),
        ((2, ((0, 0),)), ValueError, "residue 0 out of range or zero"),
        ((2, ((0, 1), (0, 2))), ValueError, "coordinate 0 repeated")]),
    TriangleViolation: (("cross_detour", ZPoint(2), ZPoint(4), ZPoint(6),
                         F(3), F(2)), (5, F(1)), []),
    SeqVector: ((((1, F(1, 2)), (3, 1)),), (0, ((1, 1),)), [
        ((((2, 1), (2, 1)),), ValueError,
         "levels must be strictly increasing"),
        ((((1, 0),),), ValueError, "values must be nonzero")]),
    LevelStructure: (((F(1), F(1, 2)), (1, 2), 2, (), None), (4, "a warning"),
                     []),
    BallChainTarget: (("intervals", 1), (1, 0), []),
    FamilyGenerators: ((2, 3, "literal"), (2, "merged"), [
        ((0, 3), ValueError, "dim must be positive"),
        ((2, 1), ValueError, "jump must be at least 2"),
        ((2, 3, "other"), ValueError, "unknown variant 'other'")]),
    ExplicitGenerators: ((1, frozenset({(1,), (-1,)})),
                         (1, frozenset({(2,), (-2,)})), [
        ((1, frozenset({(0,)})), ValueError, "generators must be nonzero"),
        ((1, frozenset({(1,)})), ValueError,
         r"\(1,\) present without its inverse"),
        ((1, frozenset({(1, 1), (-1, -1)})), ValueError,
         "vector has length 2, expected 1")]),
    RoundnessEstimate: ((0.5, math.inf, (1, 0), 1.0, True, 16.0, (),
                         ("a flag",)), (1, 1.0), []),
    InjectionReport: (("ell0", True, None, F(3, 8), (0, 1), (), 6,
                       "identity", None), (3, 0.5), []),
    InjectionTable: (("ellp", (SeqVector(((1, F(1, 2)),)), SeqVector()),
                      ("a", "b"), F(2), None, ("a warning",)),
                     (3, F(3)), []),
}


@pytest.mark.parametrize("cls, args, change, errors",
                         [(cls, *case) for cls, case in RECORDS.items()],
                         ids=[cls.__name__ for cls in RECORDS])
def test_record_value_semantics(cls, args, change, errors):
    a, b = cls(*args), cls(*copy.deepcopy(args))
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # another type with the same fields never compares equal
    assert a != args and a != object()
    index, value = change
    changed = list(args)
    changed[index] = value
    other = cls(*changed)
    assert other != a and a != other
    for bad, exc, message in errors:
        with pytest.raises(exc, match=message):
            cls(*bad)


def test_record_repr_names_the_fields():
    assert repr(PairClass(1, 2)) == "PairClass(delta=1, support=2)"
    assert repr(CycleSpace(8, F(1, 2))) == \
        "CycleSpace(units=8, quantum=Fraction(1, 2))"


def test_unchecked_space_equals_checked_space_on_the_same_matrix():
    # the audit flag is a constructor switch, not a field
    assert FiniteMetricSpace(PATH3) == FiniteMetricSpace.unchecked(PATH3)
    assert FiniteMetricSpace(PATH3).labels == ("0", "1", "2")


# the records whose constructor `Record` supplies: each field in
# `__slots__` order, by position or by name, with no default
PLAIN_RECORDS = [
    MStarReport, ProjectionReport, CayleyRoundnessReport, Isometry,
    SparsePairBatch, BallChainTarget, ValidationReport, SnowflakeOracle,
    ModulusEnvelope, LevelAverage, StepReport, ChainReport,
    CoarseObstructionReport, UniformObstructionReport, GapResult,
    PlanarPoints, TriangleViolation, CorrectedCertificate, BallCensusEntry,
    BallCensus, LevelStructure, InjectionTable, InjectionReport,
    RoundnessEstimate,
]


def _field_values(cls) -> tuple:
    return tuple(f"<{name}>" for name in cls.__slots__)


@pytest.mark.parametrize("cls", PLAIN_RECORDS,
                         ids=[cls.__name__ for cls in PLAIN_RECORDS])
def test_plain_record_constructs_by_position_and_by_name(cls):
    names, values = cls.__slots__, _field_values(cls)
    by_position = cls(*values)
    assert tuple(getattr(by_position, n) for n in names) == values
    assert by_position == cls(**dict(zip(names, values)))
    # a positional head and a keyword tail, in any keyword order
    for cut in range(len(names) + 1):
        tail = dict(reversed(list(zip(names[cut:], values[cut:]))))
        assert cls(*values[:cut], **tail) == by_position


@pytest.mark.parametrize("cls", PLAIN_RECORDS,
                         ids=[cls.__name__ for cls in PLAIN_RECORDS])
def test_plain_record_refuses_a_bad_field_list(cls):
    names, values = cls.__slots__, _field_values(cls)
    name = cls.__name__
    with pytest.raises(TypeError, match=rf"^{name} is missing field\(s\) "
                       rf"'{names[-1]}'$"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match=rf"^{name} is missing field\(s\) "
                       rf"'{names[0]}'"):
        cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError, match=rf"^{name} takes {len(names)} "
                       rf"fields but {len(names) + 1} were given$"):
        cls(*values, "extra")
    with pytest.raises(TypeError, match=rf"^{name} has no field 'bogus'$"):
        cls(*values, bogus=1)
    with pytest.raises(TypeError,
                       match=rf"^{name} got field '{names[0]}' twice$"):
        cls(*values, **{names[0]: values[0]})


def _copies_its_arguments(init: ast.FunctionDef) -> bool:
    """True when the constructor's body only assigns its own arguments,
    without defaults, to attributes of the same name: what `Record`'s
    constructor does."""
    args = init.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    if (args.vararg or args.kwarg or args.defaults or len(params) < 2
            or any(d is not None for d in args.kw_defaults)):
        return False
    self_name, names = params[0].arg, {p.arg for p in params[1:]}

    def copies(stmt) -> bool:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            return False
        target, value = stmt.targets[0], stmt.value
        return (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == self_name
                and isinstance(value, ast.Name)
                and value.id == target.attr and value.id in names)

    return all(copies(stmt) for stmt in init.body)


def test_no_class_writes_the_constructor_record_supplies():
    package = Path(roundlab.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and item.name == "__init__"
                        and _copies_its_arguments(item)):
                    found.append(f"{path.name}:{node.name}")
    assert not found, ("derive from roundlab.Record and drop the "
                       f"constructor: {found}")


def test_the_guard_sees_a_copying_constructor():
    tree = ast.parse("class A:\n"
                     "    def __init__(self, a, b):\n"
                     "        self.a = a\n"
                     "        self.b = b\n"
                     "class B:\n"
                     "    def __init__(self, a, b=1):\n"
                     "        self.a = a\n"
                     "        self.b = b\n"
                     "class C:\n"
                     "    def __init__(self, a):\n"
                     "        check(a)\n"
                     "        self.a = a\n")
    inits = [cls.body[0] for cls in tree.body]
    assert [_copies_its_arguments(init) for init in inits] \
        == [True, False, False]


def _classes_defining(tree: ast.AST, method: str) -> list[str]:
    return [node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(isinstance(item, ast.FunctionDef) and item.name == method
                    for item in node.body)]


def test_only_record_defines_to_dict():
    package = Path(roundlab.__file__).parent
    found = [f"{path.name}:{name}" for path in sorted(package.glob("*.py"))
             for name in _classes_defining(ast.parse(path.read_text()),
                                           "to_dict")]
    assert found == ["__init__.py:Record"], (
        "a report states the keys that differ from its slots by overriding "
        f"fields(), not to_dict(): {found}")


def test_the_guard_sees_a_to_dict():
    tree = ast.parse("class A:\n"
                     "    def to_dict(self):\n"
                     "        return {}\n"
                     "class B:\n"
                     "    def fields(self):\n"
                     "        return {}\n")
    assert _classes_defining(tree, "to_dict") == ["A"]


def test_maps_batch_only_through_their_class_distance():
    # the base defines the batch form once, as the class distance on every
    # row; no map keeps a numpy twin, nor its row helpers
    tree = ast.parse((Path(roundlab.__file__).parent
                      / "obstruction.py").read_text())
    assert _classes_defining(tree, "image_distance_batch") \
        == ["_CycleMapBase"]
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_cyc_quanta", "_sup_distances"}


@pytest.mark.parametrize("cls, args",
                         [(cls, case[0]) for cls, case in RECORDS.items()],
                         ids=[cls.__name__ for cls in RECORDS])
def test_record_serializes_its_fields(cls, args):
    record = cls(*args)
    if type(record).fields is roundlab.Record.fields:
        assert list(record.fields()) == list(cls.__slots__)
    assert record.to_dict() == sanitize(record.fields())
    json.dumps(record.to_dict())
