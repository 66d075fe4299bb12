"""The package's records are plain classes: constructors, equality,
hashing, immutability, repr and copying behave as the generated
dataclass methods they replace did. The reprs below were recorded from
those dataclasses."""

import ast
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from lambdalab import (
    CatalogueEntry,
    CompareVerdict,
    CorpusReport,
    Diagnostic,
    FormClass,
    FusionResult,
    GenConfig,
    HybridSpec,
    NotationError,
    Outcome,
    ReadbackSpec,
    TraceEvent,
    UniformSpec,
    ValidationReport,
    parse_term,
)
from lambdalab.engine import Trace
from lambdalab.records import FrozenRecord, Record

ROOT = Path(__file__).resolve().parents[1]

_U = UniformSpec("I", "S", "S")
_H = HybridSpec("H", "S", "H", _U)
_REDEX, _Y = parse_term("(\\x.x) y"), parse_term("y")
_EVENT = TraceEvent(0, ("F", "A"), _REDEX, _Y)

# class -> (positional arguments, keyword arguments naming the same
# values, the fields left to their defaults and those defaults)
CASES = {
    UniformSpec: (("I", "S", "S"), dict(la="I", ar1="S", ar2="S"), {}),
    HybridSpec: (("H", "S", "H", _U),
                 dict(la="H", ar1="S", ar2="H", subsidiary=_U), {}),
    ReadbackSpec: (("RE", "R", _U), dict(la="RE", ar2="R", ev=_U), {}),
    Diagnostic: (("p", "m"), dict(proviso="p", message="m"), {}),
    ValidationReport: ((_U, "valid-uniform"),
                       dict(spec=_U, verdict="valid-uniform"),
                       {"diagnostics": ()}),
    FusionResult: ((_H, True), dict(hybrid=_H, mcr=True), {}),
    CatalogueEntry: (("bv", _U, "uniform", FormClass.WNF),
                     dict(alias="bv", spec=_U, classification="uniform",
                          result_form=FormClass.WNF), {}),
    TraceEvent: ((0, ("F", "A"), _REDEX, _Y),
                 dict(step_index=0, position=("F", "A"), redex=_REDEX,
                      contractum=_Y), {}),
    Outcome: (("converged", _Y, Trace((_EVENT,)), 1),
              dict(status="converged", result=_Y, trace=Trace((_EVENT,)),
                   fuel_used=1), {"stage": None}),
    CompareVerdict: (("one-step-equal",), dict(kind="one-step-equal"),
                     {"witness": None}),
    CorpusReport: (("ISS", "III", 3, 100, 5),
                   dict(a="ISS", b="III", seed=3, fuel=100, n=5),
                   {"verdicts": {}, "counterexamples": [], "mcr": None}),
    GenConfig: ((1, 10), dict(seed=1, size_max=10), {"free_var_pool": ()}),
}

# One value per class whose fields are all set, and hashable where the
# class is.
FULL = {
    UniformSpec: _U,
    HybridSpec: _H,
    ReadbackSpec: ReadbackSpec("RE", "R", _U),
    Diagnostic: Diagnostic("p", "m"),
    ValidationReport: ValidationReport(_H, "spurious", (Diagnostic("p", "m"),)),
    FusionResult: FusionResult(_H, True),
    CatalogueEntry: CatalogueEntry("bv", _U, "uniform", FormClass.WNF),
    TraceEvent: _EVENT,
    Outcome: Outcome("converged", _Y, None, 1,
                     Outcome("converged", _Y, None, 1)),
    CompareVerdict: CompareVerdict("differ", (1, ("a", "b"))),
    CorpusReport: CorpusReport("ISS", "III", None, 100, 5, {"x": 1},
                               [{"a": [1]}], True),
    GenConfig: GenConfig(2, 12, ("x", "y")),
}

MUTABLE = (TraceEvent, CorpusReport)
FROZEN = tuple(cls for cls in CASES if cls not in MUTABLE)

REPRS = {
    UniformSpec: "UniformSpec(la='I', ar1='S', ar2='S')",
    HybridSpec: "HybridSpec(la='H', ar1='S', ar2='H', "
                "subsidiary=UniformSpec(la='I', ar1='S', ar2='S'))",
    ReadbackSpec: "ReadbackSpec(la='RE', ar2='R', "
                  "ev=UniformSpec(la='I', ar1='S', ar2='S'))",
    Diagnostic: "Diagnostic(proviso='p', message='m')",
    ValidationReport: "ValidationReport(spec=HybridSpec(la='H', ar1='S', "
                      "ar2='H', subsidiary=UniformSpec(la='I', ar1='S', "
                      "ar2='S')), verdict='spurious', "
                      "diagnostics=(Diagnostic(proviso='p', message='m'),))",
    FusionResult: "FusionResult(hybrid=HybridSpec(la='H', ar1='S', ar2='H', "
                  "subsidiary=UniformSpec(la='I', ar1='S', ar2='S')), "
                  "mcr=True)",
    CatalogueEntry: "CatalogueEntry(alias='bv', spec=UniformSpec(la='I', "
                    "ar1='S', ar2='S'), classification='uniform', "
                    "result_form=<FormClass.WNF: 'WNF'>)",
    TraceEvent: "TraceEvent(0, FA, (\\x.x) y -> y)",
    Outcome: "Outcome(status='converged', result=y, trace=None, "
             "fuel_used=1, stage=Outcome(status='converged', result=y, "
             "trace=None, fuel_used=1, stage=None))",
    CompareVerdict: "CompareVerdict(kind='differ', witness=(1, ('a', 'b')))",
    CorpusReport: "CorpusReport(a='ISS', b='III', seed=None, fuel=100, n=5, "
                  "verdicts={'x': 1}, counterexamples=[{'a': [1]}], "
                  "mcr=True)",
    GenConfig: "GenConfig(seed=2, size_max=12, free_var_pool=('x', 'y'))",
}

ids = lambda cls: cls.__name__  # noqa: E731


def _fields(record):
    return tuple(getattr(record, name) for name in record.__match_args__)


def test_the_cases_cover_every_record():
    records, stack = set(), [Record]
    while stack:
        for cls in stack.pop().__subclasses__():
            if cls.__module__.startswith("lambdalab."):
                records.add(cls)
                stack.append(cls)
    records -= {FrozenRecord}
    assert set(CASES) == set(FULL) == set(REPRS) == records | {TraceEvent}
    assert len(CASES) == 12


@pytest.mark.parametrize("cls", CASES, ids=ids)
def test_positional_and_keyword_construction_agree(cls):
    args, kwargs, defaults = CASES[cls]
    positional, keyword = cls(*args), cls(**kwargs)
    assert positional == keyword
    assert cls.__match_args__[:len(args)] == tuple(kwargs)
    assert _fields(positional) == args + tuple(defaults.values())
    assert cls.__match_args__[len(args):] == tuple(defaults)


def test_mutable_defaults_are_fresh():
    one, two = CorpusReport("a", "b", None, 1, 0), CorpusReport("a", "b", None, 1, 0)
    one.verdicts["x"] = 1
    one.counterexamples.append({})
    assert two.verdicts == {} and two.counterexamples == []


@pytest.mark.parametrize("cls", CASES, ids=ids)
def test_equality_is_the_field_tuples_within_one_class(cls):
    record = FULL[cls]
    twin = cls(*_fields(record))
    assert record == twin and not record != twin
    assert record != _fields(record)
    other = dict(FULL)
    del other[cls]
    assert all(record != value for value in other.values())
    # A class with the same fields is still another class.
    clone = type(cls.__name__, (cls,), {})(*_fields(record))
    assert record != clone and clone != record
    # Any one field apart is unequal.
    for i in range(len(cls.__match_args__)):
        changed = list(_fields(record))
        changed[i] = object()
        try:
            different = cls(*changed)
        except (NotationError, TypeError, ValueError):
            continue
        assert record != different


@pytest.mark.parametrize("cls", FROZEN, ids=ids)
def test_frozen_records_hash_their_field_tuple(cls):
    record = FULL[cls]
    assert hash(record) == hash(_fields(record))
    assert hash(record) == hash(cls(*_fields(record)))
    assert {record: 1}[cls(*_fields(record))] == 1


@pytest.mark.parametrize("cls", (CorpusReport,), ids=ids)
def test_mutable_records_are_unhashable(cls):
    assert cls.__hash__ is None
    with pytest.raises(TypeError, match="unhashable"):
        hash(FULL[cls])


def test_trace_events_hash_their_four_fields():
    # So an outcome or a verdict that holds events hashes too.
    assert hash(_EVENT) == hash(_fields(_EVENT))
    assert hash(_EVENT) == hash(TraceEvent(*_fields(_EVENT)))
    assert {_EVENT: 1}[TraceEvent(*_fields(_EVENT))] == 1


@pytest.mark.parametrize("cls", FROZEN, ids=ids)
def test_frozen_records_refuse_assignment(cls):
    record = FULL[cls]
    before = _fields(record)
    name = cls.__match_args__[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = None
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    assert _fields(record) == before


@pytest.mark.parametrize("cls", FROZEN, ids=ids)
def test_frozen_records_keep_their_fields_in_their_instance_dict(cls):
    args, kwargs, defaults = CASES[cls]
    for record in (FULL[cls], cls(*args), cls(**kwargs)):
        stored = dict(vars(record))
        assert list(stored) == list(cls.__match_args__)
        assert tuple(stored.values()) == _fields(record)
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(record, cls.__match_args__[-1], None)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(record, cls.__match_args__[0])
        assert vars(record) == stored
    assert vars(cls(**kwargs)) == {**kwargs, **defaults}


def test_mutable_records_take_assignment():
    report = CorpusReport("a", "b", None, 1, 0)
    report.mcr = True
    event = TraceEvent(0, (), _REDEX, _Y)
    event.step_index = 4
    assert report.mcr and event.step_index == 4


@pytest.mark.parametrize("cls", CASES, ids=ids)
def test_pickle_and_copy_round_trip(cls):
    record = FULL[cls]
    copies = [pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(record), copy.deepcopy(record)]
    for twin in copies:
        assert twin.__class__ is cls
        assert twin == record
        assert repr(twin) == repr(record)
    if cls is CorpusReport:
        deep = copy.deepcopy(record)
        deep.verdicts["x"] += 1
        deep.counterexamples[0]["a"].append(2)
        assert record.verdicts == {"x": 1}
        assert record.counterexamples == [{"a": [1]}]


@pytest.mark.parametrize("cls", CASES, ids=ids)
def test_repr_is_unchanged(cls):
    assert repr(FULL[cls]) == REPRS[cls]


def test_trace_event_repr_names_the_root():
    assert repr(TraceEvent(3, (), _REDEX, _Y)) == \
        "TraceEvent(3, root, (\\x.x) y -> y)"


@pytest.mark.parametrize("make, error, message", [
    (lambda: UniformSpec("I", "H", "S"), NotationError,
     "uniform slot must be I or S, got 'H'"),
    (lambda: HybridSpec("I", "S", "E", _U), NotationError,
     "hybrid slot must be I, S or H, got 'E'"),
    (lambda: ReadbackSpec("I", "S", _U), NotationError,
     "readback slot must be I, E, R or (RE), got 'S'"),
    (lambda: GenConfig(1, 0), ValueError, "size_max must be at least 1"),
    (lambda: GenConfig(1, 5, ("v3",)), ValueError,
     "free variable 'v3' must be a variable of the term grammar not named "
     "v<digits>, like the generated binders"),
    (lambda: GenConfig(1, 5, ("x y",)), ValueError,
     "free variable 'x y' must be a variable of the term grammar not named "
     "v<digits>, like the generated binders"),
], ids=("uniform", "hybrid", "readback", "size_max", "binder-name",
        "not-a-variable"))
def test_validation_messages_are_unchanged(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert info.type is error
    assert str(info.value) == message


def test_corpus_report_json_is_a_fresh_copy_without_mcr():
    report = FULL[CorpusReport]
    blob = report.to_json()
    assert blob == {"a": "ISS", "b": "III", "seed": None, "fuel": 100, "n": 5,
                    "verdicts": {"x": 1}, "counterexamples": [{"a": [1]}]}
    assert blob["verdicts"] is not report.verdicts
    assert blob["counterexamples"] is not report.counterexamples
    assert blob["counterexamples"][0] is not report.counterexamples[0]
    assert blob["counterexamples"][0]["a"] is not report.counterexamples[0]["a"]


def test_records_match_their_fields_in_patterns():
    match _H:
        case HybridSpec(la, ar1, ar2, UniformSpec(sla, sar1, sar2)):
            assert (la, ar1, ar2, sla, sar1, sar2) == tuple("HSHISS")
        case _:
            pytest.fail("no match")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Each pulls in a chain of modules that a command line run pays for
    # at start-up and never uses.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    probe = ("import sys, lambdalab.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class _Pair(Record):
    __slots__ = __match_args__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def test_a_record_gets_eq_and_hash_over_its_fields():
    assert "__eq__" in _Pair.__dict__ and "__hash__" in _Pair.__dict__
    assert _Pair.__eq__.__qualname__ == "_Pair.__eq__"
    assert _Pair(1, [2]) == _Pair(1, [2]) and _Pair(1, 2) != _Pair(2, 1)
    assert _Pair(1, 2) != (1, 2) and _Pair(1, 2).__eq__((1, 2)) is NotImplemented
    assert hash(_Pair(1, 2)) == hash((1, 2))
    # One field needs a one-tuple, not a parenthesised expression.
    class One(Record):
        __match_args__ = ("x",)

        def __init__(self, x):
            self.x = x

    assert One(3) == One(3) != One(4)
    assert hash(One(3)) == hash((3,))


def test_a_method_the_class_body_defines_is_kept():
    def eq(self, other):
        return True

    class Loose(Record):
        __match_args__ = ("x",)
        __eq__ = eq
        __hash__ = None

    class Unhashed(Record):
        __match_args__ = ("x",)
        __hash__ = None

    assert Loose.__eq__ is eq and Loose.__hash__ is None
    assert Unhashed.__hash__ is None
    assert Unhashed.__eq__.__qualname__.endswith("Unhashed.__eq__")


def test_a_record_without_fields_gets_no_methods():
    class Empty(Record):
        pass

    class Named(Record):
        __match_args__ = ()

    class Report(CorpusReport):
        pass

    for cls in (Empty, Named, Record, FrozenRecord, Report):
        assert "__eq__" not in cls.__dict__ and "__hash__" not in cls.__dict__
    assert Empty.__eq__ is object.__eq__
    # A subclass that names no fields of its own keeps its base's methods.
    assert Report.__eq__ is CorpusReport.__eq__ and Report.__hash__ is None


def test_the_generated_hash_reads_its_fields_directly():
    # No getter and no loop: the code a hand-written hash would be.
    assert HybridSpec.__hash__.__code__.co_names == (
        "hash", "la", "ar1", "ar2", "subsidiary")
    assert HybridSpec.__eq__.__code__.co_names == (
        "__class__", "la", "ar1", "ar2", "subsidiary", "NotImplemented")


def test_no_record_class_body_writes_eq_or_hash():
    names = {cls.__name__ for cls in CASES}
    written = []
    for path in sorted((ROOT / "src" / "lambdalab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef) or node.name not in names:
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    targets = [item.name]
                elif isinstance(item, ast.Assign):
                    targets = [t.id for t in item.targets
                               if isinstance(t, ast.Name)]
                else:
                    continue
                written += [f"{node.name}.{name}" for name in targets
                            if name in ("__eq__", "__hash__")]
    assert written == ["CorpusReport.__hash__"]
    assert issubclass(TraceEvent, Record) and not hasattr(_EVENT, "__dict__")
