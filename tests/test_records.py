"""Behaviour every record class shares: repr, equality, hash, immutability,
the constructor, copy and pickle, dataclasses.replace and asdict, and the JSON
document of each report."""

import copy
import importlib
import inspect
import pickle
import pkgutil
from dataclasses import (
    MISSING,
    FrozenInstanceError,
    InitVar,
    asdict,
    field,
    fields,
    is_dataclass,
    replace,
)

import pytest

import petrisep
from petrisep import (
    HalfSpace,
    Instance,
    IntervalSet,
    LoopBudget,
    Outcome,
    PetriNet,
    SolverConfig,
    SynthesisResult,
    SynthesisStats,
    Transition,
    TrivialFlags,
    bounded_explore,
    certify,
    check_net,
    check_transition,
    constants_for_instance,
    verify_separator,
)
from petrisep.formula import Atom, Conj, Disj
from petrisep.jsondoc import JsonDoc, Record, record

from conftest import assert_document, document


def records() -> dict:
    """One value of each record class, built afresh from the running example."""
    t = Transition("t", (2, 1), (1, 2))
    u = Transition("u", (1, 2), (0, 4))
    v = Transition("v", (1, 0), (2, 1))
    net = PetriNet(("p1", "p2"), (t, u, v))
    inst = Instance(net, (3, 1), (0, 4))
    hs = HalfSpace((3, 2), 9)
    sep = verify_separator(inst, hs)
    check = check_transition(hs.k, 8, t)
    chk = check_net(net, hs)
    constants = constants_for_instance(inst, (3, 2))
    atom = Atom((1, -1), 2)
    stats = SynthesisStats(3, 4, 0.5, False, ((1, 0), (3, 2)))
    values = [
        t,
        net,
        hs,
        inst,
        sep,
        bounded_explore(inst, 5),
        TrivialFlags(True, False, False),  # check_transition shares interned flags
        check,
        chk,
        atom,
        Conj((atom, Atom((0, 1), 0))),
        Disj((atom, Conj(()))),
        LoopBudget(10, 2.5, 3),
        SolverConfig(("z3", "-in"), 5000),
        stats,
        SynthesisResult(Outcome.FOUND, hs, sep, chk, stats),
        certify(inst, hs),
        constants,
        constants.combined,
    ]
    return {type(x).__name__: x for x in values}


TRANSITIONS = (
    "(Transition(name='t', pre=(2, 1), post=(1, 2), delta=(-1, 1)), "
    "Transition(name='u', pre=(1, 2), post=(0, 4), delta=(-1, 2)), "
    "Transition(name='v', pre=(1, 0), post=(2, 1), delta=(1, 1)))"
)
NET = f"PetriNet(places=('p1', 'p2'), transitions={TRANSITIONS})"
SEPARATOR = "SeparatorVerdict(init_inside=True, final_outside=True, cover_nonpositive=None)"
HALFSPACE = "HalfSpace(k=(3, 2), c=9)"
ORIENTED = "TrivialFlags(oriented=True, monotone=False, antitone=False)"
NONE_OF_THEM = "TrivialFlags(oriented=False, monotone=False, antitone=False)"
NET_CHECK = (
    f"NetCheck(per_transition=(TransitionCheck(transition='t', inductive=True, "
    f"flags={NONE_OF_THEM}, witness=None, witness_value=None, sums_explored=1), "
    f"TransitionCheck(transition='u', inductive=True, flags={ORIENTED}, "
    f"witness=None, witness_value=None, sums_explored=0), "
    f"TransitionCheck(transition='v', inductive=True, flags={ORIENTED}, "
    f"witness=None, witness_value=None, sums_explored=0)))"
)
ATOM = "Atom(coeffs=(1, -1), rhs=2)"
STATS = (
    "SynthesisStats(iterations=3, solver_queries=4, wall_seconds=0.5, fast_path=False, "
    "examined=((1, 0), (3, 2)))"
)
REPRS = {
    "Transition": "Transition(name='t', pre=(2, 1), post=(1, 2), delta=(-1, 1))",
    "PetriNet": NET,
    "HalfSpace": HALFSPACE,
    "Instance": f"Instance(net={NET}, m_init=(3, 1), m_final=(0, 4), mode=<Mode.REACH: 'reach'>)",
    "SeparatorVerdict": SEPARATOR,
    "ExplorationReport": (
        "ExplorationReport(outcome=<ExplorationOutcome.INCONCLUSIVE: 'inconclusive'>, "
        "states_visited=5, steps_to_target=None)"
    ),
    "TrivialFlags": ORIENTED,
    "TransitionCheck": (
        f"TransitionCheck(transition='t', inductive=False, flags={NONE_OF_THEM}, "
        "witness=(0, 0), witness_value=8, sums_explored=1)"
    ),
    "NetCheck": NET_CHECK,
    "Atom": ATOM,
    "Conj": f"Conj(parts=({ATOM}, Atom(coeffs=(0, 1), rhs=0)))",
    "Disj": f"Disj(parts=({ATOM}, Conj(parts=())))",
    "LoopBudget": "LoopBudget(max_iterations=10, max_seconds=2.5, max_bound=3)",
    "SolverConfig": "SolverConfig(command=('z3', '-in'), timeout_ms=5000)",
    "SynthesisStats": STATS,
    "SynthesisResult": (
        f"SynthesisResult(outcome=<Outcome.FOUND: 'found'>, halfspace={HALFSPACE}, "
        f"separator={SEPARATOR}, inductivity={NET_CHECK}, stats={STATS})"
    ),
    "CertificateReport": (
        f"CertificateReport(separator={SEPARATOR}, inductivity={NET_CHECK}, "
        "oracle=(('t', True), ('u', True), ('v', True)))"
    ),
    "ConstantsReport": (
        "ConstantsReport(k=(3, 2), window=(9, 11), per_transition=("
        "('t', IntervalSet(spans=((9, 9),))), ('u', IntervalSet(spans=((9, 11),))), "
        "('v', IntervalSet(spans=((9, 11),)))), combined=IntervalSet(spans=((9, 9),)), "
        "chosen=9, cover_ok=True)"
    ),
    "IntervalSet": "IntervalSet(spans=((9, 9),))",
}

# The JSON document of each report of records(), as `--json` writes it
# (tests/cli_json.golden shows the same halfspace, separator, transitions
# and oracle on the running example).
HALFSPACE_DOC = {"k": [3, 2], "c": 9}
SEPARATOR_DOC = {"init_inside": True, "final_outside": True, "cover_nonpositive": None}
NET_CHECK_DOC = [
    {"transition": "t", "inductive": True, "oriented": False, "monotone": False,
     "antitone": False, "witness": None, "witness_value": None, "sums_explored": 1},
    {"transition": "u", "inductive": True, "oriented": True, "monotone": False,
     "antitone": False, "witness": None, "witness_value": None, "sums_explored": 0},
    {"transition": "v", "inductive": True, "oriented": True, "monotone": False,
     "antitone": False, "witness": None, "witness_value": None, "sums_explored": 0},
]
STATS_DOC = {"iterations": 3, "solver_queries": 4, "wall_seconds": 0.5, "fast_path": False,
             "examined": [[1, 0], [3, 2]]}
DOCS = {
    "HalfSpace": HALFSPACE_DOC,
    "SeparatorVerdict": SEPARATOR_DOC,
    "TransitionCheck": {
        "transition": "t", "inductive": False, "oriented": False, "monotone": False,
        "antitone": False, "witness": [0, 0], "witness_value": 8, "sums_explored": 1,
    },
    "NetCheck": NET_CHECK_DOC,
    "SynthesisStats": STATS_DOC,
    "SynthesisResult": {
        "outcome": "found", "halfspace": HALFSPACE_DOC, "separator": SEPARATOR_DOC,
        "transitions": NET_CHECK_DOC, "stats": STATS_DOC,
    },
    "CertificateReport": {
        "separator": SEPARATOR_DOC, "transitions": NET_CHECK_DOC,
        "oracle": [["t", True], ["u", True], ["v", True]], "ok": True,
    },
    "ConstantsReport": {
        "k": [3, 2], "window": [9, 11],
        "per_transition": {"t": [[9, 9]], "u": [[9, 11]], "v": [[9, 11]]},
        "combined": [[9, 9]], "chosen": 9, "cover_ok": True,
    },
    "IntervalSet": [[9, 9]],
}


def test_every_record_class_has_a_value():
    assert len(records()) == len(REPRS) == 19


@pytest.mark.parametrize("name", sorted(REPRS))
def test_record_repr(name):
    assert repr(records()[name]) == REPRS[name]


def test_record_repr_reads_no_fields_per_call(monkeypatch):
    # @record reads the repr field names once, when the class is built
    built = records()

    def fields_(*args):
        raise AssertionError("dataclasses.fields read by repr")

    monkeypatch.setattr(petrisep.jsondoc, "fields", fields_)
    for name, value in built.items():
        assert repr(value) == REPRS[name]


@pytest.mark.parametrize("name", sorted(REPRS))
def test_record_equality_and_hash(name):
    built = records()
    x, copy = built[name], records()[name]
    values = tuple(getattr(x, f.name) for f in fields(x))
    assert x is not copy and x == copy and not x != copy
    assert hash(x) == hash(copy) == hash(values)
    assert x != values and values != x
    assert x.__eq__(values) is NotImplemented
    for other_name, other in built.items():
        if other_name != name:
            assert x != other and other != x


@pytest.mark.parametrize("name", sorted(REPRS))
def test_record_is_frozen(name):
    x = records()[name]
    f = fields(x)[0]
    with pytest.raises(FrozenInstanceError):
        setattr(x, f.name, getattr(x, f.name))
    with pytest.raises(FrozenInstanceError):
        delattr(x, f.name)


@pytest.mark.parametrize("name", sorted(REPRS))
def test_record_copies_and_pickles_to_a_frozen_equal(name):
    x = records()[name]
    f = fields(x)[0]
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and type(y) is type(x)
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field {f.name!r}"):
            setattr(y, f.name, getattr(x, f.name))
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field {f.name!r}"):
            delattr(y, f.name)


@pytest.mark.parametrize("name", sorted(REPRS))
def test_record_constructor_is_the_dataclass_one(name):
    """The parameters are the init fields in order, with their defaults and
    annotations, and every record can be built from them by keyword."""
    x = records()[name]
    init = [f for f in fields(x) if f.init]
    empty = inspect.Parameter.empty
    expected = inspect.Signature(
        [inspect.Parameter(f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                           default=empty if f.default is MISSING else f.default,
                           annotation=f.type)
         for f in init],
        return_annotation=None,
    )
    assert inspect.signature(type(x)) == expected
    assert type(x)(**{f.name: getattr(x, f.name) for f in init}) == x


def test_constructor_leaves_delta_to_post_init():
    assert list(inspect.signature(Transition).parameters) == ["name", "pre", "post"]
    assert inspect.signature(IntervalSet).parameters["spans"].default == ()
    assert IntervalSet() == IntervalSet(())
    t = records()["Transition"]
    assert replace(t, post=(0, 0)).delta == (-2, -1)


def test_record_refuses_fields_its_init_cannot_build():
    with pytest.raises(TypeError, match="default_factory"):
        @record
        class Factory(Record):
            """A list field built per instance."""

            xs: list = field(default_factory=list)

    with pytest.raises(TypeError, match="kw_only"):
        @record
        class KeywordOnly(Record):
            """A keyword-only field."""

            x: int = field(kw_only=True)

    with pytest.raises(TypeError, match="InitVar"):
        @record
        class Passed(Record):
            """A value passed to __post_init__ only."""

            x: InitVar[int]


def plain(v):
    """Reference for asdict: records become dicts of their fields, recursively."""
    if is_dataclass(v):
        return {f.name: plain(getattr(v, f.name)) for f in fields(v)}
    if isinstance(v, tuple):
        return tuple(plain(e) for e in v)
    return v


@pytest.mark.parametrize("name", sorted(REPRS))
def test_record_replace_and_asdict(name):
    x = records()[name]
    y = replace(x)
    assert y == x and y is not x
    assert asdict(x) == plain(x)


def test_replace_changes_one_field():
    hs = records()["HalfSpace"]
    assert replace(hs, c=8) == HalfSpace((3, 2), 8)
    check = records()["TransitionCheck"]
    assert replace(check, sums_explored=0) != check


@pytest.mark.parametrize("name", sorted(DOCS))
def test_report_json_round_trip(name):
    """Through JSON text and back, each report reads as its pinned document."""
    assert_document(document(records()[name]), DOCS[name])


def test_reports_are_the_json_documents():
    assert sorted(n for n, x in records().items() if isinstance(x, JsonDoc)) == sorted(DOCS)


def test_every_frozen_dataclass_shares_the_record_methods():
    """The records are frozen by Record's shared __setattr__ and __delattr__;
    a plain @dataclass(frozen=True) would compile its own copies again."""
    shared = []
    for info in pkgutil.iter_modules(petrisep.__path__):
        module = importlib.import_module(f"petrisep.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__ and is_dataclass(cls):
                assert not cls.__dataclass_params__.frozen, cls
                if issubclass(cls, Record):
                    shared.append(cls.__name__)
                    # dataclasses derives a missing docstring before @record
                    # compiles the __init__, so it would read "Name()"
                    assert not cls.__doc__.startswith(f"{cls.__name__}("), cls
                    for name in ("__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
                        assert getattr(cls, name) is getattr(Record, name), (cls, name)
    assert sorted(shared) == sorted(REPRS)
