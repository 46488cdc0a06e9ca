"""Shared fixtures: the running example, a scripted solver, a capture-proof
printer, reference predicates the tests judge the package by, and the check
that pins a report's JSON document."""

import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from petrisep import Instance, IntervalSet, Mode, PetriNet, Transition
from petrisep.formula import Atom, Conj


def two_place_instance(mode: Mode = Mode.REACH) -> Instance:
    """Two places, three transitions; (0, 4) is unreachable from (3, 1)."""
    t = Transition("t", (2, 1), (1, 2))
    u = Transition("u", (1, 2), (0, 4))
    v = Transition("v", (1, 0), (2, 1))
    return Instance(PetriNet(("p1", "p2"), (t, u, v)), (3, 1), (0, 4), mode)


def canonical(spans) -> IntervalSet:
    """Reference normalizer: sort spans, drop empty ones, fuse overlapping
    and adjacent ones, so equal sets of integers get equal spans."""
    merged = []
    for lo, hi in sorted(spans):
        if lo > hi:
            continue
        if merged and lo <= merged[-1][1] + 1:
            plo, phi = merged[-1]
            merged[-1] = (plo, max(phi, hi))
        else:
            merged.append((lo, hi))
    return IntervalSet(tuple(merged))


def is_multiple_of(k, k_hat) -> bool:
    """Reference predicate: k == a * k_hat for some integer a >= 1."""
    pivs = [(x, y) for x, y in zip(k, k_hat) if y != 0]
    if not pivs or pivs[0][0] % pivs[0][1] != 0:
        return False
    a = pivs[0][0] // pivs[0][1]
    return a >= 1 and all(x == a * y for x, y in zip(k, k_hat))


def backward_coverable(inst: Instance, max_steps: int = 20_000):
    """Reference coverability: can some marking >= m_final be reached from
    m_init? True or False, or None once max_steps pre-images were taken.

    Backward search over minimal bases (Abdulla, Cerans, Jonsson and Tsay,
    LICS 1996): the markings from which firing t covers m are those >=
    max(pre, m - delta). The target is coverable iff m_init lies above some
    basis element; each new element is kept only if no element lies below it.
    """

    def above(a, b):
        return all(x >= y for x, y in zip(a, b))

    basis = [inst.m_final]
    frontier = [inst.m_final]
    steps = 0
    while frontier:
        fresh = []
        for m in frontier:
            if above(inst.m_init, m):
                return True
            for t in inst.net.transitions:
                steps += 1
                if steps > max_steps:
                    return None
                p = tuple(max(a, x - d) for a, x, d in zip(t.pre, m, t.delta))
                if not any(above(p, b) for b in basis):
                    basis = [b for b in basis if not above(b, p)] + [p]
                    fresh.append(p)
        frontier = fresh
    return False


def eq(coeffs, b) -> Conj:
    """coeffs . k = b, as the two atoms coeffs . k >= b and -coeffs . k >= -b."""
    return Conj((Atom(coeffs, b), Atom(tuple(-c for c in coeffs), -b)))


def document(report):
    """report.to_json() written as JSON text and read back, as json.load gives it."""
    return json.loads(json.dumps(report.to_json()))


def assert_document(doc, expected) -> None:
    """doc is expected, with its keys in the same order and true told from 1,
    so a renamed key or a dropped key/FLAT/INLINE marker fails."""
    assert doc == expected
    assert json.dumps(doc) == json.dumps(expected)


def fake_smt_command(log, *args) -> tuple[str, ...]:
    """Command line of tests/fake_smt.py, logging to the file log."""
    fake = Path(__file__).with_name("fake_smt.py")
    return (sys.executable, str(fake), "--log", str(log), *args)


def ahead_clock(monkeypatch) -> None:
    """Set the built-in backend's clock a second ahead of the session's, so
    a query with a shorter timeout has run out of time at the search's first
    clock reading, however fast the machine."""
    from petrisep import exact

    monkeypatch.setattr(exact, "time", SimpleNamespace(monotonic=lambda: time.monotonic() + 1.0))


@pytest.fixture
def two_place() -> Instance:
    return two_place_instance()


@pytest.fixture
def int_digit_limit():
    """Python's default limit of 4300 digits per integer string, for one test."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no integer digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.fixture
def announce(capsys):
    """Print a line that survives pytest's capture."""

    def emit(line: str) -> None:
        with capsys.disabled():
            print(line, flush=True)

    return emit
