"""Constraint formulas over k: local evaluation, SMT rendering, exclusion."""

import itertools
import random
from pathlib import Path

import pytest

from petrisep import Mode, constants_for_instance, nontrivial_net, random_instance
from petrisep.formula import (
    Atom,
    Conj,
    Disj,
    bound_constraint,
    evaluate,
    exclude_multiples,
    separation_condition,
    separator_formula,
    to_smt,
    trivial_separator_formula,
)

from conftest import eq, is_multiple_of, two_place_instance


def test_atom_evaluation():
    # one relation, coeffs . k >= rhs; other comparisons come tightened
    assert evaluate(Atom((2, -1), 3), (2, 1))
    assert not evaluate(Atom((2, -1), 4), (2, 1))  # 2 k0 - k1 > 3
    assert evaluate(eq((1, 0), 5), (5, 9))
    assert not evaluate(eq((1, 0), 5), (4, 9))
    assert evaluate(Atom((0, -1), 0), (5, -2))  # k1 <= 0
    assert evaluate(Atom((0, -1), 1), (5, -2))  # k1 < 0
    assert not evaluate(Atom((0, -1), 1), (5, 0))
    assert evaluate(Atom((0, 0), 0), (5, 9))
    assert not evaluate(Atom((0, 0), 1), (5, 9))
    # at the rational point k = (3, 1) / 2: 2 * 3/2 - 1/2 = 5/2
    assert evaluate(Atom((2, -1), 3), (3, 1))
    assert not evaluate(Atom((2, -1), 3), (3, 1), 2)
    assert evaluate(Atom((2, -1), 2), (3, 1), 2)


def test_connectives():
    top = Conj(())
    bottom = Disj(())
    assert evaluate(top, (0,))
    assert not evaluate(bottom, (0,))
    f = Disj((Atom((1,), 5), Conj((Atom((-1,), 1), Atom((1,), -3)))))  # k >= 5 or -4 < k < 0
    assert evaluate(f, (7,))
    assert evaluate(f, (-3,))
    assert not evaluate(f, (-4,))


def test_smt_rendering():
    assert to_smt(Atom((3, -2), -4), ["k0", "k1"]) == (
        "(>= (+ (* 3 k0) (* (- 2) k1)) (- 4))"
    )
    assert to_smt(Atom((0, -1), -1), ["k0", "k1"]) == "(>= (- k1) (- 1))"
    assert to_smt(Atom((0, 1), 2), ["k0", "k1"]) == "(>= k1 2)"
    assert to_smt(Atom((1, -1), 0), ["k0", "k1"]) == "(>= (+ k0 (- k1)) 0)"
    assert to_smt(Atom((0,), 0), ["k0"]) == "(>= 0 0)"
    assert to_smt(eq((1, 0), 0), ["k0", "k1"]) == "(and (>= k0 0) (>= (- k0) 0))"
    assert to_smt(Conj(()), []) == "true"
    assert to_smt(Disj(()), []) == "false"
    assert to_smt(Disj((Atom((-1,), 0),)), ["x"]) == "(or (>= (- x) 0))"


def test_separation_condition(two_place):
    f = separation_condition(two_place)
    assert evaluate(f, (3, 2))  # 11 > 8
    assert not evaluate(f, (1, 1))  # 4 > 4 fails


def test_bound_constraint():
    f = bound_constraint(2, 3)
    assert evaluate(f, (3, -3))
    assert not evaluate(f, (4, 0))
    assert not evaluate(f, (0, -4))
    with pytest.raises(ValueError):
        bound_constraint(2, 0)


def box(n: int, radius: int):
    return itertools.product(range(-radius, radius + 1), repeat=n)


def test_is_multiple_of_matches_definition():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 3)
        k_hat = tuple(rng.randint(-3, 3) for _ in range(n))
        if all(x == 0 for x in k_hat):
            continue
        for k in box(n, 7):
            expected = any(
                all(x == a * y for x, y in zip(k, k_hat)) for a in range(1, 9)
            )
            assert is_multiple_of(k, k_hat) == expected, (k, k_hat)


def test_exclude_multiples_cuts_exactly_the_multiples():
    rng = random.Random(6)
    from math import gcd

    for _ in range(120):
        n = rng.randint(1, 3)
        k_hat = tuple(rng.randint(-3, 3) for _ in range(n))
        if all(x == 0 for x in k_hat) or gcd(*k_hat) != 1:
            continue
        f = exclude_multiples(k_hat)
        for k in box(n, 7):
            assert evaluate(f, k) == (not is_multiple_of(k, k_hat)), (k, k_hat)


def test_exclude_multiples_is_one_flat_disjunction():
    # NNF: a cross product above or below zero, or the pivot of the other sign
    for k_hat in [(1,), (-1,), (3, 2), (0, -2, 3), (2, 0, -1, 5)]:
        n = len(k_hat)
        f = exclude_multiples(k_hat)
        assert type(f) is Disj and len(f.parts) == 2 * (n - 1) + 1, k_hat
        assert all(type(a) is Atom for a in f.parts), k_hat
        assert "not" not in to_smt(f, [f"k{i}" for i in range(n)]), k_hat
    assert to_smt(exclude_multiples((3, 2)), ["a", "b"]) == (
        "(or (>= (+ (* (- 2) a) (* 3 b)) 1) (>= (+ (* 2 a) (* (- 3) b)) 1) (>= (- a) 0))"
    )


def test_exclude_multiples_rejects_bad_pivots():
    with pytest.raises(ValueError):
        exclude_multiples((0, 0))
    with pytest.raises(ValueError):
        exclude_multiples((2, 4))


def test_trivial_formula_implies_full_formula():
    for seed in range(40):
        inst = random_instance(
            seed, places=2, transitions=2, max_flow=3, max_marking=3
        )
        full = separator_formula(inst)
        triv = trivial_separator_formula(inst)
        for k in box(2, 4):
            if evaluate(triv, k):
                assert evaluate(full, k), (seed, k)


def test_separator_formula_is_necessary_for_workable_vectors():
    """Any k that admits a threshold must satisfy the synthesis formula.

    The converse does not hold (the formula over-approximates; the exact
    constant generator prunes the rest), so only necessity is asserted.
    """
    cases = [(seed, 2, Mode.REACH, 4) for seed in range(60)]
    cases += [
        (seed, 3, mode, 3) for seed in range(40) for mode in (Mode.REACH, Mode.COVER)
    ]
    workable = 0
    for seed, places, mode, radius in cases:
        inst = random_instance(
            seed, places=places, transitions=2, max_flow=3, max_marking=3, mode=mode
        )
        full = separator_formula(inst)
        for k in box(places, radius):
            if all(x == 0 for x in k):
                continue
            report = constants_for_instance(inst, k)
            if report.chosen is not None:
                workable += 1
                assert evaluate(full, k), (seed, mode, k, report.chosen)
    assert workable > 1000  # the sweep is not vacuous


def test_separator_formula_cover_mode_requires_nonpositive_k():
    inst = two_place_instance(Mode.COVER)
    f = separator_formula(inst)
    for k in box(2, 4):
        if any(x > 0 for x in k):
            assert not evaluate(f, k), k


def test_separator_formula_smt_text_is_pinned():
    """SMT-LIB2 text of the synthesis formula, byte for byte."""
    cases = {
        "running reach": two_place_instance(),
        "running cover": two_place_instance(Mode.COVER),
        "nontrivial 4": nontrivial_net(4),
    }
    golden = Path(__file__).with_name("separator_formula.golden").read_text()
    expected = dict(line.split(": ", 1) for line in golden.splitlines())
    assert set(expected) == set(cases)
    for label, inst in cases.items():
        names = [f"k{i}" for i in range(inst.net.n)]
        assert to_smt(separator_formula(inst), names) == expected[label], label


def _options_reference(inst, k, spans: bool = True) -> bool:
    """separator_formula's meaning in plain arithmetic, with no Atom built.

    spans=False drops the sign-pure span option: trivial_separator_formula.
    """

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    if dot(k, inst.m_init) <= dot(k, inst.m_final):
        return False  # separation
    nonneg = all(x >= 0 for x in k)
    nonpos = all(x <= 0 for x in k)
    if inst.mode is Mode.COVER and not nonpos:
        return False
    for t in inst.net.transitions:
        drop = -dot(k, t.delta)
        oriented = drop <= 0
        antitone = nonpos and dot(k, t.pre) < dot(k, inst.m_init)
        monotone = nonneg and dot(k, t.post) > dot(k, inst.m_final)
        wide_enough = spans and all(x == 0 or abs(x) >= drop for x in k)
        if not (oriented or antitone or monotone or ((nonneg or nonpos) and wide_enough)):
            return False
    return True


def test_separator_formula_means_the_documented_options():
    accepted = rejected = 0
    for seed in range(40):
        for mode in (Mode.REACH, Mode.COVER):
            places = 1 + seed % 4
            inst = random_instance(seed, places=places, mode=mode)
            f = separator_formula(inst)
            triv = trivial_separator_formula(inst)
            for k in box(places, 2 if places == 4 else 3):
                expected = _options_reference(inst, k)
                assert evaluate(f, k) == expected, (seed, mode, k)
                cheap = _options_reference(inst, k, spans=False)
                assert evaluate(triv, k) == cheap, (seed, mode, k)
                accepted += expected
                rejected += not expected
    assert accepted > 500 and rejected > 500  # both sides are exercised
