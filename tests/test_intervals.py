"""Integer interval sets compared against plain Python sets."""

import random

from petrisep import IntervalSet

from conftest import assert_document, canonical, document

# Ground truth window for the randomized comparisons. Sets built from
# spans inside [-30, 30] are compared pointwise on a wider range so
# off-by-one mistakes at span edges cannot hide.
PROBE = range(-40, 41)


def members(s: IntervalSet) -> set:
    return {v for v in PROBE if v in s}


def random_set(rng: random.Random) -> tuple[IntervalSet, set]:
    spans = []
    concrete = set()
    for _ in range(rng.randint(0, 4)):
        lo = rng.randint(-30, 25)
        hi = lo + rng.randint(-2, 8)  # sometimes empty on purpose
        spans.append((lo, hi))
        concrete.update(range(lo, hi + 1))
    return canonical(spans), concrete


def test_constructors():
    assert IntervalSet().is_empty
    assert not IntervalSet.between(-40, 40).is_empty
    assert members(IntervalSet.between(-40, 40)) == set(PROBE)
    assert members(IntervalSet(((5, 99),))) == {v for v in PROBE if v >= 5}
    assert members(IntervalSet(((-99, -3),))) == {v for v in PROBE if v <= -3}
    assert members(IntervalSet.between(2, 6)) == {2, 3, 4, 5, 6}
    assert IntervalSet.between(6, 2).is_empty


def test_canonical_representation_gives_structural_equality():
    # The same members reached two ways come out with the same spans.
    a = IntervalSet(((1, 2), (4, 9))).intersect(IntervalSet.between(2, 5))
    assert a == IntervalSet(((2, 2), (4, 5)))
    assert IntervalSet.between(-99, 99).intersect(IntervalSet.between(1, 5)) == IntervalSet.between(1, 5)


def test_algebra_matches_set_algebra():
    rng = random.Random(99)
    for _ in range(300):
        a, sa = random_set(rng)
        b, sb = random_set(rng)
        assert members(a) == sa
        assert members(a.intersect(b)) == sa & sb
        window = a.intersect(IntervalSet.between(-5, 5))
        assert members(window) == {v for v in sa if -5 <= v <= 5}


def test_max_value():
    assert IntervalSet().max_value() is None
    assert IntervalSet(((1, 3), (7, 7))).max_value() == 7
    assert IntervalSet(((0, 99),)).max_value() == 99


def test_text_rendering():
    assert IntervalSet().to_text() == "{}"
    assert IntervalSet(((4, 4),)).to_text() == "{4}"
    assert IntervalSet.between(1, 3).to_text() == "[1,3]"
    assert IntervalSet(((-9, 2),)).to_text() == "[-9,2]"
    assert IntervalSet(((2, 99),)).to_text() == "[2,99]"
    assert IntervalSet(((-30, -30), (-26, -25))).to_text() == "{-30} [-26,-25]"


def test_json_round_trip():
    # a set is the bare list of its spans
    assert_document(document(IntervalSet()), [])
    assert_document(document(IntervalSet.between(-5, 5)), [[-5, 5]])
    assert_document(
        document(IntervalSet(((-99, -3), (0, 0), (2, 5), (35, 99)))),
        [[-99, -3], [0, 0], [2, 5], [35, 99]],
    )


def random_canonical(rng: random.Random) -> IntervalSet:
    """A small set over [-12, 12]: spans past the probe's edges, singletons
    and touching spans."""
    spans = []
    for _ in range(rng.randint(0, 5)):
        lo = rng.randint(-12, 12)
        shape = rng.random()
        if shape < 0.15:
            spans.append((-30, lo))
        elif shape < 0.3:
            spans.append((lo, 30))
        elif shape < 0.5:
            spans.append((lo, lo))
        else:
            spans.append((lo, lo + rng.randint(0, 6)))
        if rng.random() < 0.3:
            end = spans[-1][1]  # an adjacent span, fused by the reference
            spans.append((end + 1, end + 1 + rng.randint(0, 3)))
    return canonical(spans)


def test_merge_walk_intersection_is_exact_and_canonical():
    rng = random.Random(2024)
    probe = range(-20, 21)
    for _ in range(2000):
        a, b = random_canonical(rng), random_canonical(rng)
        r = a.intersect(b)
        assert canonical(r.spans) == r, (a, b, r)
        for v in probe:
            assert (v in r) == (v in a and v in b), (a, b, v)
        assert r == b.intersect(a)
        lo = rng.randint(-15, 15)
        hi = lo + rng.randint(-2, 12)  # sometimes an empty window
        c = a.intersect(IntervalSet.between(lo, hi))
        assert canonical(c.spans) == c
        assert {v for v in probe if v in c} == {v for v in probe if v in a and lo <= v <= hi}
