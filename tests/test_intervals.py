"""Integer interval sets compared against plain Python sets."""

import random

import pytest

from petrisep import IntervalSet

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
    return IntervalSet(tuple(spans)), concrete


def test_constructors():
    assert IntervalSet.empty().is_empty
    assert not IntervalSet.all().is_empty
    assert members(IntervalSet.at_least(5)) == {v for v in PROBE if v >= 5}
    assert members(IntervalSet.at_most(-3)) == {v for v in PROBE if v <= -3}
    assert members(IntervalSet.between(2, 6)) == {2, 3, 4, 5, 6}
    assert members(IntervalSet.of(7, 1, 7)) == {1, 7}


def test_normalization_merges_adjacent_and_overlapping():
    s = IntervalSet(((1, 3), (4, 6), (10, 12), (11, 20)))
    assert s.spans == ((1, 6), (10, 20))
    assert IntervalSet(((5, 2),)).is_empty
    assert IntervalSet(((None, 4), (5, None))).spans == ((None, None),)


def test_canonical_representation_gives_structural_equality():
    a = IntervalSet(((1, 2), (3, 5)))
    b = IntervalSet(((1, 5),))
    assert a == b


def test_algebra_matches_set_algebra():
    rng = random.Random(99)
    for _ in range(300):
        a, sa = random_set(rng)
        b, sb = random_set(rng)
        assert members(a) == sa
        assert members(a.union(b)) == sa | sb
        assert members(a.intersect(b)) == sa & sb
        assert members(a.clip(-5, 5)) == {v for v in sa if -5 <= v <= 5}


def test_iteration_and_count():
    s = IntervalSet(((1, 3), (7, 7)))
    assert list(s) == [1, 2, 3, 7]
    assert s.count() == 4
    assert s.min_value() == 1 and s.max_value() == 7


def test_unbounded_sets_refuse_enumeration():
    s = IntervalSet.at_least(0)
    assert not s.is_bounded()
    assert s.min_value() == 0 and s.max_value() is None
    with pytest.raises(ValueError):
        list(s)
    with pytest.raises(ValueError):
        s.count()


def test_intersection_of_rays_is_bounded():
    s = IntervalSet.at_least(3).intersect(IntervalSet.at_most(8))
    assert s == IntervalSet.between(3, 8)
    assert s.is_bounded()


def test_text_rendering():
    assert IntervalSet.empty().to_text() == "{}"
    assert IntervalSet.of(4).to_text() == "{4}"
    assert IntervalSet.between(1, 3).to_text() == "[1,3]"
    assert "(-inf" in IntervalSet.at_most(2).to_text()
    assert "+inf)" in IntervalSet.at_least(2).to_text()


def test_json_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        s, _ = random_set(rng)
        s = s.union(IntervalSet.at_least(35)) if rng.random() < 0.3 else s
        assert IntervalSet.from_json(s.to_json()) == s


def random_canonical(rng: random.Random) -> IntervalSet:
    """A small set over [-12, 12]: rays, singletons and touching spans."""
    spans = []
    for _ in range(rng.randint(0, 5)):
        lo = rng.randint(-12, 12)
        shape = rng.random()
        if shape < 0.15:
            spans.append((None, lo))
        elif shape < 0.3:
            spans.append((lo, None))
        elif shape < 0.5:
            spans.append((lo, lo))
        else:
            spans.append((lo, lo + rng.randint(0, 6)))
        if rng.random() < 0.3 and spans[-1][1] is not None:
            end = spans[-1][1]  # an adjacent span, fused by the constructor
            spans.append((end + 1, end + 1 + rng.randint(0, 3)))
    return IntervalSet(tuple(spans))


def test_merge_walk_intersection_is_exact_and_canonical():
    rng = random.Random(2024)
    probe = range(-20, 21)
    for _ in range(2000):
        a, b = random_canonical(rng), random_canonical(rng)
        r = a.intersect(b)
        assert IntervalSet(r.spans) == r, (a, b, r)
        for v in probe:
            assert (v in r) == (v in a and v in b), (a, b, v)
        assert r == b.intersect(a)
        lo = rng.randint(-15, 15)
        hi = lo + rng.randint(-2, 12)  # sometimes an empty window
        c = a.clip(lo, hi)
        assert c == a.intersect(IntervalSet.between(lo, hi))
        assert IntervalSet(c.spans) == c
        assert {v for v in probe if v in c} == {v for v in probe if v in a and lo <= v <= hi}
