"""Exact threshold generation compared against a subset-sum reference."""

import random
import time
from functools import lru_cache

import pytest

from petrisep import (
    HalfSpace,
    Instance,
    IntervalSet,
    Mode,
    PetriNet,
    Transition,
    check_transition,
    choose_constant,
    constants_for_instance,
    dot,
    extended_euclid_vector,
    frobenius_limit,
    gcd_vector,
    generate_constants,
    normalize_primitive,
    separator_window,
    verify_separator,
)
from petrisep.constants import _gap_ends

from conftest import two_place_instance


def test_gcd_vector():
    assert gcd_vector((6, -4)) == 2
    assert gcd_vector((0, 0)) == 0
    assert gcd_vector(()) == 0
    assert gcd_vector((7,)) == 7


def test_normalize_primitive():
    assert normalize_primitive((6, -4)) == (3, -2)
    assert normalize_primitive((0, 0)) == (0, 0)
    assert normalize_primitive((-5,)) == (-1,)


def test_extended_euclid_vector_postcondition():
    rng = random.Random(41)
    for _ in range(500):
        n = rng.randint(1, 4)
        w = tuple(rng.randint(-30, 30) for _ in range(n))
        if all(x == 0 for x in w):
            continue
        g, a = extended_euclid_vector(w)
        assert g == gcd_vector(w) > 0
        assert dot(w, a) == g
    with pytest.raises(ValueError):
        extended_euclid_vector(())


def test_frobenius_limit():
    assert frobenius_limit((2, 3)) == 6
    assert frobenius_limit((-4, -9)) == 36
    assert frobenius_limit((5, 0, 3)) == 15
    with pytest.raises(ValueError):
        frobenius_limit((0, 0))


def reference_inductive_thresholds(
    k: tuple, t: Transition, lo: int, hi: int
) -> set:
    """Thresholds c in [lo, hi] with no witness, via memoized subset sums.

    A witness exists iff some non-negative combination of the entries of
    k equals a value v with c <= v + k.pre < c - k.delta.
    """
    kd = dot(k, t.delta)
    base = dot(k, t.pre)
    if kd >= 0:
        return set(range(lo, hi + 1))
    coins = tuple(sorted({abs(x) for x in k if x != 0}))
    negative = any(x < 0 for x in k)

    @lru_cache(maxsize=None)
    def attainable(v: int) -> bool:
        if v == 0:
            return True
        if v < 0:
            return False
        return any(c <= v and attainable(v - c) for c in coins)

    def hit(v: int) -> bool:
        return attainable(-v) if negative else attainable(v)

    out = set()
    for c in range(lo, hi + 1):
        if not any(hit(v) for v in range(c - base, c - base - kd)):
            out.add(c)
    return out


def random_unmixed(rng: random.Random, n: int) -> tuple:
    sign = rng.choice((1, -1))
    return tuple(sign * rng.randint(0, 6) for _ in range(n))


def test_generate_constants_matches_reference_on_random_cases():
    rng = random.Random(4242)
    trials = 0
    while trials < 400:
        n = rng.randint(1, 3)
        k = random_unmixed(rng, n)
        if all(x == 0 for x in k):
            continue
        t = Transition(
            "t",
            tuple(rng.randint(0, 4) for _ in range(n)),
            tuple(rng.randint(0, 4) for _ in range(n)),
        )
        lo = rng.randint(-40, 30)
        hi = lo + rng.randint(0, 50)
        got = set(generate_constants(k, t, window=(lo, hi)))
        assert got == reference_inductive_thresholds(k, t, lo, hi), (k, t, lo, hi)
        trials += 1


def reference_gap_ends(coins: list, width: int, first: int, last: int) -> list:
    """_gap_ends from a list coin table and prefix counts, without recursion."""
    reach = [False] * (last + 1)
    reach[0] = True
    for s in range(last + 1):
        if reach[s]:
            for coin in coins:
                if s + coin <= last:
                    reach[s + coin] = True
    below = [0]  # below[j]: attainable sums < j
    for r in reach:
        below.append(below[-1] + r)
    return [
        j
        for j in range(first, last + 1)
        if below[j + 1] == below[max(j - width + 1, 0)]
    ]


def test_gap_ends_matches_list_table():
    rng = random.Random(707)
    seen = {"wide": 0, "offset": 0, "single": 0, "gaps": 0}
    for _ in range(2_000):
        coins = sorted({rng.randint(1, rng.choice((3, 12, 60, 300)))
                        for _ in range(rng.randint(1, 4))})
        last = rng.randint(0, rng.choice((10, 200, 1_000)))
        width = rng.choice((1, 2, 3, 7, 64, 100, rng.randint(1, 300)))
        first = rng.choice((0, rng.randint(0, last), last))
        got = _gap_ends(coins, width, first, last)
        assert got == reference_gap_ends(coins, width, first, last), (
            coins, width, first, last)
        seen["wide"] += width > last
        seen["offset"] += 0 < first < last
        seen["single"] += first == last
        seen["gaps"] += len(got) > 1
    assert min(seen.values()) > 100, seen


def test_gap_ends_cost_grows_with_the_gaps_not_their_square():
    # 198,765 gaps in 400,001 offsets: a read that rewrites the whole bit
    # set for each gap it reports (a low-bit loop) takes seconds here.
    start = time.perf_counter()
    ends = _gap_ends((631, 632), 1, 0, 400_000)
    assert time.perf_counter() - start < 2.0
    assert len(ends) == 198_765
    assert ends[:3] == [1, 2, 3]
    assert ends[-1] == 631 * 632 - 631 - 632  # the Frobenius number


def test_generate_constants_cost_does_not_grow_with_the_flows():
    # A drop wider than the smallest |k(i)| leaves only the trivial ray; a
    # bit set over the drop would need about 10**18 bits here.
    w = 10**18
    t = Transition("t", (w, 0), (0, 2))
    inst = Instance(PetriNet(("p", "q"), (t,)), (0, 2), (0, 0), Mode.REACH)
    report = constants_for_instance(inst, (1, 3))
    assert report.window == (1, 6)
    assert report.combined == IntervalSet.between(1, 6)
    assert report.chosen == 6
    assert check_transition((1, 3), 6, t).inductive
    assert not check_transition((1, 3), 7, t).inductive
    assert generate_constants((1, 3), t) == IntervalSet.at_most(6)
    up = Transition("u", (0, 0), (w, 0))
    assert generate_constants((-1, -3), up) == IntervalSet.at_least(1)
    assert generate_constants((-1, -3), up, window=(-w, w)) == IntervalSet.between(1, w)


def test_generate_constants_oriented_keeps_everything():
    t = Transition("t", (1, 0), (1, 2))
    s = generate_constants((3, 2), t, window=(-5, 5))
    assert s == IntervalSet.between(-5, 5)


def test_generate_constants_mixed_decreasing_is_empty():
    t = Transition("t", (1, 0), (0, 1))  # delta (-1, 1), so k.delta = -4
    assert generate_constants((1, -3), t, window=(-50, 50)).is_empty


def test_generate_constants_unbounded_rays_without_window():
    t = Transition("t", (2, 1), (1, 2))  # delta (-1, 1)
    s = generate_constants((3, 2), t, window=None)
    assert not s.is_bounded()
    assert 7 in s  # k.post = 7: monotone ray
    assert 9 in s  # non-trivial: window [9, 10) misses 3a + 2b + 8
    assert 10 not in s  # 3*0 + 2*1 + 8 = 10
    neg = generate_constants((-3, -2), t, window=None)
    assert not neg.is_bounded()
    assert -7 in neg  # k.pre = -8 < c: antitone ray


def test_running_example_constants_report(two_place):
    report = constants_for_instance(two_place, (3, 2))
    assert report.window == (9, 11)  # (k.m_final, k.m_init] = (8, 11]
    assert report.chosen == 9
    assert set(report.combined) == {9}
    assert report.cover_ok
    by_name = dict(report.per_transition)
    assert set(by_name) == {"t", "u", "v"}
    hs = HalfSpace((3, 2), report.chosen)
    assert verify_separator(two_place, hs).ok
    for t in two_place.net.transitions:
        assert check_transition((3, 2), report.chosen, t).inductive


def test_constants_report_cover_mode_rejects_positive_k():
    inst = two_place_instance(Mode.COVER)
    report = constants_for_instance(inst, (3, 2))
    assert not report.cover_ok
    assert report.chosen is None


def test_constants_report_rejects_bad_vectors(two_place):
    with pytest.raises(ValueError):
        constants_for_instance(two_place, (0, 0))
    with pytest.raises(ValueError):
        constants_for_instance(two_place, (1, 2, 3))


def test_separator_window(two_place):
    assert separator_window(two_place, (3, 2)) == (9, 11)
    assert separator_window(two_place, (-1, -1)) == (-3, -4)  # empty window


def test_choose_constant():
    assert choose_constant(IntervalSet.empty()) is None
    assert choose_constant(IntervalSet.between(2, 7)) == 7
    with pytest.raises(ValueError):
        choose_constant(IntervalSet.at_least(3))


def test_every_generated_constant_is_inductive_and_no_neighbor_is_missed():
    """Spot check the combined report against the standalone checker."""
    inst = two_place_instance()
    for k in ((3, 2), (8, 5), (53, 52), (-2, -3)):
        report = constants_for_instance(inst, k)
        lo, hi = report.window
        for c in range(lo, hi + 1):
            expected = all(
                check_transition(k, c, t).inductive for t in inst.net.transitions
            )
            assert (c in report.combined) == expected, (k, c)
