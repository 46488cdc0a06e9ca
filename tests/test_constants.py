"""Exact threshold generation compared against a subset-sum reference."""

import math
import random
import time
import tracemalloc
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
    constants_for_instance,
    dot,
    extended_euclid_vector,
    frobenius_limit,
    generate_constants,
    normalize_primitive,
    random_instance,
    separator_window,
    verify_separator,
)
from petrisep.constants import _gap_runs

from conftest import canonical, two_place_instance


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
        assert g == math.gcd(*w) > 0
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
        got = generate_constants(k, t, window=(lo, hi))
        assert canonical(got.spans) == got.intersect(IntervalSet.between(lo, hi)) == got
        members = {c for c in range(lo, hi + 1) if c in got}
        assert members == reference_inductive_thresholds(k, t, lo, hi), (k, t, lo, hi)
        trials += 1


def reference_gap_ends(coins: list, width: int, first: int, last: int) -> list:
    """Gap offsets from a list coin table and prefix counts, without recursion."""
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


def expand_runs(runs: list) -> list:
    return [j for a, b in runs for j in range(a, b + 1)]


def assert_maximal(runs: list, first: int, last: int) -> None:
    assert all(first <= a <= b <= last for a, b in runs), (runs, first, last)
    for prev, nxt in zip(runs, runs[1:]):
        assert nxt[0] > prev[1] + 1, (prev, nxt)


def test_gap_runs_match_list_table():
    rng = random.Random(707)
    seen = {"wide": 0, "offset": 0, "single": 0, "gaps": 0, "runs": 0, "to_last": 0}
    for _ in range(2_000):
        coins = sorted({rng.randint(1, rng.choice((3, 12, 60, 300)))
                        for _ in range(rng.randint(1, 4))})
        last = rng.randint(0, rng.choice((10, 200, 1_000)))
        width = rng.choice((1, 2, 3, 7, 64, 100, rng.randint(1, 300)))
        first = rng.choice((0, rng.randint(0, last), last))
        runs = _gap_runs(coins, width, first, last)
        ends = expand_runs(runs)
        assert ends == reference_gap_ends(coins, width, first, last), (
            coins, width, first, last)
        assert_maximal(runs, first, last)
        seen["wide"] += width > last
        seen["offset"] += 0 < first < last
        seen["single"] += first == last
        seen["gaps"] += len(ends) > 1
        seen["runs"] += len(runs) > 1
        seen["to_last"] += bool(runs) and runs[-1][1] == last
    assert min(seen.values()) > 100, seen


def test_gap_run_reaching_last_is_closed_at_last():
    # coin 5, width 1: offsets 1-4 and 6-7 are gaps, and the second run
    # is cut by last = 7, not by an attainable sum
    assert _gap_runs((5,), 1, 0, 7) == [(1, 4), (6, 7)]
    assert _gap_runs((5,), 1, 6, 7) == [(6, 7)]
    assert _gap_runs((5,), 1, 7, 7) == [(7, 7)]
    assert _gap_runs((5,), 1, 0, 9) == [(1, 4), (6, 9)]
    assert _gap_runs((5,), 1, 5, 5) == []
    assert _gap_runs((3,), 2, 0, 5) == [(2, 2), (5, 5)]


def test_gap_runs_cost_grows_with_the_runs_not_the_gaps():
    # 198,765 gap offsets in 630 runs: a read that rewrites the whole bit
    # set for each gap it reports (a low-bit loop) takes seconds here.
    start = time.perf_counter()
    runs = _gap_runs((631, 632), 1, 0, 400_000)
    assert time.perf_counter() - start < 2.0
    assert len(runs) == 630
    assert sum(b - a + 1 for a, b in runs) == 198_765
    assert_maximal(runs, 0, 400_000)
    assert runs[0] == (1, 630)
    assert runs[-1] == (631 * 632 - 631 - 632,) * 2  # the Frobenius number


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
    assert generate_constants((1, 3), t, window=(-w, w)) == IntervalSet.between(-w, 6)
    up = Transition("u", (0, 0), (w, 0))
    assert generate_constants((-1, -3), up, window=(-w, w)) == IntervalSet.between(1, w)


def test_constants_for_large_k_cost_grows_with_the_runs():
    # 4.5 million gap offsets of <3000, 3001> fall into 2,999 runs; one
    # span per offset took seconds and a gigabyte here. The runs are read
    # from one string of the 9-million-bit set; a reversed copy of it
    # would lift the peak to about 20 MB.
    t = Transition("t", (1, 0), (0, 1))
    inst = Instance(PetriNet(("p", "q"), (t,)), (3000, 0), (0, 0), Mode.REACH)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = constants_for_instance(inst, (3001, 3000))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 2.0
    assert peak < 16_000_000
    assert report.window == (1, 9_003_000)
    assert report.chosen == 9_000_000  # k.pre + the Frobenius number
    assert len(report.combined.spans) == 3_000
    assert report.combined.spans[:2] == ((1, 3000), (3002, 6000))
    assert report.per_transition == (("t", report.combined),)


def token_moving_instance(rng: random.Random, places: int, mode: Mode) -> Instance:
    """Transitions that each move one token, so a k with close large
    entries has a drop below min |k(i)| and the sets have gap runs."""
    ts = []
    for n in range(rng.randint(1, 3)):
        pre = [rng.randint(0, 2) for _ in range(places)]
        i, j = rng.sample(range(places), 2)
        pre[i] += 1
        post = list(pre)
        post[i] -= 1
        post[j] += 1
        ts.append(Transition(f"t{n}", tuple(pre), tuple(post)))
    m0, mf = (tuple(rng.randint(0, 6) for _ in range(places)) for _ in range(2))
    names = tuple(f"p{i}" for i in range(places))
    return Instance(PetriNet(names, tuple(ts)), m0, mf, mode)


def test_constants_for_instance_agrees_with_generate_constants():
    # per_transition is generate_constants on the window, combined is the
    # window intersected with each set, and every set is canonical as built
    rng = random.Random(1717)
    seen = {"empty_window": 0, "chosen": 0, "cover": 0, "mixed": 0, "runs": 0}
    for seed in range(1200):
        mode = rng.choice((Mode.REACH, Mode.COVER))
        shape = rng.randrange(3)
        if shape < 2:
            places = rng.randint(1, 4)
            inst = random_instance(seed, places, rng.randint(1, 4), mode=mode)
            if shape == 0:  # often sign-mixed
                k = tuple(rng.randint(-7, 7) for _ in range(places))
            else:
                k = random_unmixed(rng, places)
        else:
            places = rng.randint(2, 4)
            inst = token_moving_instance(rng, places, mode)
            a, sign = rng.randint(3, 20), rng.choice((1, -1))
            k = tuple(sign * rng.randint(a, a + 3) for _ in range(places))
        if all(x == 0 for x in k):
            continue
        report = constants_for_instance(inst, k)
        lo, hi = report.window
        combined = IntervalSet.between(lo, hi)
        for t, (name, s) in zip(inst.net.transitions, report.per_transition):
            assert name == t.name
            assert s == generate_constants(k, t, window=(lo, hi)), (seed, k, t)
            # a window holding the whole non-trivial patch, so not tightened
            base, limit = dot(k, t.pre), frobenius_limit(k)
            wide = generate_constants(k, t, (min(lo, base - limit) - 1, max(hi, base + limit) + 1))
            for x in (s, wide):
                assert canonical(x.spans) == x, (seed, k, t, x)
            assert s == wide.intersect(IntervalSet.between(lo, hi)), (seed, k, t)
            combined = combined.intersect(s)
        assert report.combined == combined, (seed, k)
        assert canonical(report.combined.spans) == report.combined
        seen["empty_window"] += lo > hi
        seen["chosen"] += report.chosen is not None
        seen["cover"] += mode is Mode.COVER
        seen["mixed"] += min(k) < 0 < max(k)
        seen["runs"] += any(len(s.spans) > 1 for _, s in report.per_transition)
    assert min(seen.values()) > 30, seen


def test_generate_constants_oriented_keeps_everything():
    t = Transition("t", (1, 0), (1, 2))
    s = generate_constants((3, 2), t, window=(-5, 5))
    assert s == IntervalSet.between(-5, 5)


def test_generate_constants_mixed_decreasing_is_empty():
    t = Transition("t", (1, 0), (0, 1))  # delta (-1, 1), so k.delta = -4
    assert generate_constants((1, -3), t, window=(-50, 50)).is_empty


def test_running_example_constants_report(two_place):
    report = constants_for_instance(two_place, (3, 2))
    assert report.window == (9, 11)  # (k.m_final, k.m_init] = (8, 11]
    assert report.chosen == 9
    assert report.combined == IntervalSet(((9, 9),))
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
