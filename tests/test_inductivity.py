"""Exact inductivity checking against brute force and by hand."""

import heapq
import itertools
import math
import random
import time
from types import SimpleNamespace

import pytest

from petrisep import (
    HalfSpace,
    Instance,
    Mode,
    OracleBudgetError,
    StructureError,
    Transition,
    certify,
    check_net,
    check_transition,
    dot,
    generate_constants,
    is_mixed,
    mixed_counterexample,
    oracle_check_transition,
    ussp_halfspace,
    witness_bound,
)
from petrisep import inductivity

from conftest import assert_document, document, two_place_instance


def random_transition(rng: random.Random, n: int, max_flow: int = 4) -> Transition:
    pre = tuple(rng.randint(0, max_flow) for _ in range(n))
    post = tuple(rng.randint(0, max_flow) for _ in range(n))
    return Transition("t", pre, post)


def test_is_mixed():
    assert is_mixed((1, -1))
    assert not is_mixed((0, 2))
    assert not is_mixed((-3, 0))
    assert not is_mixed((0, 0))


def test_trivial_flags_by_hand():
    t = Transition("t", (2, 1), (1, 2))  # delta (-1, 1)
    up = check_transition((1, 2), 0, t).flags  # k.delta = 1
    assert up.oriented and up.any

    mono = check_transition((3, 2), 7, t).flags  # k.post = 7 >= c
    assert not mono.oriented and mono.monotone and mono.any

    anti = check_transition((-3, -2), -7, t).flags  # k.pre = -8 < c
    assert anti.antitone and anti.any

    none = check_transition((3, 2), 9, t).flags
    assert not none.any


def test_check_transition_trivial_shortcut_reports_flags():
    t = Transition("t", (0, 0), (1, 1))
    r = check_transition((5, -3), 3, t)  # mixed but k.delta = 2 >= 0
    assert r.inductive and r.flags.oriented
    assert r.witness is None
    assert "oriented" in r.describe()


def test_running_example_half_space_is_inductive(two_place):
    chk = check_net(two_place.net, HalfSpace((3, 2), 9))
    assert chk.inductive
    assert [r.transition for r in chk.per_transition] == ["t", "u", "v"]
    by_name = {r.transition: r for r in chk.per_transition}
    assert not by_name["t"].flags.any  # the interesting transition
    assert by_name["u"].flags.oriented
    assert by_name["v"].flags.oriented
    assert all(r.inductive for r in chk.per_transition)


def test_running_example_threshold_8_fails_with_exact_witness(two_place):
    chk = check_net(two_place.net, HalfSpace((3, 2), 8))
    assert not chk.inductive
    bad = [r for r in chk.per_transition if not r.inductive]
    assert [r.transition for r in bad] == ["t"]
    r = bad[0]
    t = two_place.net.transitions[0]
    # The enabled marking witness: x >= 0 with k.(x + pre) landing on 8.
    assert r.witness is not None
    assert r.witness_value == 8
    assert dot((3, 2), r.witness) + dot((3, 2), t.pre) == 8


def test_witness_refutes_inductivity_directly():
    k, c = (2, 3), 10
    t = Transition("t", (1, 1), (2, 0))  # k.delta = -1
    r = check_transition(k, c, t)
    assert not r.inductive  # 2a + 3b + 5 = 10 has the solution a = b = 1
    m = tuple(x + p for x, p in zip(r.witness, t.pre))
    hs = HalfSpace(k, c)
    assert t.is_enabled(m)
    assert hs.contains(m)
    assert not hs.contains(t.fire(m))


def test_mixed_counterexample_properties():
    rng = random.Random(321)
    produced = 0
    while produced < 400:
        n = rng.randint(2, 4)
        k = tuple(rng.randint(-6, 6) for _ in range(n))
        t = random_transition(rng, n)
        if not is_mixed(k) or dot(k, t.delta) >= 0:
            continue
        c = rng.randint(-40, 40)
        x = mixed_counterexample(k, c, t)
        assert all(e >= 0 for e in x)
        m = tuple(a + b for a, b in zip(x, t.pre))
        hs = HalfSpace(k, c)
        assert t.is_enabled(m)
        assert hs.contains(m)
        assert not hs.contains(t.fire(m))
        produced += 1


def test_mixed_counterexample_rejects_wrong_inputs():
    t = Transition("t", (0, 0), (1, 0))
    with pytest.raises(ValueError):
        mixed_counterexample((2, 3), 0, t)  # not mixed
    with pytest.raises(ValueError):
        mixed_counterexample((1, -1), 0, Transition("t", (0, 0), (1, 0)))  # kd >= 0


def test_mixed_nonoriented_is_never_inductive():
    rng = random.Random(17)
    produced = 0
    while produced < 300:
        n = rng.randint(2, 3)
        k = tuple(rng.randint(-5, 5) for _ in range(n))
        t = random_transition(rng, n, max_flow=3)
        if not is_mixed(k) or dot(k, t.delta) >= 0:
            continue
        c = rng.randint(-30, 30)
        assert not check_transition(k, c, t).inductive
        assert not oracle_check_transition(k, c, t).inductive
        produced += 1


def test_checker_agrees_with_oracle_on_random_configurations():
    rng = random.Random(2024)
    for _ in range(2000):
        n = rng.randint(1, 3)
        k = tuple(rng.randint(-8, 8) for _ in range(n))
        c = rng.randint(-40, 40)
        t = random_transition(rng, n)
        fast = check_transition(k, c, t)
        try:
            slow = oracle_check_transition(k, c, t)
        except OracleBudgetError:
            continue  # grid too large for the default budget; rare
        assert fast.inductive == slow.inductive, (k, c, t)


def test_witness_bound_caps_the_search_for_unmixed_k():
    rng = random.Random(88)
    for _ in range(500):
        n = rng.randint(1, 3)
        sign = rng.choice((1, -1))
        k = tuple(sign * rng.randint(0, 6) for _ in range(n))
        c = rng.randint(-30, 30)
        t = random_transition(rng, n)
        r = check_transition(k, c, t)
        if r.flags.any:
            continue
        assert r.sums_explored <= witness_bound(k, c, t) + 1
        if r.witness is not None:
            assert all(e <= witness_bound(k, c, t) for e in r.witness)


@pytest.mark.parametrize("k", [(3, -2), (3, -2, 1, -1)], ids=["shorter", "longer"])
def test_arity_mismatch_raises_instead_of_truncating(k):
    # k mixed with k.delta < 0 on a prefix, so no check passes by accident.
    t = Transition("t", (1, 0, 0), (0, 1, 0))
    calls = [
        lambda: check_transition(k, 0, t),
        lambda: oracle_check_transition(k, 0, t),
        lambda: witness_bound(k, 0, t),
        lambda: generate_constants(k, t),
        lambda: generate_constants(k, t, window=(-5, 5)),
        lambda: mixed_counterexample(k, 0, t),
    ]
    for call in calls:
        with pytest.raises(StructureError):
            call()


def test_trivial_flags_and_witness_bound_match_their_definitions():
    rng = random.Random(4242)
    cases = 0
    for i in range(2400):
        n = 1 if i % 4 == 0 else rng.randint(1, 4)
        if i % 50 == 0:
            k = (0,) * n
        else:
            sign = rng.choice((1, -1, 0))  # 0: entries of both signs
            k = tuple(
                (sign or rng.choice((1, -1))) * rng.randint(0, 7) for _ in range(n)
            )
        t = random_transition(rng, n, max_flow=rng.choice((1, 4, 9)))
        kpre = sum(a * b for a, b in zip(k, t.pre))
        kpost = sum(a * b for a, b in zip(k, t.post))
        kdelta = sum(a * b for a, b in zip(k, t.delta))
        c = kpre + rng.randint(-40, 40)
        if i % 10 == 0:
            c = rng.choice((1, -1)) * rng.randint(10**6, 10**18)
        nonneg = all(x >= 0 for x in k)
        nonpos = all(x <= 0 for x in k)
        flags = check_transition(k, c, t).flags
        assert flags.oriented == (kdelta >= 0), (k, c, t)
        assert flags.monotone == (nonneg and kpost >= c), (k, c, t)
        assert flags.antitone == (nonpos and kpre < c), (k, c, t)
        try:
            assert oracle_check_transition(k, c, t, max_points=1000).flags == flags
        except OracleBudgetError:
            pass  # c far from the window: the grid is out of budget
        # the window [c, c - k.delta) and the start k.pre, spanned
        lo, hi = min(kpre, c), max(kpre, c - kdelta)
        assert witness_bound(k, c, t) == hi - lo, (k, c, t)
        cases += 1
    assert cases >= 2000


def test_oracle_budget_is_enforced():
    t = Transition("t", (0, 0, 0), (1, 1, 1))
    with pytest.raises(OracleBudgetError):
        oracle_check_transition((-200, -300, -500), -100_000, t, max_points=1000)


def test_oracle_refuses_a_nan_budget():
    # nan passed `max_points <= 0` and then every grid size test, so the
    # walk ran with no budget at all
    t = Transition("t", (2, 1), (1, 2))
    with pytest.raises(ValueError, match="oracle budget must be positive"):
        oracle_check_transition((3, 2), 8, t, max_points=float("nan"))
    with pytest.raises(OracleBudgetError):
        oracle_check_transition((3, 2), 8, t, max_points=2.5)


def _box_oracle(k, c, t, b):
    """Plain walk of the whole [0, b]^n box, first coordinate fastest.

    Returns the first witness x and k.(x + pre), or None twice, and the
    number of box points before it that fall short of the window, with
    coordinates whose coefficient is 0 held at 0."""
    base, lo, hi = dot(k, t.pre), c, c - dot(k, t.delta)
    up = all(v >= 0 for v in k)
    short = 0
    for rev in itertools.product(range(b + 1), repeat=len(k)):
        x = rev[::-1]
        s = base + dot(k, x)
        if lo <= s < hi:
            return x, s, short
        if all(e == 0 for e, v in zip(x, k) if v == 0) and (s < lo if up else s >= hi):
            short += 1
    return None, None, short


def _small_sign_pure_case(rng: random.Random):
    """Random sign-pure (k, c, t) with a grid small enough to walk whole.
    Half of them have two coprime coins a, b <= 9, a window of width 1 or
    2 within a * b of k.pre, and sometimes a place with k(i) = 0, so that
    inductive results short of the trivial ones are common too."""
    sign = rng.choice((1, -1))
    if rng.random() < 0.5:
        n = rng.randint(1, 3)
        k = tuple(sign * rng.choice((0, rng.randint(1, 4), rng.randint(5, 20)))
                  for _ in range(n))
        t = random_transition(rng, n, max_flow=3)
        return k, dot(k, t.pre) + sign * rng.randint(-5, 40), t
    while True:
        a, b = rng.randint(2, 9), rng.randint(2, 9)
        if math.gcd(a, b) == 1:
            break
    w = rng.randint(1, 2)
    x = (-w * pow(a, -1, b)) % b  # a*x - b*y = -w with x, y >= 0
    y = (a * x + w) // b
    pre, post = ((0, y), (x, 0)) if sign > 0 else ((x, 0), (0, y))
    k = (sign * a, sign * b)
    if rng.random() < 0.5:
        k, pre, post = k + (0,), pre + (rng.randint(0, 3),), post + (rng.randint(0, 3),)
    t = Transition("t", pre, post)
    return k, dot(k, t.pre) + sign * rng.randint(0, a * b), t


def test_pruned_oracle_walk_matches_the_whole_box():
    rng = random.Random(606)
    seen = {True: 0, False: 0}  # verdicts reached with at least one point walked
    for _ in range(2000):
        k, c, t = _small_sign_pure_case(rng)
        if dot(k, t.delta) >= 0:
            continue
        try:
            r = oracle_check_transition(k, c, t, max_points=4000)
        except OracleBudgetError:
            continue
        x, value, short = _box_oracle(k, c, t, witness_bound(k, c, t))
        assert (r.inductive, r.witness, r.witness_value) == (x is None, x, value), (k, c, t)
        if r.inductive:
            assert r.sums_explored == short, (k, c, t)
        if r.sums_explored:
            seen[r.inductive] += 1
    assert min(seen.values()) >= 150, seen


def test_pruned_oracle_walk_cost_on_pinned_cases():
    net, hs = ussp_halfspace((23, 57), 396)  # 23 x + 57 y = 396 has no solution
    t = net.transitions[0]
    assert (witness_bound(hs.k, hs.c, t) + 1) ** 2 == 158_404
    r = oracle_check_transition(hs.k, hs.c, t)
    assert r.inductive and r.sums_explored <= 100

    # k(0) = k(1) = 0 never move the sum, so the walk only raises x(2).
    r = oracle_check_transition((0, 0, -1), -38, Transition("t", (0, 0, 0), (0, 0, 1)))
    assert not r.inductive
    assert (r.witness, r.witness_value, r.sums_explored) == ((0, 0, 38), -38, 39)


def test_oracle_row_walk_matches_the_whole_box():
    # Up to four coordinates, often a zero coefficient ahead of the first
    # moving one, and steps often wider than the window.
    rng = random.Random(919)
    seen = dict.fromkeys(("wide", "lead", "n4", "k >= 0", "k <= 0", "holds", "fails"), 0)
    for _ in range(3000):
        k, c, t = _small_sign_pure_case(rng)
        sign = 1 if min(k) >= 0 else -1
        if rng.random() < 0.5:
            k, t = (0,) + k, Transition("t", (rng.randint(0, 2),) + t.pre,
                                        (rng.randint(0, 2),) + t.post)
        if rng.random() < 0.5:  # one more moving coordinate, off the transition
            k, t = k + (sign * rng.randint(1, 15),), Transition("t", t.pre + (0,), t.post + (0,))
        kd = dot(k, t.delta)
        if kd >= 0:
            continue
        try:
            r = oracle_check_transition(k, c, t, max_points=4000)
        except OracleBudgetError:
            continue
        x, value, short = _box_oracle(k, c, t, witness_bound(k, c, t))
        assert (r.inductive, r.witness, r.witness_value) == (x is None, x, value), (k, c, t)
        assert r.sums_explored == short + (x is not None), (k, c, t)
        seen["wide"] += next(abs(v) for v in k if v) > -kd
        seen["lead"] += k[0] == 0
        seen["n4"] += len(k) == 4
        seen["k >= 0" if sign > 0 else "k <= 0"] += 1
        seen["holds" if r.inductive else "fails"] += 1
    assert min(seen.values()) >= 150, seen


def test_oracle_refuses_a_grid_too_large_to_count():
    # (bound + 1)^2 has about 6000 digits here, past what int -> str allows.
    net, hs = ussp_halfspace((3, 5), 10**3000)
    t = net.transitions[0]
    with pytest.raises(OracleBudgetError, match="exceeds budget"):
        oracle_check_transition(hs.k, hs.c, t)
    report = certify(Instance(net, t.pre, t.post, Mode.REACH), hs)
    assert report.oracle == (("t", None),)
    [exact] = report.inductivity.per_transition
    assert exact == check_transition(hs.k, hs.c, t) and not exact.inductive


def test_check_transition_pinned_results():
    net, hs = ussp_halfspace((23, 57), 396)  # 23 x + 57 y = 396 has no solution
    cases = [
        (hs.k, hs.c, net.transitions[0], (True, None, None, 7)),
        ((24, 23, 14), 264, Transition("t", (1, 1, 3), (0, 2, 3)), (False, (4, 1, 4), 264, 14)),
        ((-29, -26, -28), -391, Transition("t", (1, 3, 3), (2, 3, 2)),
         (False, (6, 1, 0), -391, 18)),
    ]
    for k, c, t, expected in cases:
        r = check_transition(k, c, t)
        assert (r.inductive, r.witness, r.witness_value, r.sums_explored) == expected, k


def test_residue_search_skips_stale_heap_entries(monkeypatch):
    # residues 6 and 8 are each pushed twice, at 58 after 45 and at 73
    # after 60; the later pops are stale and settle nothing
    pops = []

    def heappop(heap):
        pops.append(heapq.heappop(heap))
        return pops[-1]

    counting = SimpleNamespace(heappop=heappop, heappush=heapq.heappush)
    monkeypatch.setattr(inductivity, "heapq", counting)
    k, c, t = (29, 13, 15), 452, Transition("t", (3, 0, 2), (2, 2, 2))
    r = check_transition(k, c, t)
    assert len(pops) - len({res for _, res in pops}) == 2
    assert (r.inductive, r.witness, r.witness_value, r.sums_explored) == (
        False, (0, 20, 5), 452, 10)
    assert not oracle_check_transition(k, c, t, max_points=10**8).inductive


def test_transition_check_json_round_trip():
    # the flags sit flat beside the verdict; a witness is a list, or null
    t = Transition("t", (1, 1), (2, 0))
    docs = {
        5: {"transition": "t", "inductive": False, "oriented": False, "monotone": False,
            "antitone": False, "witness": [0, 0], "witness_value": 5, "sums_explored": 1},
        10: {"transition": "t", "inductive": False, "oriented": False, "monotone": False,
             "antitone": False, "witness": [1, 1], "witness_value": 10, "sums_explored": 2},
        -3: {"transition": "t", "inductive": True, "oriented": False, "monotone": True,
             "antitone": False, "witness": None, "witness_value": None, "sums_explored": 0},
    }
    for c, expected in docs.items():
        assert_document(document(check_transition((2, 3), c, t)), expected)


def test_net_check_json_round_trip(two_place):
    # a net check is the bare list of its transitions' documents
    chk = check_net(two_place.net, HalfSpace((3, 2), 8))
    assert_document(document(chk), [
        {"transition": "t", "inductive": False, "oriented": False, "monotone": False,
         "antitone": False, "witness": [0, 0], "witness_value": 8, "sums_explored": 1},
        {"transition": "u", "inductive": True, "oriented": True, "monotone": True,
         "antitone": False, "witness": None, "witness_value": None, "sums_explored": 0},
        {"transition": "v", "inductive": True, "oriented": True, "monotone": True,
         "antitone": False, "witness": None, "witness_value": None, "sums_explored": 0},
    ])


def test_mixed_counterexample_handles_thresholds_beyond_float_range():
    k = (3, -2)
    t = Transition("t", (1, 0), (0, 0))  # k.delta = -3
    for c in (10**400, -(10**400)):
        r = check_transition(k, c, t)
        assert not r.inductive
        assert all(e >= 0 for e in r.witness)
        value = dot(k, r.witness) + dot(k, t.pre)
        assert r.witness_value == value
        assert c <= value < c - dot(k, t.delta)


def _attainable_by_two_coprime_coins(a: int, b: int, s: int) -> bool:
    """s >= 0 is x*a + y*b with x, y >= 0 iff the least x does not overshoot."""
    return s - a * ((s * pow(a, -1, b)) % b) >= 0


def _sign_pure_case(rng: random.Random):
    """Random sign-pure (k, c, t). Half of them have two coprime coins a, b
    and a window of width 1 to 3 within a * b of k.pre, where both verdicts
    are common."""
    sign = rng.choice((1, -1))
    if rng.random() < 0.5:
        top = rng.choice((20, 10**4))
        while True:
            a, b = rng.randint(1, top), rng.randint(2, top)
            if math.gcd(a, b) == 1:
                break
        w = rng.randint(1, 3)
        x = (-w * pow(a, -1, b)) % b  # a*x - b*y = -w with x, y >= 0
        y = (a * x + w) // b
        k = (sign * a, sign * b, 0)
        if sign > 0:
            t = Transition("t", (0, y, 1), (x, 0, 2))
        else:
            t = Transition("t", (x, 0, 1), (0, y, 2))  # k.delta = -w again
        return k, dot(k, t.pre) + sign * rng.randint(0, a * b), t
    n = rng.randint(1, 3)
    scale = rng.choice((1, 1, 2, 6))  # gcd(k) > 1 when scale > 1
    mags = [rng.choice((0, rng.randint(1, 60), rng.randint(1, 10**4 // scale)))
            for _ in range(n)]
    if n > 1 and rng.random() < 0.3:
        mags[1] = mags[0]  # a repeated magnitude
    k = tuple(sign * scale * m for m in mags)
    t = random_transition(rng, n, max_flow=3)
    far = rng.choice((rng.randint(-50, 50), rng.randint(0, 10**8), rng.randint(0, 10**18)))
    return k, dot(k, t.pre) + sign * far, t


def test_sign_pure_search_settles_at_most_the_smallest_coin():
    rng = random.Random(4242)
    closed_form = {True: 0, False: 0}
    for _ in range(1500):
        k, c, t = _sign_pure_case(rng)
        r = check_transition(k, c, t)
        if r.flags.any:
            continue
        kd, base = dot(k, t.delta), dot(k, t.pre)
        assert r.sums_explored <= min(abs(x) for x in k if x)
        if not r.inductive:
            assert all(e >= 0 for e in r.witness)
            value = dot(k, r.witness) + base
            assert r.witness_value == value and c <= value < c - kd
        coins = sorted({abs(x) for x in k if x})
        if len(coins) == 2 and math.gcd(*coins) == 1:
            a, b = coins
            if all(x >= 0 for x in k):
                lo, hi = max(c - base, 0), c - kd - 1 - base
            else:
                lo, hi = max(base - c + kd + 1, 0), base - c
            # A window at least b long holds a multiple of b, which is attainable.
            hit = any(
                _attainable_by_two_coprime_coins(a, b, s)
                for s in range(lo, min(hi, lo + b - 1) + 1)
            )
            assert r.inductive == (not hit), (k, c, t)
            closed_form[r.inductive] += 1
    assert min(closed_form.values()) >= 100, closed_form


def test_running_example_check_cost_does_not_grow_with_c(two_place):
    t = two_place.net.transitions[0]
    for c in (10**6, 10**18):
        r = check_transition((3, 2), c, t)
        assert not r.inductive
        assert r.sums_explored <= 2


def reference_residue_search(k, c, t):
    """The heap search over the residues modulo the smallest coin, which
    decided every sign-pure k before one and two coins were decided in
    closed form: (inductive, witness, witness_value, sums_explored) for
    sign-pure k with k.delta < 0 and no trivial flag."""
    base, kd = dot(k, t.pre), dot(k, t.delta)
    sign = 1 if min(k) >= 0 else -1
    if sign > 0:
        lo, hi = max(c - base, 0), c - kd - 1 - base
    else:
        lo, hi = max(base - c + kd + 1, 0), base - c
    coins = sorted({abs(x) for x in k if x != 0})
    a = coins[0]
    least = {0: 0}
    pred = {}
    settled = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d > least[r]:
            continue
        settled += 1
        s = max(d, lo)
        s += (d - s) % a
        if s <= hi:
            x = [0] * len(k)
            x[k.index(sign * a)] = (s - d) // a
            while r:
                r, coin = pred[r]
                x[k.index(sign * coin)] += 1
            return False, tuple(x), base + sign * s, settled
        for coin in coins[1:]:
            nd = d + coin
            nr = nd % a
            if nd <= hi and nd < least.get(nr, nd + 1):
                least[nr] = nd
                pred[nr] = (r, coin)
                heapq.heappush(heap, (nd, nr))
    return True, None, None, settled


def _few_coins_case(rng: random.Random):
    """Random sign-pure (k, c, t): mostly two distinct magnitudes, else one
    or three, up to 10^4, often with a common factor, a zero entry or a
    repeated magnitude, and c within about 10^6 of 0. Half of those with
    two magnitudes p, q get a window of width gcd(p, q) * (1 to 3)."""
    sign = rng.choice((1, -1))
    top = rng.choice((12, 60, 10**4))
    g = rng.choice((1, 1, 2, 6))
    count = rng.choices((1, 2, 3), (2, 7, 1))[0]
    mags = [g * rng.randint(1, max(1, top // g)) for _ in range(count)]
    mags += rng.choice(([], [], [0], [mags[0]], [0, mags[-1]]))
    rng.shuffle(mags)
    k = tuple(sign * m for m in mags)
    if len(set(mags) - {0}) >= 2 and rng.random() < 0.5:
        i, j = rng.sample([i for i, m in enumerate(mags) if m], 2)
        p, q = mags[i], mags[j]
        if p == q:
            j = next(j for j, m in enumerate(mags) if m and m != p)
            q = mags[j]
        g = math.gcd(p, q)
        w = rng.randint(1, 3)
        x = (-w * pow(p // g, -1, q // g)) % (q // g)  # p*x - q*y = -g*w, x, y >= 0
        y = (p * x + g * w) // q
        pre, post = [0] * len(k), [0] * len(k)
        if sign > 0:
            pre[j], post[i] = y, x
        else:
            pre[i], post[j] = x, y
        t = Transition("t", tuple(pre), tuple(post))
        far = rng.randint(0, min(p * q, 10**6))
    else:
        pre, post = (tuple(rng.randint(0, 3) for _ in k) for _ in range(2))
        kd = dot(k, post) - dot(k, pre)
        t = Transition("t", *((post, pre) if kd > 0 else (pre, post)))
        far = rng.choice((rng.randint(-2 * abs(kd), abs(kd)), rng.randint(0, 2 * top * top),
                          rng.randint(0, 10**6)))
    return k, dot(k, t.pre) + sign * far, t


def test_one_and_two_coins_match_the_residue_search():
    rng = random.Random(1979)
    seen = dict.fromkeys(("one coin", "three coins", "gcd > 1 holds", "gcd > 1 fails",
                          "window >= a", "lo = 0", "k <= 0", "holds", "fails"), 0)
    compared = 0
    while compared < 20_000:
        k, c, t = _few_coins_case(rng)
        r = check_transition(k, c, t)
        if r.flags.any:
            continue
        compared += 1
        expected = reference_residue_search(k, c, t)
        assert (r.inductive, r.witness, r.witness_value, r.sums_explored) == expected, (k, c, t)
        base, kd = dot(k, t.pre), dot(k, t.delta)
        coins = sorted({abs(x) for x in k if x})
        a, b = coins[0], coins[-1]
        lo = max(c - base if max(k) > 0 else base - c + kd + 1, 0)
        seen["one coin"] += len(coins) == 1
        seen["three coins"] += len(coins) == 3
        if math.gcd(a, b) > 1:
            seen["gcd > 1 holds" if r.inductive else "gcd > 1 fails"] += 1
        seen["window >= a"] += -kd >= a
        seen["lo = 0"] += lo == 0
        seen["k <= 0"] += max(k) <= 0
        seen["holds" if r.inductive else "fails"] += 1
    assert min(seen.values()) >= 200, seen


def test_two_coin_check_cost_does_not_grow_with_the_coins():
    # 1000034000063 is the Frobenius number of 1000003 and 1000033. A heap
    # over the residues modulo 1000003 settles about a million of them on
    # each, in about 2 s and with more than 200 MB at its peak.
    frobenius = 1000003 * 1000033 - 1000003 - 1000033
    cases = [(frobenius, (True, None, None, 1_000_002)),
             (frobenius + 1, (False, (233340, 766668), 1233375700087, 766_669))]
    for d, expected in cases:
        net, hs = ussp_halfspace((1000003, 1000033), d)
        start = time.perf_counter()
        r = check_transition(hs.k, hs.c, net.transitions[0])
        elapsed = time.perf_counter() - start
        assert (r.inductive, r.witness, r.witness_value, r.sums_explored) == expected, d
        assert elapsed < 0.05, (d, elapsed)


def test_consecutive_fibonacci_coins_take_thousands_of_euclid_steps():
    # k.delta = F(3000)^2 - F(3001) F(2999) = -1 (Cassini), so the window
    # is the single product c and the check decides whether c - k.pre is a
    # sum of the two coins; the first hit takes about 3000 Euclid steps.
    fib = [0, 1]
    while len(fib) <= 3001:
        fib.append(fib[-1] + fib[-2])
    a, b = fib[3000], fib[3001]
    rng = random.Random(3000)
    frobenius = a * b - a - b
    seen = {True: 0, False: 0}
    for sign in (1, -1):
        k = (sign * a, sign * b)
        t = Transition("t", (0, fib[2999]), (a, 0))
        if sign < 0:
            t = Transition("t", t.post, t.pre)
        assert dot(k, t.delta) == -1
        for s in [frobenius, frobenius + 1, a * b] + [rng.randint(0, a * b) for _ in range(12)]:
            c = dot(k, t.pre) + sign * s
            r = check_transition(k, c, t)
            assert r.inductive == (not _attainable_by_two_coprime_coins(a, b, s)), s
            if not r.inductive:
                assert all(e >= 0 for e in r.witness)
                assert r.witness_value == dot(k, r.witness) + dot(k, t.pre) == c
            seen[r.inductive] += 1
    assert min(seen.values()) >= 6, seen
