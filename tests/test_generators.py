"""Instance families: hard family, equation nets, seeded randomness."""

import math
import random

import pytest

from petrisep import (
    Mode,
    check_net,
    check_transition,
    dot,
    nontrivial_certificate,
    nontrivial_net,
    random_instance,
    ussp_halfspace,
    verify_separator,
)
from petrisep.formula import evaluate, trivial_separator_formula


def test_nontrivial_net_shape():
    inst = nontrivial_net(4)
    assert inst.net.n == 4
    assert len(inst.net.transitions) == 4
    assert inst.m_init == (1, 1, 1, 1)
    assert inst.m_final == (2, 2, 2, 2)
    assert inst.mode is Mode.REACH
    for i, t in enumerate(inst.net.transitions, start=1):
        assert t.pre == (1, 1, 1, 1)
        assert sum(t.post) == (5 if i == 4 else 4)


def test_nontrivial_family_needs_three_places():
    # the known certificate checks its parameter as the net does
    for build in (nontrivial_net, nontrivial_certificate):
        with pytest.raises(ValueError, match="family needs n >= 3"):
            build(2)


@pytest.mark.parametrize("n", range(3, 8))
def test_nontrivial_certificate_passes(n):
    inst = nontrivial_net(n)
    hs = nontrivial_certificate(n)
    assert verify_separator(inst, hs).ok
    assert check_net(inst.net, hs).inductive


def test_nontrivial_certificate_avoids_every_cheap_condition():
    """k.pre = c + 1 and k.delta = -1 for all transitions: nothing trivial."""
    n = 4
    inst = nontrivial_net(n)
    hs = nontrivial_certificate(n)
    chk = check_net(inst.net, hs)
    for r in chk.per_transition:
        assert r.inductive and not r.flags.any
        assert r.describe() == "non-trivial"


def test_nontrivial_family_defeats_all_trivial_vectors():
    """No k in a small box satisfies the trivial-only formula for n = 3."""
    inst = nontrivial_net(3)
    f = trivial_separator_formula(inst)
    for a in range(-6, 7):
        for b in range(-6, 7):
            for c in range(-6, 7):
                assert not evaluate(f, (a, b, c)), (a, b, c)


def solvable(w: tuple, d: int) -> bool:
    reach = [False] * (d + 1)
    reach[0] = True
    for v in range(1, d + 1):
        reach[v] = any(v >= c and reach[v - c] for c in w)
    return reach[d]


def test_ussp_halfspace_matches_subset_sum_on_a_sample():
    rng = random.Random(60)
    for _ in range(200):
        w = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 3)))
        d = rng.randint(0, 40)
        enc = ussp_halfspace(w, d)
        if enc is None:
            assert d % math.gcd(*w) != 0
            continue
        net, hs = enc
        assert len(net.transitions) == 1
        t = net.transitions[0]
        assert dot(w, t.delta) == -math.gcd(*w)
        inductive = check_transition(hs.k, hs.c, t).inductive
        assert inductive == (not solvable(w, d)), (w, d)


def test_ussp_halfspace_validation():
    with pytest.raises(ValueError):
        ussp_halfspace((0, 2), 4)
    with pytest.raises(ValueError):
        ussp_halfspace((2, 3), -1)
    assert ussp_halfspace((4, 6), 7) is None  # gcd 2 does not divide 7


def test_random_instance_is_reproducible():
    a = random_instance(123)
    b = random_instance(123)
    assert a == b
    c = random_instance(124)
    assert a != c


def test_random_instance_respects_limits():
    inst = random_instance(5, places=4, transitions=2, max_flow=3, max_marking=2)
    assert inst.net.n == 4
    assert len(inst.net.transitions) == 2
    for t in inst.net.transitions:
        assert all(0 <= x <= 3 for x in t.pre + t.post)
    assert all(0 <= x <= 2 for x in inst.m_init + inst.m_final)
    cover = random_instance(5, mode=Mode.COVER)
    assert cover.mode is Mode.COVER
    with pytest.raises(ValueError):
        random_instance(5, places=0)
