"""Core model types: transitions, nets, half spaces, exploration."""

import random
import re
import sys
from collections import deque

import pytest

from petrisep import (
    ExplorationOutcome,
    HalfSpace,
    Instance,
    IntervalSet,
    Mode,
    PetriNet,
    StructureError,
    Transition,
    TrivialFlags,
    bounded_explore,
    check_transition,
    dot,
    generate_constants,
    is_mixed,
    oracle_check_transition,
    random_instance,
    verify_separator,
)

from conftest import assert_document, document, two_place_instance


def test_dot_and_length_mismatch():
    assert dot((3, 2), (1, 4)) == 11
    with pytest.raises(StructureError):
        dot((1, 2), (1, 2, 3))


def test_transition_delta_and_firing():
    t = Transition("t", (2, 1), (1, 2))
    assert t.delta == (-1, 1)
    assert t.is_enabled((2, 1))
    assert not t.is_enabled((1, 5))
    assert t.fire((3, 1)) == (2, 2)
    with pytest.raises(StructureError, match="not enabled"):
        t.fire((0, 0))
    # zip alone would stop at the shorter vector and fire on a prefix
    with pytest.raises(StructureError, match="length mismatch: 1 vs 2"):
        t.fire((3,))
    with pytest.raises(StructureError, match="length mismatch: 3 vs 2"):
        t.is_enabled((2, 1, 0))


def test_transition_validation():
    with pytest.raises(StructureError):
        Transition("t", (1, -1), (0, 0))
    with pytest.raises(StructureError):
        Transition("t", (1,), (0, 0))


def test_constructors_store_tuples_as_given_and_convert_the_rest():
    class Vec(tuple):
        pass

    pre, post = (1, 0), (0, 1)
    t = Transition("t", pre, post)
    assert t.pre is pre and t.post is post
    places, ts = ("p", "q"), (t,)
    net = PetriNet(places, ts)
    assert net.places is places and net.transitions is ts
    inst = Instance(net, pre, post)
    assert inst.m_init is pre and inst.m_final is post
    assert HalfSpace(pre, 9).k is pre
    # lists, iterators and tuple subclasses become plain tuples
    u = Transition("u", [1, 0], Vec((0, 1)))
    net = PetriNet(iter(["p", "q"]), [t, u])
    inst = Instance(net, Vec((1, 0)), iter((0, 1)))
    hs = HalfSpace(Vec((3, 2)), 9)
    for v in (u.pre, u.post, net.places, net.transitions, inst.m_init, inst.m_final, hs.k):
        assert type(v) is tuple
    assert hs == HalfSpace([3, 2], 9) == HalfSpace(iter((3, 2)), 9)
    assert inst == Instance(PetriNet(places, (t, Transition("u", pre, post))), pre, post)
    with pytest.raises(StructureError, match="non-negative"):
        Instance(net, [1, -1], Vec((0, 1)))


def test_constructors_refuse_a_string_for_a_tuple_field():
    t = Transition("t", (1, 0), (0, 1))
    net = PetriNet(("p", "q"), (t,))
    cases = [
        (lambda: HalfSpace("32", 9), "k must be a sequence of items, not the string '32'"),
        (lambda: PetriNet("pq", ()), "places must be a sequence of items, not the string 'pq'"),
        (lambda: Transition("t", "10", (0, 1)), "pre must be a sequence of items, not the string '10'"),
        (lambda: Transition("t", (1, 0), "01"), "post must be a sequence of items"),
        (lambda: PetriNet(("p",), "t"), "transitions must be a sequence of items"),
        (lambda: Instance(net, "10", (0, 1)), "m_init must be a sequence of items"),
        (lambda: Instance(net, (1, 0), "01"), "m_final must be a sequence of items"),
    ]
    for build, message in cases:
        with pytest.raises(TypeError, match=re.escape(message)):
            build()
    with pytest.raises(TypeError, match="not the string ''"):
        HalfSpace("", 0)


def test_net_rejects_duplicates():
    t = Transition("t", (1,), (0,))
    with pytest.raises(StructureError):
        PetriNet(("p", "p"), (t,))
    with pytest.raises(StructureError):
        PetriNet(("p",), (t, t))


def test_net_rejects_a_transition_of_the_wrong_arity():
    for t in (Transition("t", (1,), (0,)), Transition("t", (1, 0, 0), (0, 0, 1))):
        with pytest.raises(StructureError, match=r"transition 't' arity \d != 2 places"):
            PetriNet(("p", "q"), (t,))


def test_halfspace_contains_and_json():
    hs = HalfSpace((3, 2), 9)
    assert hs.contains((3, 1))
    assert not hs.contains((0, 4))
    assert_document(document(HalfSpace((-1, 0, 2), -5)), {"k": [-1, 0, 2], "c": -5})


def test_instance_validation():
    net = PetriNet(("p",), (Transition("t", (0,), (1,)),))
    with pytest.raises(StructureError):
        Instance(net, (0, 0), (1,), Mode.REACH)
    with pytest.raises(StructureError):
        Instance(net, (-1,), (1,), Mode.REACH)


def test_empty_vectors_are_valid_and_count_as_both_signs():
    """A net without places: every vector is empty, and k = () is both
    k >= 0 and k <= 0 but not mixed."""
    t = Transition("t", (), ())
    assert t.delta == ()
    inst = Instance(PetriNet((), (t,)), (), (), Mode.COVER)
    assert Instance(PetriNet((), ()), (), ()).net.n == 0
    verdict = verify_separator(inst, HalfSpace((), 0))
    assert (verdict.init_inside, verdict.final_outside, verdict.cover_nonpositive) == (
        True, False, True)
    assert is_mixed(()) is False
    flags = TrivialFlags(oriented=True, monotone=False, antitone=True)
    for check in (check_transition, oracle_check_transition):
        r = check((), 1, t)
        assert (r.inductive, r.flags, r.witness) == (True, flags, None)
    assert generate_constants((), t) == IntervalSet.all()
    assert generate_constants((), t, (2, 5)) == IntervalSet.between(2, 5)


def test_verify_separator_running_example():
    inst = two_place_instance()
    good = verify_separator(inst, HalfSpace((3, 2), 9))
    assert good.init_inside and good.final_outside
    assert good.cover_nonpositive is None
    assert good.ok and good.failures() == []

    off = verify_separator(inst, HalfSpace((3, 2), 12))
    assert not off.init_inside and not off.ok
    assert any("initial" in f for f in off.failures())

    for k in ((3,), (3, 2, 1)):
        with pytest.raises(StructureError, match="arity"):
            verify_separator(inst, HalfSpace(k, 9))


def test_verify_separator_cover_sign():
    inst = two_place_instance(Mode.COVER)
    mixed = verify_separator(inst, HalfSpace((3, -2), 2))
    assert mixed.cover_nonpositive is False
    assert not mixed.ok

    neg = verify_separator(inst, HalfSpace((-1, -2), -9))
    assert neg.cover_nonpositive is True


def test_separator_verdict_json_round_trip():
    # cover mode writes the sign check; reach mode writes null (test_records)
    inst = two_place_instance(Mode.COVER)
    assert_document(
        document(verify_separator(inst, HalfSpace((3, -2), 2))),
        {"init_inside": True, "final_outside": True, "cover_nonpositive": False},
    )
    assert_document(
        document(verify_separator(inst, HalfSpace((-1, -2), -9))),
        {"init_inside": True, "final_outside": False, "cover_nonpositive": True},
    )


def test_bounded_explore_running_example_cannot_terminate(two_place):
    # transition v pumps tokens forever, so the frontier never empties
    report = bounded_explore(two_place, max_states=2_000)
    assert report.outcome is ExplorationOutcome.INCONCLUSIVE
    assert report.steps_to_target is None
    assert report.states_visited == 2_000


def test_bounded_explore_not_reached_on_finite_state_space():
    net = PetriNet(("p", "q"), (Transition("t", (1, 0), (0, 1)),))
    inst = Instance(net, (2, 0), (2, 2), Mode.REACH)
    report = bounded_explore(inst, max_states=100)
    assert report.outcome is ExplorationOutcome.NOT_REACHED
    assert report.steps_to_target is None
    assert report.states_visited == 3  # (2,0), (1,1), (0,2)


def test_bounded_explore_reached_counts_steps():
    net = PetriNet(("p",), (Transition("t", (0,), (1,)),))
    inst = Instance(net, (0,), (3,), Mode.REACH)
    report = bounded_explore(inst, max_states=100)
    assert report.outcome is ExplorationOutcome.REACHED
    assert report.steps_to_target == 3


def test_bounded_explore_cover_accepts_dominating_marking():
    inst = two_place_instance(Mode.COVER)
    report = bounded_explore(inst, max_states=10_000)
    # (0, 4) is coverable even though it is not reachable exactly.
    assert report.outcome is ExplorationOutcome.REACHED


def test_bounded_explore_budget_gives_inconclusive():
    net = PetriNet(("p",), (Transition("t", (0,), (1,)),))
    inst = Instance(net, (0,), (1000,), Mode.REACH)
    report = bounded_explore(inst, max_states=5)
    assert report.outcome is ExplorationOutcome.INCONCLUSIVE
    with pytest.raises(StructureError):
        bounded_explore(inst, max_states=0)


def test_bounded_explore_refuses_a_budget_that_is_not_an_integer():
    inst = random_instance(1)
    for budget in (10.0, 1.5, float("nan"), "10"):
        message = f"exploration budget must be an integer, not {budget!r}"
        with pytest.raises(TypeError, match=re.escape(message)):
            bounded_explore(inst, budget)
    # bool is an int: True is a budget of one state
    pump = Instance(PetriNet(("p",), (Transition("t", (0,), (1,)),)), (0,), (1000,))
    assert bounded_explore(pump, True) == bounded_explore(pump, 1)
    assert bounded_explore(pump, True).states_visited == 1


def reference_bfs(inst, max_states):
    """Tuple breadth-first search with bounded_explore's order and report,
    and the depth of the last marking it generated."""

    def hits(m):
        if inst.mode is Mode.COVER:
            return all(a >= b for a, b in zip(m, inst.m_final))
        return m == inst.m_final

    if hits(inst.m_init):
        return ExplorationOutcome.REACHED, 1, 0, 0
    moves = [(t.pre, t.delta) for t in inst.net.transitions]
    seen = {inst.m_init}
    frontier = deque([(inst.m_init, 0)])
    deepest = 0
    while frontier:
        m, depth = frontier.popleft()
        for pre, delta in moves:
            if any(a < p for a, p in zip(m, pre)):
                continue
            m2 = tuple(a + d for a, d in zip(m, delta))
            if m2 in seen:
                continue
            deepest = depth + 1
            if hits(m2):
                return ExplorationOutcome.REACHED, len(seen) + 1, deepest, deepest
            seen.add(m2)
            if len(seen) >= max_states:
                return ExplorationOutcome.INCONCLUSIVE, max_states, None, deepest
            frontier.append((m2, deepest))
    return ExplorationOutcome.NOT_REACHED, len(seen), None, deepest


def reference_explore(inst, max_states):
    return reference_bfs(inst, max_states)[:3]


def with_self_loops(rng, inst):
    """inst with one to three transitions that change no place (pre == post)
    put in among its own."""
    transitions = list(inst.net.transitions)
    for j in range(rng.randint(1, 3)):
        flow = tuple(rng.randint(0, 3) for _ in inst.net.places)
        transitions.insert(rng.randint(0, len(transitions)), Transition(f"loop{j}", flow, flow))
    return Instance(PetriNet(inst.net.places, transitions), inst.m_init, inst.m_final, inst.mode)


def test_bounded_explore_matches_tuple_reference():
    # Up to 40 transitions: bounded_explore writes out the steps of at most
    # 16 moves and loops over chunks of 16 beyond that, so these nets meet
    # both shapes, with and without a remainder after the chunks.
    rng = random.Random(2024)
    outcomes = set()
    for _ in range(400):
        inst = random_instance(
            rng.randrange(10**9),
            places=rng.randint(1, 4),
            transitions=rng.randint(0, 40),
            max_flow=rng.choice((1, 2, 4, 10, 1000)),
            max_marking=rng.choice((0, 4, 100, 10**6)),
            mode=rng.choice((Mode.REACH, Mode.COVER)),
        )
        if rng.random() < 0.25:
            inst = with_self_loops(rng, inst)
        budget = rng.choice((1, 2, 5, 50, 500))
        r = bounded_explore(inst, max_states=budget)
        got = (r.outcome, r.states_visited, r.steps_to_target)
        assert got == reference_explore(inst, budget), (inst, budget)
        outcomes.add(r.outcome)
    assert outcomes == set(ExplorationOutcome)


def test_inconclusive_exploration_reports_exactly_the_budget():
    budgets = set()
    for seed in range(200):
        inst = random_instance(seed, places=2)
        for budget in range(1, 6):
            r = bounded_explore(inst, max_states=budget)
            if r.outcome is ExplorationOutcome.INCONCLUSIVE:
                assert r.states_visited == budget, (seed, budget)
                budgets.add(budget)
    assert budgets == {1, 2, 3, 4, 5}


def test_bounded_explore_without_transitions_stops_at_once():
    net = PetriNet(("p", "q"), ())
    inst = Instance(net, (1, 2), (2, 1), Mode.REACH)
    report = bounded_explore(inst, max_states=10)
    assert report.outcome is ExplorationOutcome.NOT_REACHED
    assert report.states_visited == 1


def test_bounded_explore_zero_pre_is_always_enabled():
    net = PetriNet(("p", "q"), (Transition("t", (0, 0), (0, 1)),))
    inst = Instance(net, (0, 0), (0, 7), Mode.REACH)
    report = bounded_explore(inst, max_states=100)
    assert report.outcome is ExplorationOutcome.REACHED
    assert report.steps_to_target == 7
    assert report.states_visited == 8


def test_bounded_explore_pre_far_above_every_marking_never_fires():
    # pre (10**6) exceeds every marking, so a field too narrow for it would
    # borrow from the next place and report the transition enabled.
    net = PetriNet(("p", "q"), (Transition("t", (10**6, 0), (0, 1)),))
    inst = Instance(net, (3, 0), (0, 1), Mode.COVER)
    report = bounded_explore(inst, max_states=100)
    assert report.outcome is ExplorationOutcome.NOT_REACHED
    assert report.states_visited == 1


def test_bounded_explore_places_of_very_different_magnitude():
    # t moves 10**9 tokens from p to q and one token from r to s.
    t = Transition("t", (10**9, 0, 1, 0), (0, 10**9, 0, 1))
    net = PetriNet(("p", "q", "r", "s"), (t,))
    inst = Instance(net, (3 * 10**9, 5, 2, 0), (10**9, 2 * 10**9 + 5, 0, 2), Mode.REACH)
    report = bounded_explore(inst, max_states=100)
    assert report.outcome is ExplorationOutcome.REACHED
    assert report.steps_to_target == 2
    cover = Instance(net, inst.m_init, (0, 3 * 10**9, 0, 0), Mode.COVER)
    report = bounded_explore(cover, max_states=100)
    assert report.outcome is ExplorationOutcome.NOT_REACHED
    assert report.states_visited == 3


def test_bounded_explore_huge_budget_on_finite_net():
    net = PetriNet(("p", "q"), (Transition("t", (1, 0), (0, 1)),))
    inst = Instance(net, (2, 0), (0, 3), Mode.REACH)
    report = bounded_explore(inst, max_states=10**12)
    assert report.outcome is ExplorationOutcome.NOT_REACHED
    assert report.states_visited == 3


def one_digit_horizon(inst):
    """The first pass's horizon, restated: the most firings from m_init
    whose markings, one guard bit above each place's value, fit one digit
    of a Python int; None where bounded_explore runs a single pass."""
    grow = max((x for t in inst.net.transitions for x in t.delta), default=0)
    if grow <= 0:
        return None
    top = max(*inst.m_init, *inst.m_final, *(x for t in inst.net.transitions for x in t.pre))
    field_bits = sys.int_info.bits_per_digit // inst.net.n
    horizon = ((1 << (field_bits - 1)) - 1 - top) // grow if field_bits else 0
    return horizon if horizon >= 1 else None


def horizon_cases():
    """3-place nets: fixed ones whose breadth-first search runs past the
    horizon, two that bounded_explore searches in one pass, and seeded
    random ones with about a horizon's worth of tokens."""
    guard = 1 << (sys.int_info.bits_per_digit // 3 - 1)  # a field's guard bit
    n = guard * 3 // 4  # tokens of a chain that crosses the horizon
    move = Transition("move", (1, 0, 0), (0, 1, 0))
    pump = Transition("pump", (0, 0, 0), (1, 0, 0))
    drain = (Transition("drain-p", (1, 0, 0), (0, 0, 0)), Transition("drain-q", (0, 1, 0), (0, 0, 0)))
    places = ("p", "q", "r")
    nets = [
        (PetriNet(places, (move,)), (n, 0, 0), (0, n, 0)),  # reached at depth n
        (PetriNet(places, (move,)), (n, 0, 0), (0, 0, 1)),  # n + 1 markings, none hits
        # past the budget; a carry out of p's field would read as q's token
        (PetriNet(places, (pump,)), (0, 0, 0), (0, 1, 0)),
        (PetriNet(places, drain), (2 * guard, 1, 0), (0, 0, 0)),  # grow == 0
        (PetriNet(places, (move,)), (2 * guard, 0, 0), (0, 2 * guard, 0)),  # top > guard
    ]
    rng = random.Random(25)
    for _ in range(12):
        inst = random_instance(rng.randrange(10**9), max_flow=2,
                               max_marking=rng.choice((guard // 2, guard)))
        nets.append((inst.net, inst.m_init, inst.m_final))
    return [Instance(net, m0, mf, mode) for net, m0, mf in nets for mode in Mode]


def test_bounded_explore_matches_reference_past_the_one_digit_horizon():
    crossed = set()
    single_pass = 0
    for inst in horizon_cases():
        horizon = one_digit_horizon(inst)
        for budget in (1, 2, 4000):
            r = bounded_explore(inst, max_states=budget)
            *expected, deepest = reference_bfs(inst, budget)
            assert (r.outcome, r.states_visited, r.steps_to_target) == tuple(expected), (
                inst, budget)
            if horizon is None:
                single_pass += 1
            elif horizon < deepest:
                crossed.add((inst.mode, r.outcome))
    assert crossed == {(mode, outcome) for mode in Mode for outcome in ExplorationOutcome}
    assert single_pass >= 2 * 2 * 3  # the last two fixed nets, both modes, every budget
