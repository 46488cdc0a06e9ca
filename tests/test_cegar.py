"""Synthesis loop: outcomes, budgets, refinement, certification."""

import dataclasses
import itertools
import random
import shutil
from collections import Counter

import pytest

from petrisep import (
    HalfSpace,
    Instance,
    LoopBudget,
    Mode,
    Outcome,
    PetriNet,
    SmtSession,
    SolverConfig,
    SynthesisStats,
    Transition,
    bounded_explore,
    certify,
    check_net,
    constants_for_instance,
    dot,
    nontrivial_certificate,
    nontrivial_net,
    random_instance,
    synthesize,
    verify_separator,
)
from petrisep import cegar, exact
from petrisep import solver as solver_module
from petrisep.net import ExplorationOutcome
from petrisep.solver import SolverNotFoundError, SolverTimeoutError

from conftest import (
    ahead_clock,
    assert_document,
    backward_coverable,
    document,
    fake_smt_command,
    is_multiple_of,
    two_place_instance,
)


def test_loop_budget_validation():
    LoopBudget()
    with pytest.raises(ValueError):
        LoopBudget(max_iterations=0)
    with pytest.raises(ValueError):
        LoopBudget(max_seconds=0)
    with pytest.raises(ValueError):
        LoopBudget(max_seconds=float("nan"))  # nan <= 0 is False
    with pytest.raises(ValueError):
        LoopBudget(max_bound=0)


def test_loop_budget_refuses_a_fractional_count():
    # 2.5 iterations used to allow 3 candidates, and a 2.5 box acted as 2
    with pytest.raises(TypeError, match=r"iteration budget must be an integer, not 2\.5"):
        LoopBudget(max_iterations=2.5)
    with pytest.raises(TypeError, match=r"bound cap must be an integer, not 2\.5"):
        LoopBudget(max_bound=2.5)
    with pytest.raises(TypeError, match="iteration budget must be an integer, not nan"):
        LoopBudget(max_iterations=float("nan"))
    assert LoopBudget(max_iterations=True, max_bound=True) == LoopBudget(1, 300.0, 1)
    assert LoopBudget(max_iterations=2, max_bound=None).max_bound is None


def test_stats_json_round_trip():
    # examined is a list of vectors, empty when no candidate was examined
    assert_document(
        document(SynthesisStats(3, 17, 0.5, False, ((1, -2), (3, 4)))),
        {"iterations": 3, "solver_queries": 17, "wall_seconds": 0.5, "fast_path": False,
         "examined": [[1, -2], [3, 4]]},
    )
    assert_document(
        document(SynthesisStats(0, 1, 0.25, True, ())),
        {"iterations": 0, "solver_queries": 1, "wall_seconds": 0.25, "fast_path": True,
         "examined": []},
    )


def test_synthesize_running_example(two_place):
    result = synthesize(two_place)
    assert result.outcome is Outcome.FOUND
    hs = result.halfspace
    assert hs is not None
    assert result.separator.ok
    assert result.inductivity.inductive
    # independent re-check, not trusting the stored verdicts
    assert verify_separator(two_place, hs).ok
    assert check_net(two_place.net, hs).inductive
    # the fast-path probe, then one check per candidate and no other query
    assert not result.stats.fast_path and result.stats.iterations == 5
    assert result.stats.solver_queries == result.stats.iterations + 1
    assert result.stats.wall_seconds >= 0


def test_candidates_are_examined_in_order_of_least_absolute_sum():
    # each check returns the least sum |k(i)| under a growing set of
    # exclusions, so the sums never fall, even past a large single entry
    result = synthesize(random_instance(819), budget=LoopBudget(max_iterations=40))
    assert result.outcome is Outcome.EXHAUSTED
    sums = [sum(map(abs, k)) for k in result.stats.examined]
    assert len(sums) == 40
    assert sums == sorted(sums)


def test_synthesize_result_json_round_trip(two_place):
    # the document `petrisep synthesize --json` writes (tests/cli_json.golden)
    doc = document(synthesize(two_place))
    assert isinstance(doc["stats"]["wall_seconds"], float)
    doc["stats"]["wall_seconds"] = "<wall>"
    assert_document(doc, {
        "outcome": "found",
        "halfspace": {"k": [3, 2], "c": 9},
        "separator": {"init_inside": True, "final_outside": True, "cover_nonpositive": None},
        "transitions": [
            {"transition": "t", "inductive": True, "oriented": False, "monotone": False,
             "antitone": False, "witness": None, "witness_value": None, "sums_explored": 1},
            {"transition": "u", "inductive": True, "oriented": True, "monotone": False,
             "antitone": False, "witness": None, "witness_value": None, "sums_explored": 0},
            {"transition": "v", "inductive": True, "oriented": True, "monotone": False,
             "antitone": False, "witness": None, "witness_value": None, "sums_explored": 0},
        ],
        "stats": {"iterations": 5, "solver_queries": 6, "wall_seconds": "<wall>",
                  "fast_path": False, "examined": [[1, 0], [0, -1], [2, 1], [3, 1], [3, 2]]},
    })


def test_synthesize_cover_mode_on_coverable_target_refutes():
    # (0, 4) is coverable from (3, 1), so no certificate can exist.
    result = synthesize(two_place_instance(Mode.COVER))
    assert result.outcome is Outcome.NO_SEPARATOR
    assert result.halfspace is None


def test_synthesize_reports_no_separator_when_target_equals_start():
    net = PetriNet(("p", "q"), (Transition("t", (1, 0), (0, 1)),))
    inst = Instance(net, (2, 2), (2, 2), Mode.REACH)
    result = synthesize(inst)
    assert result.outcome is Outcome.NO_SEPARATOR


def test_synthesize_net_without_transitions_uses_fast_path():
    net = PetriNet(("p", "q"), ())
    inst = Instance(net, (1, 0), (0, 1), Mode.REACH)
    result = synthesize(inst)
    assert result.outcome is Outcome.FOUND
    assert result.stats.fast_path
    assert result.stats.iterations <= 1


def test_synthesize_nontrivial_family_member():
    inst = nontrivial_net(3)
    result = synthesize(inst)
    assert result.outcome is Outcome.FOUND
    assert not result.stats.fast_path  # no trivial separator exists
    assert check_net(inst.net, result.halfspace).inductive
    assert verify_separator(inst, result.halfspace).ok


def test_one_synthesis_opens_one_solver_problem(monkeypatch):
    begins = []
    plain_begin = SmtSession.begin
    monkeypatch.setattr(
        SmtSession, "begin", lambda self, n: begins.append(n) or plain_begin(self, n)
    )
    fast = random_instance(3, places=2)
    for inst, fast_path in ((nontrivial_net(3), False), (fast, True)):
        begins.clear()
        result = synthesize(inst)
        assert result.outcome is Outcome.FOUND
        assert result.stats.fast_path is fast_path
        assert begins == [inst.net.n]


def test_fast_path_is_one_scoped_probe_of_the_external_solver(tmp_path):
    # (1, 0) satisfies the trivial formula; the capped probe below it is unsat
    log = tmp_path / "fake.log"
    cfg = SolverConfig(command=fake_smt_command(log, "--models", "1,0"))
    result = synthesize(random_instance(3, places=2), cfg)
    assert result.outcome is Outcome.FOUND and result.stats.fast_path
    assert result.halfspace == HalfSpace((1, 0), 2)
    assert result.stats.solver_queries == 1
    assert log.read_text().split() == ["spawn"] + ["check-sat"] * 2


def test_fast_path_vector_without_a_threshold_is_an_internal_error(tmp_path, monkeypatch):
    # A model of the trivial formula always has a threshold; if the
    # generator ever disagreed, synthesis must not go on as if it were
    # an ordinary failed candidate.
    monkeypatch.setenv("PATH", str(tmp_path))  # hides any native z3
    inst = random_instance(1, mode=Mode.COVER)
    assert synthesize(inst).stats.fast_path
    real = cegar.constants_for_instance

    def no_threshold(inst, k):
        return dataclasses.replace(real(inst, k), chosen=None)

    monkeypatch.setattr(cegar, "constants_for_instance", no_threshold)
    with pytest.raises(RuntimeError, match="internal error: fast-path k="):
        synthesize(inst)


def test_candidate_failing_certify_is_an_internal_error(tmp_path, monkeypatch):
    # Synthesis re-verifies its threshold with certify, as `petrisep check`
    # does; a threshold that leaves m_init outside must never come back.
    monkeypatch.setenv("PATH", str(tmp_path))  # hides any native z3
    inst = random_instance(1, mode=Mode.COVER)
    real = cegar.constants_for_instance

    def past_m_init(inst, k):
        return dataclasses.replace(real(inst, k), chosen=dot(k, inst.m_init) + 1)

    monkeypatch.setattr(cegar, "constants_for_instance", past_m_init)
    with pytest.raises(RuntimeError, match=r"internal error: candidate k=.* failed re-verif"):
        synthesize(inst)


def test_examined_candidates_are_primitive_and_pairwise_not_multiples():
    inst = nontrivial_net(3)
    result = synthesize(inst)
    seen = result.stats.examined
    assert seen, "loop should have examined at least one candidate"
    from math import gcd

    for k in seen:
        assert gcd(*k) == 1
    for i, a in enumerate(seen):
        for b in seen[i + 1 :]:
            assert not is_multiple_of(b, a), (a, b)


def test_shared_session_is_reused_across_calls(two_place):
    cfg = SolverConfig()
    with SmtSession(cfg) as session:
        r1 = synthesize(two_place, cfg, session=session)
        r2 = synthesize(nontrivial_net(3), cfg, session=session)
        assert r1.outcome is Outcome.FOUND
        assert r2.outcome is Outcome.FOUND
        assert session.queries >= r1.stats.solver_queries + r2.stats.solver_queries


def test_budget_exhaustion_is_reported():
    # A reachable target: candidates keep failing until the iteration
    # budget runs out or the formula itself becomes unsatisfiable.
    net = PetriNet(
        ("p", "q"),
        (Transition("a", (1, 0), (0, 1)), Transition("b", (0, 1), (1, 0))),
    )
    inst = Instance(net, (1, 0), (0, 1), Mode.REACH)
    result = synthesize(inst, budget=LoopBudget(max_iterations=1, max_seconds=20))
    assert result.outcome in (Outcome.EXHAUSTED, Outcome.NO_SEPARATOR)
    assert result.halfspace is None


def test_bound_cap_ends_the_search_as_exhausted():
    # nontrivial_net(3)'s least certificate, (-3, -3, -2), needs |k(i)| = 3
    inst = nontrivial_net(3)
    capped = synthesize(inst, budget=LoopBudget(max_bound=2))
    assert capped.outcome is Outcome.EXHAUSTED
    assert capped.halfspace is None
    found = synthesize(inst, budget=LoopBudget(max_bound=3))
    assert found.outcome is Outcome.FOUND
    assert max(map(abs, found.halfspace.k)) <= 3
    assert certify(inst, found.halfspace).ok


@pytest.mark.parametrize(
    "seed, places, mode, bound",
    [(0, 2, Mode.REACH, 2), (11, 3, Mode.REACH, 3), (17, 2, Mode.REACH, 1),
     (19, 3, Mode.COVER, 1), (25, 3, Mode.REACH, 4)],
)
def test_bound_cap_boxes_the_fast_path_probe(seed, places, mode, bound, tmp_path, monkeypatch):
    # Each instance's fast-path certificate lies outside the box, and no
    # certificate lies inside it.
    monkeypatch.setenv("PATH", str(tmp_path))  # hides any native z3
    inst = random_instance(seed, places=places, mode=mode)
    free = synthesize(inst)
    assert free.outcome is Outcome.FOUND and free.stats.fast_path
    assert max(map(abs, free.halfspace.k)) > bound
    capped = synthesize(inst, budget=LoopBudget(max_bound=bound))
    assert capped.outcome is Outcome.EXHAUSTED
    assert capped.halfspace is None


def test_bound_cap_holds_every_certificate_of_rand240(tmp_path, monkeypatch):
    # rand240's instances (see below) under boxes of 1, 2 and 3
    monkeypatch.setenv("PATH", str(tmp_path))  # hides any native z3
    table = Counter()
    cfg = SolverConfig()
    with SmtSession(cfg) as session:
        for seed, places, mode, bound in itertools.product(range(40), (2, 3, 4), Mode, (1, 2, 3)):
            inst = random_instance(seed, places=places, mode=mode)
            budget = LoopBudget(max_iterations=30, max_bound=bound)
            result = synthesize(inst, cfg, budget, session=session)
            table[result.outcome.value, bound] += 1
            if result.outcome is Outcome.FOUND:
                assert max(map(abs, result.halfspace.k)) <= bound, (seed, places, mode, bound)
    assert table == {
        ("found", 1): 168, ("no-separator", 1): 58, ("exhausted", 1): 14,
        ("found", 2): 170, ("no-separator", 2): 58, ("exhausted", 2): 12,
        ("found", 3): 172, ("no-separator", 3): 58, ("exhausted", 3): 10,
    }


def test_builtin_backend_deadline_raises_timeout(tmp_path, monkeypatch):
    # an empty PATH hides any native z3; the search's clock reads a second
    # ahead of the session's, so every query's 20 ms deadline has passed
    monkeypatch.setenv("PATH", str(tmp_path))
    ahead_clock(monkeypatch)
    with pytest.raises(SolverTimeoutError, match="built-in backend ran out of time"):
        synthesize(nontrivial_net(6), SolverConfig(timeout_ms=20))


def test_builtin_search_effort_on_nontrivial_net_6(tmp_path, monkeypatch):
    # Exactly 1,493 search nodes here, so a change to the search order
    # shows. Options that the orthant's sign atoms already imply, or
    # k(i) = 0 written as an equality, make it about twelve times as many.
    monkeypatch.setenv("PATH", str(tmp_path))  # hides any native z3
    node, nodes = exact._Search._node, [0]

    def counted(self, *args):
        nodes[0] += 1
        return node(self, *args)

    monkeypatch.setattr(exact._Search, "_node", counted)
    result = synthesize(nontrivial_net(6))
    assert result.outcome is Outcome.FOUND
    assert result.halfspace == HalfSpace((-3, -3, -3, -3, -3, -2), -18)
    assert (result.stats.iterations, result.stats.solver_queries) == (9, 10)
    assert nodes[0] == 1_493


def test_no_separator_is_never_answered_when_a_box_certificate_exists():
    # A brute-force search over a box finds any workable k (one that some
    # threshold c turns into a certificate); synthesis may then run out of
    # budget, but must never claim that no separator exists.
    verdicts = {}
    for (places, radius), mode, seed in itertools.product(
        ((2, 4), (3, 3)), Mode, range(100)
    ):
        inst = random_instance(seed, places=places, mode=mode)
        workable = any(
            any(k) and constants_for_instance(inst, k).chosen is not None
            for k in itertools.product(range(-radius, radius + 1), repeat=places)
        )
        result = synthesize(inst, budget=LoopBudget(max_iterations=10))
        if workable:
            assert result.outcome is not Outcome.NO_SEPARATOR, (places, mode, seed)
        if result.outcome is Outcome.FOUND:
            assert certify(inst, result.halfspace).ok, (places, mode, seed)
        key = (workable, result.outcome)
        verdicts[key] = verdicts.get(key, 0) + 1
    # both sides of the claim are exercised
    assert verdicts.get((True, Outcome.FOUND), 0) > 100
    assert verdicts.get((False, Outcome.NO_SEPARATOR), 0) > 50


def test_bfs_hard_sample_certificates_hold(tmp_path, monkeypatch):
    # bfs-hard: random_instance seeds below 7,547 (criterion 10's scan
    # range) whose target bounded_explore(4000) leaves undecided. A fixed
    # draw of 150 seeds, synthesized in one shared built-in session.
    monkeypatch.setenv("PATH", str(tmp_path))  # hides any native z3
    seeds = random.Random(7547).sample(range(7547), 150)
    hard = [
        inst
        for inst in map(random_instance, seeds)
        if bounded_explore(inst, max_states=4000).outcome is ExplorationOutcome.INCONCLUSIVE
    ]
    outcomes = Counter()
    cfg = SolverConfig()
    with SmtSession(cfg) as session:
        for inst in hard:
            result = synthesize(inst, cfg, LoopBudget(max_iterations=40), session=session)
            outcomes[result.outcome.value, result.stats.fast_path] += 1
            if result.outcome is Outcome.FOUND:
                assert certify(inst, result.halfspace).ok, inst
                explored = bounded_explore(inst, max_states=20_000)
                assert explored.outcome is not ExplorationOutcome.REACHED, inst
    # (outcome, fast path) over the 46 hard instances of the 150
    assert len(hard) == 46
    assert outcomes == {
        ("found", True): 40,
        ("no-separator", False): 4,
        ("exhausted", False): 2,
    }


def test_rand240_outcomes_against_backward_coverability(tmp_path, monkeypatch):
    # rand240: seeds 0-39, 2-4 places, both modes, joined with whether the
    # target is coverable, by the backward search over minimal bases.
    monkeypatch.setenv("PATH", str(tmp_path))  # hides any native z3
    table = Counter()
    incomplete = []
    cfg = SolverConfig()
    with SmtSession(cfg) as session:
        for seed, places, mode in itertools.product(range(40), (2, 3, 4), Mode):
            inst = random_instance(seed, places=places, mode=mode)
            result = synthesize(inst, cfg, LoopBudget(max_iterations=30), session=session)
            cover = Instance(inst.net, inst.m_init, inst.m_final, Mode.COVER)
            coverable = backward_coverable(cover)
            assert coverable is not None, (seed, places)
            table[mode.value, result.outcome.value, coverable] += 1
            if mode is Mode.COVER:
                # soundness: no certificate for a coverable target
                assert not (result.outcome is Outcome.FOUND and coverable), (seed, places)
                explored = bounded_explore(inst, max_states=4000).outcome
                if explored is ExplorationOutcome.REACHED:
                    assert coverable, (seed, places)
                if explored is ExplorationOutcome.NOT_REACHED:
                    assert not coverable, (seed, places)
                if result.outcome is Outcome.NO_SEPARATOR and not coverable:
                    incomplete.append((seed, places))
    assert table == {
        ("cover", "found", False): 72,
        ("cover", "no-separator", True): 45,
        ("cover", "no-separator", False): 1,
        ("cover", "exhausted", True): 2,
        ("reach", "found", True): 33,
        ("reach", "found", False): 73,
        ("reach", "no-separator", True): 12,
        ("reach", "exhausted", True): 2,
    }
    # The one uncoverable no-separator is the method's incompleteness, not
    # a wrong proof: no k <= 0 in a box gets a workable threshold.
    assert incomplete == [(38, 3)]
    inst = random_instance(38, places=3, mode=Mode.COVER)
    for k in itertools.product(range(-12, 1), repeat=3):
        assert not any(k) or constants_for_instance(inst, k).chosen is None, k


@pytest.mark.skipif(shutil.which("z3") is None, reason="no native z3 to compare with")
def test_builtin_backend_agrees_with_z3(monkeypatch):
    net = PetriNet(("p", "q"), (Transition("t", (1, 0), (0, 1)),))
    instances = [
        two_place_instance(),
        two_place_instance(Mode.COVER),
        nontrivial_net(3),
        Instance(net, (2, 2), (2, 2), Mode.REACH),
        Instance(PetriNet(("p", "q"), ()), (1, 0), (0, 1), Mode.REACH),
        # one per case of separator_formula: mixed k, k >= 0, k <= 0
        random_instance(2, places=2),
        random_instance(0, places=3),
        random_instance(1, places=3, mode=Mode.COVER),
    ]
    native = [synthesize(inst, SolverConfig(command=("z3", "-in"))) for inst in instances]

    def no_external_solver():
        raise SolverNotFoundError("hidden for this test")

    def l1(k):
        return sum(map(abs, k))

    monkeypatch.setattr(solver_module, "discover_solver", no_external_solver)
    for inst, theirs in zip(instances, native):
        ours = synthesize(inst, SolverConfig())
        assert ours.outcome is theirs.outcome
        if ours.outcome is Outcome.FOUND:
            assert certify(inst, ours.halfspace).ok
            # ties may differ, the least sum |k(i)| may not
            assert l1(ours.halfspace.k) == l1(theirs.halfspace.k), inst


def test_certify_accepts_known_certificate():
    inst = nontrivial_net(4)
    report = certify(inst, nontrivial_certificate(4))
    assert report.ok
    assert report.separator.ok
    assert report.inductivity.inductive
    assert all(v is True for _, v in report.oracle)


def test_certify_rejects_shifted_threshold(two_place):
    report = certify(two_place, HalfSpace((3, 2), 8))
    assert not report.ok
    assert not report.inductivity.inductive


def test_certify_oracle_budget_shows_as_none(two_place):
    report = certify(two_place, HalfSpace((3, 2), 9), oracle_points=1)
    assert report.separator.ok and report.inductivity.inductive
    assert any(v is None for _, v in report.oracle)
    assert report.ok  # budget exhaustion is not a refutation


def test_certificate_report_json_round_trip(two_place):
    # a failed certificate, with an oracle verdict the budget left open as null
    report = certify(two_place, HalfSpace((3, 2), 8), oracle_points=1)
    assert_document(document(report), {
        "separator": {"init_inside": True, "final_outside": False, "cover_nonpositive": None},
        "transitions": [
            {"transition": "t", "inductive": False, "oriented": False, "monotone": False,
             "antitone": False, "witness": [0, 0], "witness_value": 8, "sums_explored": 1},
            {"transition": "u", "inductive": True, "oriented": True, "monotone": True,
             "antitone": False, "witness": None, "witness_value": None, "sums_explored": 0},
            {"transition": "v", "inductive": True, "oriented": True, "monotone": True,
             "antitone": False, "witness": None, "witness_value": None, "sums_explored": 0},
        ],
        "oracle": [["t", None], ["u", True], ["v", True]],
        "ok": False,
    })
