"""Synthesis loop: outcomes, budgets, refinement, certification."""

import itertools
import shutil

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
    SynthesisResult,
    SynthesisStats,
    Transition,
    certify,
    check_net,
    constants_for_instance,
    nontrivial_certificate,
    nontrivial_net,
    random_instance,
    synthesize,
    verify_separator,
)
from petrisep import solver as solver_module
from petrisep.cegar import initial_bound
from petrisep.formula import is_multiple_of
from petrisep.solver import SolverNotFoundError

from conftest import two_place_instance


def test_loop_budget_validation():
    LoopBudget()
    with pytest.raises(ValueError):
        LoopBudget(max_iterations=0)
    with pytest.raises(ValueError):
        LoopBudget(max_seconds=0)
    with pytest.raises(ValueError):
        LoopBudget(max_bound=0)


def test_initial_bound_covers_instance_entries():
    assert initial_bound(two_place_instance()) == 10
    big = Instance(
        PetriNet(("p",), (Transition("t", (25,), (0,)),)), (30,), (0,), Mode.REACH
    )
    assert initial_bound(big) == 30


def test_stats_json_round_trip():
    stats = SynthesisStats(3, 17, 0.5, 20, False, ((1, -2), (3, 4)))
    assert SynthesisStats.from_json(stats.to_json()) == stats


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
    assert result.stats.solver_queries > 0
    assert result.stats.wall_seconds >= 0


def test_synthesize_result_json_round_trip(two_place):
    result = synthesize(two_place)
    again = SynthesisResult.from_json(result.to_json())
    assert again == result


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


def test_minimize_toggle_does_not_change_verdicts(two_place):
    for cfg in (SolverConfig(), SolverConfig(minimize=False)):
        result = synthesize(two_place, cfg)
        assert result.outcome is Outcome.FOUND
        assert verify_separator(two_place, result.halfspace).ok
        assert check_net(two_place.net, result.halfspace).inductive


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


@pytest.mark.skipif(shutil.which("z3") is None, reason="no native z3 to compare with")
def test_builtin_backend_agrees_with_z3(monkeypatch):
    net = PetriNet(("p", "q"), (Transition("t", (1, 0), (0, 1)),))
    instances = [
        two_place_instance(),
        two_place_instance(Mode.COVER),
        nontrivial_net(3),
        Instance(net, (2, 2), (2, 2), Mode.REACH),
        Instance(PetriNet(("p", "q"), ()), (1, 0), (0, 1), Mode.REACH),
    ]
    native = [synthesize(inst, SolverConfig(command=("z3", "-in"))) for inst in instances]

    def no_external_solver():
        raise SolverNotFoundError("hidden for this test")

    monkeypatch.setattr(solver_module, "discover_solver", no_external_solver)
    for inst, theirs in zip(instances, native):
        for cfg in (SolverConfig(), SolverConfig(minimize=False)):
            ours = synthesize(inst, cfg)
            assert ours.outcome is theirs.outcome
            if ours.outcome is Outcome.FOUND:
                assert certify(inst, ours.halfspace).ok


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
    report = certify(two_place, HalfSpace((3, 2), 9))
    from petrisep import CertificateReport

    assert CertificateReport.from_json(report.to_json()) == report
