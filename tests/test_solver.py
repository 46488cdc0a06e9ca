"""SMT session: parsing helpers, solver discovery, and exact answers."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from petrisep import Mode, SmtSession, SolverConfig, random_instance
from petrisep import solver as solver_module
from petrisep.constants import normalize_primitive
from petrisep.exact import _convert, _negate, solve
from petrisep.formula import (
    Atom,
    Conj,
    Disj,
    bound_constraint,
    evaluate,
    exclude_multiples,
    separator_formula,
)
from petrisep.solver import (
    SolverError,
    SolverNotFoundError,
    SolverParseError,
    SolverProcessError,
    SolverTimeoutError,
    SolverUnknownError,
    discover_solver,
    parse_model,
)

from conftest import eq, fake_smt_command

# -- offline helpers ----------------------------------------------------


def test_parse_model_reads_values_and_negatives():
    text = "((k0 3) (k1 (- 2)))"
    assert parse_model(text, ["k0", "k1"]) == (3, -2)
    # one pair per line, as z3 prints long answers, and loose spacing
    text = "((k0 3)\n (k1 (-  2))\n (k2 0))"
    assert parse_model(text, ["k0", "k1", "k2"]) == (3, -2, 0)
    assert parse_model("(  ( k1\n(-\t7 ) )( k0 12 ))", ["k0", "k1"]) == (12, -7)


@pytest.mark.parametrize(
    "text,message",
    [
        ("((k0 3) (k1 2)", "unbalanced"),
        ("((k0 3) (k1 2)))", "unbalanced"),
        (")(k0 3) (k1 2)(", "unbalanced"),
        ("((k0 3) (k1 (/ 1 2)))", r"values for \['k1'\]"),
        ("((k0 abc) (k1 2))", r"values for \['k0'\]"),
        ("((k0 3 4) (k1 2))", r"values for \['k0'\]"),
        ("((k0 3))", r"values for \['k1'\]"),
        ("", r"values for \['k0', 'k1'\]"),
    ],
)
def test_parse_model_rejects_what_it_cannot_read(text, message):
    with pytest.raises(SolverParseError, match=message):
        parse_model(text, ["k0", "k1"])


def test_discovery_finds_native_z3_or_leaves_the_builtin_backend(monkeypatch):
    # nothing on PATH: discovery raises and the built-in backend answers
    monkeypatch.setattr(solver_module.shutil, "which", lambda name: None)
    with pytest.raises(SolverNotFoundError):
        discover_solver()
    with SmtSession(SolverConfig()) as s:
        assert s.command is None
        s.begin(1)
        s.add(Atom((1,), 2))
        assert s.check() == (2,)
    monkeypatch.setattr(
        solver_module.shutil, "which", lambda name: "/usr/local/bin/z3" if name == "z3" else None
    )
    assert discover_solver() == ("/usr/local/bin/z3", "-in")


def test_config_validation():
    # the pipe waits in queue.get, which cannot wait past TIMEOUT_MAX seconds
    for timeout_ms in (0, -1, float("nan"), float("inf"), 10**21):
        with pytest.raises(ValueError, match="timeout"):
            SolverConfig(timeout_ms=timeout_ms)
    assert SolverConfig(timeout_ms=1).timeout_ms == 1
    # tuple("z3 -in") would spawn 'z'; the string fails here, not at spawn
    with pytest.raises(ValueError, match="sequence of arguments"):
        SolverConfig(command="z3 -in")
    assert SolverConfig(command=["z3", "-in"]).command == ("z3", "-in")


# -- the external pipe, against a scripted solver --------------------------

PROPORTION = [eq((2, -3), 0), Atom((1, 0), 1)]  # 2 k0 = 3 k1, k0 > 0


def fake_check(log, *fake_args, timeout_ms=15_000):
    """check() on PROPORTION through the fake solver; returns the model."""
    cfg = SolverConfig(command=fake_smt_command(log, *fake_args), timeout_ms=timeout_ms)
    with SmtSession(cfg) as s:
        s.begin(2)
        for f in PROPORTION:
            s.add(f)
        return s.check()


def test_external_pipe_minimizes_in_one_child(tmp_path):
    log = tmp_path / "fake.log"
    assert fake_check(log, "--models", "6,4", "3,2") == (3, 2)
    # (6,4), then caps 4 (unsat) and 7, all in the one child
    assert log.read_text().split() == ["spawn"] + ["check-sat"] * 3


def test_external_unknown_and_timeout_raise_after_one_spawn(tmp_path):
    log = tmp_path / "unknown.log"
    with pytest.raises(SolverUnknownError):
        fake_check(log, "--on-check", "unknown")
    assert log.read_text().split() == ["spawn", "check-sat"]

    # a hanging solver, and one that never echoes the sync marker back
    for name, fake_args in (("hang", ("--on-check", "hang")), ("no-echo", ("--no-echo",))):
        log = tmp_path / f"{name}.log"
        with pytest.raises(SolverTimeoutError):
            fake_check(log, *fake_args, timeout_ms=500)
        assert log.read_text().split().count("spawn") == 1, name


@pytest.mark.parametrize(
    "fake_args,message",
    [
        (("--on-check", "error"), "no sat/unsat answer"),
        (("--models", "6,4", "--get-value-error"), "get-value failed"),
    ],
)
def test_external_error_answer_is_a_process_error(tmp_path, fake_args, message):
    # an (error ...) line where the pipe waits for sat/unsat, or for the model
    log = tmp_path / "error.log"
    with pytest.raises(SolverProcessError, match=rf"^{message}: \['\(error "):
        fake_check(log, *fake_args)
    assert log.read_text().split() == ["spawn", "check-sat"]


def test_external_unknown_probe_keeps_the_incumbent(tmp_path):
    # the plain check finds (6,4); the first capped probe answers unknown
    log = tmp_path / "probe.log"
    assert fake_check(log, "--models", "6,4", "3,2", "--unknown-under-cap") == (6, 4)
    assert log.read_text().split() == ["spawn"] + ["check-sat"] * 2


def test_begin_resets_a_live_external_session(tmp_path):
    log = tmp_path / "reset.log"
    cfg = SolverConfig(command=fake_smt_command(log, "--models", "6,4", "3,2"))
    with SmtSession(cfg) as s:
        s.begin(2)
        for f in PROPORTION:
            s.add(f)
        # a cap at the base level outlives every pop; only (reset) clears it
        s._send(s._cap_assert(4))
        assert s.check() is None
        s.begin(2)
        for f in PROPORTION:
            s.add(f)
        assert s.check() == (3, 2)
    # one unsat check; then (6,4) and the probes at caps 4 (unsat) and 7
    assert log.read_text().split() == ["spawn"] + ["check-sat"] * 4


def test_external_solver_exit_reports_its_last_stderr_line(tmp_path):
    cfg = SolverConfig(command=fake_smt_command(tmp_path / "exit.log", "--on-check", "exit"))
    with SmtSession(cfg) as s:
        s.begin(2)
        for f in PROPORTION:
            s.add(f)
        # stderr shares the reader's pipe, so the line arrives before the EOF
        with pytest.raises(SolverProcessError, match="exiting mid-query") as exc:
            s.check()
        assert str(exc.value).startswith("solver exited unexpectedly\n")
        # the child is reaped, so a second check does not write to a dead pipe
        with pytest.raises(SolverProcessError, match="solver process is not running"):
            s.check()


def test_solver_killed_between_queries_fails_cleanly_until_begin(tmp_path):
    log = tmp_path / "killed.log"
    cfg = SolverConfig(command=fake_smt_command(log, "--models", "6,4", "3,2"))
    with SmtSession(cfg) as s:
        s.begin(2)
        for f in PROPORTION:
            s.add(f)
        assert s.check() == (3, 2)
        s._proc.kill()
        s._proc.wait()
        # the next write finds the pipe closed, and the session reaps the child
        with pytest.raises(SolverProcessError, match="^solver pipe closed"):
            s.add(PROPORTION[0])
        with pytest.raises(SolverProcessError, match="solver process is not running"):
            s.check()
        # a new problem starts a new child
        s.begin(2)
        for f in PROPORTION:
            s.add(f)
        assert s.check() == (3, 2)
        s.close()
        s.close()
    assert log.read_text().split() == (["spawn"] + ["check-sat"] * 3) * 2


def test_missing_solver_binary_fails_at_begin():
    with SmtSession(SolverConfig(command=("/nonexistent/solver",))) as s:
        with pytest.raises(SolverProcessError, match="cannot start solver"):
            s.begin(1)


def test_external_model_failing_reevaluation_is_refused(tmp_path):
    with pytest.raises(SolverParseError):
        fake_check(tmp_path / "bad.log", "--models", "1,1")


def test_add_before_begin_raises_on_both_backends(tmp_path, monkeypatch):
    monkeypatch.setattr(solver_module.shutil, "which", lambda name: None)
    log = tmp_path / "fake.log"
    pipe = fake_smt_command(log, "--models", "4")
    for cfg in (SolverConfig(), SolverConfig(pipe)):
        with SmtSession(cfg) as s:
            with pytest.raises(SolverError, match=r"call begin\(\) before add\(\)"):
                s.add(eq((1,), 4))
            with pytest.raises(SolverError, match=r"call begin\(\) before check\(\)"):
                s.check()
            with pytest.raises(ValueError, match="need at least one unknown"):
                s.begin(0)
            s.begin(1)
            s.add(eq((1,), 4))
            assert s.check() == (4,)
    # (4,), then the probes at caps 1, 2 and 3, all unsat
    assert log.read_text().split() == ["spawn"] + ["check-sat"] * 4


# -- solving ------------------------------------------------------------


def brute_force_models(formulas, n, radius):
    out = []
    for k in itertools.product(range(-radius, radius + 1), repeat=n):
        if all(evaluate(f, k) for f in formulas):
            out.append(k)
    return out


def test_check_sat_returns_a_satisfying_model():
    base = [Atom((1, 1), 7), eq((1, -1), 1)]
    with SmtSession(SolverConfig()) as s:
        s.begin(2)
        for f in base:
            s.add(f)
        model = s.check()
    assert model is not None
    assert all(evaluate(f, model) for f in base)


def test_check_unsat_returns_none():
    with SmtSession(SolverConfig()) as s:
        s.begin(1)
        s.add(eq((2,), 1))  # 2 k0 = 1 has no integer solution
        assert s.check() is None


def test_extra_formulas_are_scoped_to_one_call():
    with SmtSession(SolverConfig()) as s:
        s.begin(1)
        s.add(Atom((1,), 0))
        assert s.check([Atom((1,), 5), Atom((-1,), -5)]) == (5,)
        assert s.check([Atom((-1,), -3), Atom((1,), 3)]) == (3,)


def test_minimization_finds_smallest_absolute_sum():
    base = [Atom((1, 1), 7), bound_constraint(2, 30)]
    expected = min(
        sum(abs(x) for x in k) for k in brute_force_models(base, 2, 30)
    )
    with SmtSession(SolverConfig()) as s:
        s.begin(2)
        for f in base:
            s.add(f)
        model = s.check()
    assert sum(map(abs, model)) == expected == 7

    # Separator formulas of random instances, then the same with the
    # refinement that excludes their least model, all inside a box of
    # radius 4: sat vs. unsat and the least sum |k(i)| match brute force.
    # An unsat answer here is what becomes a no-separator verdict.
    outcomes = set()
    for seed, places, mode in itertools.product(range(4), (2, 3), Mode):
        inst = random_instance(seed, places=places, mode=mode)
        box = bound_constraint(places, 4)
        inputs = [[separator_formula(inst), box]]
        models = brute_force_models(inputs[0], places, 4)
        if models:
            least = min(models, key=lambda k: sum(map(abs, k)))
            inputs.append(inputs[0] + [exclude_multiples(normalize_primitive(least))])
        for formulas in inputs:
            models = brute_force_models(formulas, places, 4)
            with SmtSession(SolverConfig()) as s:
                s.begin(places)
                for f in formulas:
                    s.add(f)
                model = s.check()
            if not models:
                assert model is None, (seed, places, mode, model)
            else:
                expected = min(sum(map(abs, k)) for k in models)
                assert sum(map(abs, model)) == expected, (seed, places, mode)
            outcomes.add((len(formulas), model is None))
    assert outcomes == {(2, False), (2, True), (3, False), (3, True)}


def test_zero_model_is_the_least_model():
    # k0 >= k1 holds at k = 0: the built-in search ends on a cap of -1, and
    # an external solver's first model 0 leaves no cap to probe
    with SmtSession(SolverConfig()) as s:
        s.begin(2)
        s.add(Atom((1, -1), 0))
        assert s.check() == (0, 0)


def test_minimization_handles_disjunctions_and_negatives():
    base = [
        Disj((Atom((-1, 0), 4), Atom((1, 0), 9))),
        Atom((0, 1), 2),
        bound_constraint(2, 40),
    ]
    expected = min(sum(abs(x) for x in k) for k in brute_force_models(base, 2, 40))
    with SmtSession(SolverConfig()) as s:
        s.begin(2)
        for f in base:
            s.add(f)
        model = s.check()
    assert sum(map(abs, model)) == expected == 6


def test_builtin_deeply_nested_formula_is_unknown(monkeypatch):
    monkeypatch.setattr(solver_module.shutil, "which", lambda name: None)
    f = Atom((1,), 0)
    for _ in range(3000):
        f = Conj((f,))
    with SmtSession(SolverConfig()) as s:
        s.begin(1)
        s.add(f)
        with pytest.raises(SolverUnknownError, match="nests too deeply"):
            s.check()


def test_builtin_search_that_gives_up_is_never_unsat():
    # integer solution (-178, 112, -106, 31), beyond the branch depth limit
    system = [
        eq((-4, -3, 5, 5), 1),
        eq((-4, -4, 1, -5), 3),
        eq((1, -4, -5, 3), -3),
    ]
    assert all(evaluate(f, (-178, 112, -106, 31)) for f in system)
    try:
        model = solve(system, 4, time.monotonic() + 60)
    except SolverUnknownError:
        return
    assert model is not None and all(evaluate(f, model) for f in system)


def test_builtin_give_up_without_an_integer_point_is_unknown_not_unsat(monkeypatch):
    # Each form's coefficients sum to 0, so it reads only u = x - y and
    # v = y - z: -2u - 3v >= 2, 4u + v >= -2 and -3u + 4v >= -2. That triangle,
    # with corners (-2/5, -2/5), (-2/17, -10/17) and (-6/19, -14/19), lies
    # inside [-1, 0]^2 and holds none of its four integer points, so unsat is
    # the truth; but the rational point (0, 1/3, 1) stays feasible along
    # (1, 1, 1), and the branch and bound gives up before it can say so.
    system = [Atom((-2, -1, 3), 2), Atom((4, -3, -1), -2), Atom((-3, 7, -4), -2)]
    for t in range(-5, 6):
        assert all(evaluate(f, (t, t + Fraction(1, 3), t + 1)) for f in system)
    for u, v in itertools.product((-1, 0), repeat=2):
        assert not all(evaluate(f, (u + v, v, 0)) for f in system)
    message = "^built-in backend gave up below 200 integer branches$"
    with pytest.raises(SolverUnknownError, match=message):
        solve(system, 3, time.monotonic() + 60)
    monkeypatch.setattr(solver_module.shutil, "which", lambda name: None)
    with SmtSession(SolverConfig()) as s:
        s.begin(3)
        for f in system:
            s.add(f)
        with pytest.raises(SolverUnknownError, match=message):
            s.check()


def test_builtin_lattice_check_refutes_a_parity_conflict():
    # x = 2 y and x = 2 z + 1 have rational points but no integer one; each
    # form alone has one, so only the Hermite check on the pinned forms
    # (not gcd tightening) ends the branch and bound here.
    system = [eq((1, -2, 0), 0), eq((1, 0, -2), 1)]
    assert solve(system, 3, time.monotonic() + 60) is None


def random_formula(rng, n, depth):
    if depth == 0 or rng.random() < 0.3:
        coeffs = tuple(rng.randint(-3, 3) for _ in range(n))
        return Atom(coeffs, rng.randint(-4, 4))
    kind = rng.choice((Conj, Disj))
    return kind(tuple(random_formula(rng, n, depth - 1) for _ in range(rng.randint(0, 3))))


def test_builtin_normal_form_and_its_negation_match_evaluate():
    # constant atoms, empty connectives and gcd tightening all occur here
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(2, 3)
        f = random_formula(rng, n, 3)
        node = _convert(f)
        neg = _negate(node)
        for p in itertools.product(range(-3, 4), repeat=n):
            p = list(p)
            assert node.holds(p, 1) == evaluate(f, p), (f, p)
            assert neg.holds(p, 1) == (not evaluate(f, p)), (f, p)


def test_builtin_least_model_matches_brute_force():
    # Random formulas over 2-3 unknowns. A least sum |k(i)| of at most 6
    # lies in the box [-6, 6]^n, so brute force there finds it; when the box
    # holds no model, solve may find one outside it, but never one inside.
    rng = random.Random(7)
    agreed = zero = empty = 0
    for _ in range(400):
        n = rng.randint(2, 3)
        formulas = [random_formula(rng, n, 3) for _ in range(rng.randint(1, 2))]
        models = brute_force_models(formulas, n, 6)
        least = min((sum(map(abs, k)) for k in models), default=None)
        model = solve(formulas, n, time.monotonic() + 60)
        if model is not None:
            assert all(evaluate(f, model) for f in formulas), (formulas, model)
        if least is None:
            empty += 1
            assert model is None or max(map(abs, model)) > 6, (formulas, model)
        elif least <= 6:
            agreed += 1
            zero += least == 0
            assert model is not None and sum(map(abs, model)) == least, (formulas, model)
    assert (agreed, zero, empty) == (291, 166, 108)


def test_begin_resets_state_for_reuse():
    with SmtSession(SolverConfig()) as s:
        s.begin(1)
        s.add(eq((1,), 4))
        assert s.check() == (4,)
        s.begin(3)
        s.add(eq((1, 1, 1), -2))
        model = s.check()
        assert len(model) == 3 and sum(model) == -2
        # the old k0 = 4 constraint must be gone
        assert s.check([eq((1, 0, 0), 0)]) is not None


def test_queries_are_counted():
    with SmtSession(SolverConfig()) as s:
        s.begin(1)
        s.add(Atom((1,), 3))
        before = s.queries
        s.check()
        assert s.queries > before
