"""SMT session: parsing helpers, solver discovery, and exact answers."""

import itertools

import pytest

from petrisep import Mode, SmtSession, SolverConfig, random_instance
from petrisep import solver as solver_module
from petrisep.constants import normalize_primitive
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
    SolverTimeoutError,
    SolverUnknownError,
    discover_solver,
    parse_model,
    parse_sexprs,
    tokenize_sexpr,
)

from conftest import fake_smt_command

# -- offline helpers ----------------------------------------------------


def test_tokenize_sexpr():
    assert tokenize_sexpr("(a (b -3))") == ["(", "a", "(", "b", "-3", ")", ")"]
    assert tokenize_sexpr('(echo "hi (there)")') == ["(", "echo", '"hi (there)"', ")"]
    assert tokenize_sexpr("") == []


def test_parse_sexprs():
    assert parse_sexprs("(a (b c) 3)") == [["a", ["b", "c"], "3"]]
    assert parse_sexprs("x (y)") == ["x", ["y"]]


def test_parse_model_reads_values_and_negatives():
    text = "((k0 3) (k1 (- 2)))"
    assert parse_model(text, ["k0", "k1"]) == {"k0": 3, "k1": -2}


def test_discovery_finds_native_z3_or_leaves_the_builtin_backend(monkeypatch):
    # nothing on PATH: discovery raises and the built-in backend answers
    monkeypatch.setattr(solver_module.shutil, "which", lambda name: None)
    with pytest.raises(SolverNotFoundError):
        discover_solver()
    with SmtSession(SolverConfig()) as s:
        assert s.command is None
        s.begin(1)
        s.add(Atom((1,), ">=", 2))
        assert s.check() == {"k0": 2}
    monkeypatch.setattr(
        solver_module.shutil, "which", lambda name: "/usr/local/bin/z3" if name == "z3" else None
    )
    assert discover_solver() == ("/usr/local/bin/z3", "-in")


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(timeout_ms=0)


# -- the external pipe, against a scripted solver --------------------------

PROPORTION = [Atom((2, -3), "=", 0), Atom((1, 0), ">", 0)]  # 2 k0 = 3 k1, k0 > 0


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
    assert fake_check(log, "--models", "6,4", "3,2") == {"k0": 3, "k1": 2}
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


def test_external_model_failing_reevaluation_is_refused(tmp_path):
    with pytest.raises(SolverParseError):
        fake_check(tmp_path / "bad.log", "--models", "1,1")


def test_add_before_begin_raises_on_both_backends(tmp_path, monkeypatch):
    monkeypatch.setattr(solver_module.shutil, "which", lambda name: None)
    log = tmp_path / "fake.log"
    pipe = fake_smt_command(log, "--models", "4")
    for cfg in (SolverConfig(minimize=False), SolverConfig(pipe, minimize=False)):
        with SmtSession(cfg) as s:
            with pytest.raises(SolverError, match=r"call begin\(\) before add\(\)"):
                s.add(Atom((1,), "=", 4))
            s.begin(1)
            s.add(Atom((1,), "=", 4))
            assert s.check() == {"k0": 4}
    assert log.read_text().split() == ["spawn", "check-sat"]


# -- solving ------------------------------------------------------------


def brute_force_models(formulas, n, radius):
    out = []
    for k in itertools.product(range(-radius, radius + 1), repeat=n):
        if all(evaluate(f, k) for f in formulas):
            out.append(k)
    return out


def test_check_sat_returns_a_satisfying_model():
    base = [Atom((1, 1), ">=", 7), Atom((1, -1), "=", 1)]
    with SmtSession(SolverConfig()) as s:
        s.begin(2)
        for f in base:
            s.add(f)
        model = s.check()
    assert model is not None
    k = (model["k0"], model["k1"])
    assert all(evaluate(f, k) for f in base)


def test_check_unsat_returns_none():
    with SmtSession(SolverConfig()) as s:
        s.begin(1)
        s.add(Atom((2,), "=", 1))  # 2 k0 = 1 has no integer solution
        assert s.check() is None


def test_extra_formulas_are_scoped_to_one_call():
    with SmtSession(SolverConfig()) as s:
        s.begin(1)
        s.add(Atom((1,), ">=", 0))
        assert s.check([Atom((1,), ">=", 5), Atom((1,), "<=", 5)]) == {"k0": 5}
        assert s.check([Atom((1,), "<=", 3), Atom((1,), ">=", 3)]) == {"k0": 3}


def test_minimization_finds_smallest_absolute_sum():
    base = [Atom((1, 1), ">=", 7), bound_constraint(2, 30)]
    expected = min(
        sum(abs(x) for x in k) for k in brute_force_models(base, 2, 30)
    )
    with SmtSession(SolverConfig(minimize=True)) as s:
        s.begin(2)
        for f in base:
            s.add(f)
        model = s.check()
    assert sum(abs(v) for v in model.values()) == expected == 7

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
                assert sum(map(abs, model.values())) == expected, (seed, places, mode)
            outcomes.add((len(formulas), model is None))
    assert outcomes == {(2, False), (2, True), (3, False), (3, True)}


def test_minimization_handles_disjunctions_and_negatives():
    base = [
        Disj((Atom((1, 0), "<=", -4), Atom((1, 0), ">=", 9))),
        Atom((0, 1), ">=", 2),
        bound_constraint(2, 40),
    ]
    expected = min(sum(abs(x) for x in k) for k in brute_force_models(base, 2, 40))
    with SmtSession(SolverConfig()) as s:
        s.begin(2)
        for f in base:
            s.add(f)
        model = s.check()
    assert sum(abs(v) for v in model.values()) == expected == 6


def test_no_minimize_still_satisfies():
    base = [Atom((3, -2), ">", 4), Conj((Atom((0, 1), ">=", -10),))]
    with SmtSession(SolverConfig(minimize=False)) as s:
        s.begin(2)
        for f in base:
            s.add(f)
        model = s.check()
    k = (model["k0"], model["k1"])
    assert all(evaluate(f, k) for f in base)


def test_begin_resets_state_for_reuse():
    with SmtSession(SolverConfig()) as s:
        s.begin(1)
        s.add(Atom((1,), "=", 4))
        assert s.check() == {"k0": 4}
        s.begin(3)
        assert s.names == ["k0", "k1", "k2"]
        s.add(Atom((1, 1, 1), "=", -2))
        model = s.check()
        assert sum(model.values()) == -2
        # the old k0 = 4 constraint must be gone
        assert s.check([Atom((1, 0, 0), "=", 0)]) is not None


def test_queries_are_counted():
    with SmtSession(SolverConfig()) as s:
        s.begin(1)
        s.add(Atom((1,), ">=", 3))
        before = s.queries
        s.check()
        assert s.queries > before
