"""Command-line behavior: outputs, exit codes, JSON, round trips."""

import argparse
import inspect
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import petrisep
from petrisep import (
    LoopBudget,
    format_instance,
    nontrivial_net,
    oracle_check_transition,
    parse_instance,
    random_instance,
)
from petrisep.cli import build_parser, main

from conftest import ahead_clock, fake_smt_command, two_place_instance

EXAMPLE = format_instance(two_place_instance())


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.net"
    path.write_text(EXAMPLE)
    return str(path)


def test_check_accepts_known_certificate(example_file, capsys):
    code = main(["check", example_file, "--k", "3,2", "--c", "9"])
    out = capsys.readouterr().out
    assert code == 0
    assert "certificate holds" in out
    assert "transition t: inductive" in out
    assert "oracle t: inductive (agrees)" in out


def test_check_rejects_threshold_8_with_exact_witness(example_file, capsys):
    code = main(["check", example_file, "--k", "3,2", "--c", "8"])
    out = capsys.readouterr().out
    assert code == 1
    assert "certificate FAILS" in out
    assert "k.(x + pre) = 8" in out


def test_check_negative_coefficients_as_separate_tokens(tmp_path, capsys):
    path = tmp_path / "family.net"
    path.write_text(format_instance(nontrivial_net(3)))
    code = main(["check", str(path), "--k", "-4", "-4", "-3", "--c", "-12"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "certificate holds" in out


def test_check_labels_antitone_transitions(tmp_path, capsys):
    # k <= 0 and k.pre = -11 < c: no marking enabling a transition is inside
    path = tmp_path / "family.net"
    path.write_text(format_instance(nontrivial_net(3)))
    code = main(["check", str(path), "--k", "-4", "-4", "-3", "--c", "-10"])
    out = capsys.readouterr().out
    assert code == 1, out
    for name in ("t1", "t2", "t3"):
        assert f"transition {name}: inductive (antitone)" in out
    assert "initial marking outside half space" in out


def test_check_json_output(example_file, capsys):
    code = main(["check", example_file, "--k", "3,2", "--c", "8", "--json", "-"])
    captured = capsys.readouterr()
    assert code == 1
    assert "certificate FAILS" in captured.err
    doc = json.loads(captured.out)
    assert doc["halfspace"] == {"k": [3, 2], "c": 8}
    assert doc["report"]["ok"] is False


def test_json_to_a_file_is_the_stdout_document(example_file, tmp_path, capsys):
    for argv in (["check", "--k", "3,2", "--c", "8"], ["constants", "--k", "3,2"]):
        path = tmp_path / f"{argv[0]}.json"
        code = main([argv[0], example_file, *argv[1:], "--json", str(path)])
        report = capsys.readouterr()
        assert main([argv[0], example_file, *argv[1:], "--json", "-"]) == code
        captured = capsys.readouterr()
        assert path.read_text() == captured.out
        # with a file, the report lines stay on stdout
        assert report.out == captured.err and report.err == ""


def test_check_skip_oracle_calls_no_oracle(example_file, capsys):
    argv = ["check", example_file, "--k", "3,2", "--c", "9", "--skip-oracle"]
    code = main(argv + ["--json", "-"])
    captured = capsys.readouterr()
    assert code == 0
    assert "certificate holds" in captured.err
    assert "oracle " not in captured.err
    oracle = json.loads(captured.out)["report"]["oracle"]
    assert [name for name, _ in oracle] == ["t", "u", "v"]
    assert all(verdict is None for _, verdict in oracle)
    # the exact checker alone still refuses a sign-mixed k
    code = main(["check", example_file, "--k", "3,-2", "--c", "1", "--skip-oracle"])
    assert code == 1
    assert "certificate FAILS" in capsys.readouterr().out


def test_check_arity_mismatch_is_an_input_error(example_file, capsys):
    for argv in (
        ["check", example_file, "--k", "3,2,1", "--c", "9"],
        ["constants", example_file, "--k", "3,2,1"],
        ["oracle", example_file, "--k", "3", "--c", "9"],
    ):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3, argv
        assert "input error: k has" in err, argv


def test_check_unparseable_vector_is_an_input_error(example_file, capsys):
    code = main(["check", example_file, "--k", "3,x", "--c", "9"])
    assert code == 3
    assert "input error" in capsys.readouterr().err


def test_vector_entry_over_the_digit_limit_is_named_briefly(example_file, capsys, int_digit_limit):
    code = main(["check", example_file, "--k", "1" * 5000 + ",2", "--c", "9"])
    assert code == 3
    assert capsys.readouterr().err == (
        "input error: cannot parse integer vector: '11111111111111111111'... has 5000"
        " digits, over the limit sys.get_int_max_str_digits() = 4300\n"
    )


def test_missing_file_is_an_input_error(capsys):
    code = main(["check", "/no/such/file.net", "--k", "1", "--c", "0"])
    assert code == 3
    assert "input error" in capsys.readouterr().err


def test_mode_override_switches_to_cover(example_file, capsys):
    code = main(
        ["check", example_file, "--mode", "cover", "--k", "3,2", "--c", "9"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "mode = cover" in out
    assert "cover condition k <= 0: VIOLATED" in out


def test_constants_running_example(example_file, capsys):
    code = main(["constants", example_file, "--k", "3,2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "window: [9, 11]" in out
    assert "chosen c = 9" in out


def test_constants_mixed_decreasing_vector_is_inconclusive(example_file, capsys):
    # t and u lower k.m for k = (5, -1); v alone lowers it for k = (-2, 1)
    for k, named in ((("5", "-1"), "t, u strictly lower"), (("-2", "1"), "v strictly lowers")):
        code = main(["constants", example_file, "--k", *k])
        out = capsys.readouterr().out
        assert code == 2
        assert out == (
            f"k = ({', '.join(k)}) mixes positive and negative entries while {named} the "
            "scalar product; no threshold is inductive for such a vector\n"
        )


def test_constants_without_a_threshold_is_negative(example_file, capsys):
    assert main(["constants", example_file, "--k", "1,0"]) == 1
    assert "no threshold works for every transition" in capsys.readouterr().out
    assert main(["constants", example_file, "--mode", "cover", "--k", "3,2"]) == 1
    assert "cover mode requires k <= 0: no admissible threshold" in capsys.readouterr().out


def test_constants_zero_vector_is_an_input_error(example_file, capsys):
    code = main(["constants", example_file, "--k", "0,0"])
    assert code == 3


def test_constants_empty_window_is_an_input_error(example_file, capsys):
    # negative entries go in as separate tokens; -1,-1 would look like a flag
    code = main(["constants", example_file, "--k", "-1", "-1"])
    assert code == 3
    assert "window" in capsys.readouterr().err


def test_constants_json_keeps_reversed_gap_runs_for_k_at_most_zero(tmp_path, capsys):
    # k <= 0 builds each set from gap runs read in reverse; three spans,
    # none of them touching, must come out in ascending order
    path = tmp_path / "family.net"
    path.write_text(format_instance(nontrivial_net(4)))
    code = main(["constants", str(path), "--k", "-5", "-5", "-5", "-4", "--json", "-"])
    captured = capsys.readouterr()
    assert code == 0
    text = "{-30} [-26,-25] [-22,-20]"
    for name in ("t1", "t2", "t3", "t4"):
        assert f"transition {name}: {text}\n" in captured.err
    assert f"intersection: {text}\n" in captured.err
    doc = json.loads(captured.out)
    assert doc["combined"] == [[-30, -30], [-26, -25], [-22, -20]]
    assert all(spans == doc["combined"] for spans in doc["per_transition"].values())
    assert doc["chosen"] == -20


def test_a_command_out_of_memory_exits_4(example_file, monkeypatch, capsys):
    # A far window can make the threshold bit set too large to allocate
    # (see ROADMAP); a stand-in raises here instead of allocating it.
    def out_of_memory(inst, k):
        raise MemoryError

    monkeypatch.setattr(petrisep.cli, "constants_for_instance", out_of_memory)
    assert main(["constants", example_file, "--k", "3,2", "--json", "-"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "environment error: out of memory"


def test_oracle_verdicts(example_file, capsys):
    assert main(["oracle", example_file, "--k", "3,2", "--c", "9"]) == 0
    assert main(["oracle", example_file, "--k", "3,2", "--c", "8"]) == 1
    out = capsys.readouterr().out
    assert "NOT inductive" in out


def test_oracle_sign_mixed_refutation_prints_no_none(tmp_path, capsys):
    path = tmp_path / "family.net"
    path.write_text(format_instance(nontrivial_net(3)))
    code = main(["oracle", str(path), "--k", "1", "-1", "0", "--c", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "transition t2: NOT inductive by the sign-mixed" in out
    assert "None" not in out


def test_oracle_budget_exhaustion_is_inconclusive(example_file, capsys):
    code = main(["oracle", example_file, "--k", "3,2", "--c", "9", "--budget", "1"])
    assert code == 2
    assert "rejected" in capsys.readouterr().err


def test_grid_too_large_to_count_is_refused_not_an_input_error(tmp_path, capsys):
    # (bound + 1)^2 has about 6000 digits, past what int -> str allows.
    assert main(["gen", "ussp", "--w", "3,5", "--d", str(10**3000)]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "ussp.net"
    path.write_text(text)
    c = re.search(r"c = (\d+) on this net", text).group(1)
    code = main(["check", str(path), "--k", "3,5", "--c", c])
    captured = capsys.readouterr()
    assert code == 1, captured.err  # 3 x + 5 y = 10^3000 is solvable
    assert "transition t: NOT inductive" in captured.out
    assert "oracle t:" not in captured.out and captured.err == ""
    assert main(["oracle", str(path), "--k", "3,5", "--c", c]) == 2
    assert "rejected: grid of (bound + 1)^2 points" in capsys.readouterr().err


def test_oracle_nonpositive_budget_is_an_input_error(example_file, capsys):
    for budget in ("0", "-5"):
        code = main(["oracle", example_file, "--k", "3,2", "--c", "9", "--budget", budget])
        captured = capsys.readouterr()
        assert code == 3, budget
        assert "input error: oracle budget must be positive" in captured.err
        assert "rejected" not in captured.err
        assert "transition" not in captured.out


def test_explore_exit_codes(tmp_path, capsys):
    inconclusive = tmp_path / "pump.net"
    inconclusive.write_text(EXAMPLE)
    assert main(["explore", str(inconclusive), "--budget", "500"]) == 2
    assert main(["explore", str(inconclusive), "--mode", "cover"]) == 0

    finite = tmp_path / "finite.net"
    finite.write_text(
        "places p q\ntransition t pre 1 0 post 0 1\ninit 2 0\ntarget 2 2\n"
    )
    assert main(["explore", str(finite)]) == 1
    out = capsys.readouterr().out
    assert "not-reached" in out


def test_gen_nontrivial_round_trips(capsys):
    code = main(["gen", "nontrivial", "--n", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert parse_instance(out) == nontrivial_net(4)


def test_gen_nontrivial_rejects_small_n(capsys):
    assert main(["gen", "nontrivial", "--n", "2"]) == 3


def test_gen_ussp_emits_checkable_net(capsys):
    code = main(["gen", "ussp", "--w", "3,5", "--d", "7"])
    out = capsys.readouterr().out
    assert code == 0
    inst = parse_instance(out)
    assert len(inst.net.transitions) == 1
    assert "k = (3, 5)" in out


def test_gen_ussp_reports_unsolvable_divisibility(capsys):
    for w, d, gcd in (("4,6", "7", "gcd(4, 6)"), ("3", "5", "gcd(3)")):
        code = main(["gen", "ussp", "--w", w, "--d", d])
        out = capsys.readouterr().out
        assert code == 1
        assert out == f"# {gcd} does not divide {d}: the equation has no solution; nothing to emit\n"


def test_gen_random_matches_library(capsys):
    code = main(["gen", "random", "--seed", "9", "--places", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert parse_instance(out) == random_instance(9, places=2)


def test_usage_errors_keep_argparse_exit_code(example_file):
    with pytest.raises(SystemExit) as exc:
        main(["check", example_file, "--c", "9"])  # --k missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["nonsense"])
    # every check returns a least model; there is no switch to turn that off
    for flag in ("--minimize", "--no-minimize"):
        with pytest.raises(SystemExit) as exc:
            main(["synthesize", example_file, flag])
        assert exc.value.code == 2


def test_mode_and_json_options_per_subcommand():
    # as README says: synthesize, check and constants take both options,
    # explore takes --mode only, and oracle neither
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    takes = {
        option: sorted(name for name, p in sub.choices.items() if option in p._option_string_actions)
        for option in ("--mode", "--json")
    }
    assert takes == {
        "--mode": ["check", "constants", "explore", "synthesize"],
        "--json": ["check", "constants", "synthesize"],
    }
    assert sorted(sub.choices) == ["check", "constants", "explore", "gen", "oracle", "synthesize"]


def test_option_defaults_are_the_library_defaults():
    def default(func, name):
        return inspect.signature(func).parameters[name].default

    parse = build_parser().parse_args
    args = parse(["synthesize", "x.net"])
    assert args.max_iters == default(LoopBudget, "max_iterations")
    assert args.max_seconds == default(LoopBudget, "max_seconds")
    args = parse(["oracle", "x.net", "--k", "3,2", "--c", "9"])
    assert args.budget == default(oracle_check_transition, "max_points")
    args = parse(["gen", "random", "--seed", "1"])
    for name in ("places", "transitions", "max_flow", "max_marking"):
        assert getattr(args, name) == default(random_instance, name), name


def test_synthesize_running_example_cli(example_file, capsys):
    code = main(["synthesize", example_file, "--json", "-"])
    captured = capsys.readouterr()
    assert code == 0
    assert "outcome: found" in captured.err
    doc = json.loads(captured.out)
    assert doc["outcome"] == "found"
    assert doc["separator"]["init_inside"] is True


def test_synthesize_cover_mode_refutes_via_cli(example_file, capsys):
    code = main(["synthesize", example_file, "--mode", "cover"])
    out = capsys.readouterr().out
    assert code == 1
    assert "no separating inductive half space" in out


def test_synthesize_nan_time_budget_is_an_input_error(example_file, capsys):
    code = main(["synthesize", example_file, "--max-seconds", "nan"])
    captured = capsys.readouterr()
    assert code == 3
    assert "input error: budget must be positive" in captured.err
    assert "outcome" not in captured.out


def test_synthesize_bound_cap_is_inconclusive(tmp_path, capsys):
    path = tmp_path / "family.net"
    path.write_text(format_instance(nontrivial_net(3)))
    assert main(["synthesize", str(path), "--max-bound", "2"]) == 2
    out = capsys.readouterr().out
    assert "outcome: exhausted" in out
    assert "search budget exhausted without a verdict" in out


def test_synthesize_unwaitable_timeout_is_an_input_error(example_file, tmp_path, capsys):
    # more seconds than threading.TIMEOUT_MAX: queue.get could not wait that long
    log = tmp_path / "fake.log"
    solver = shlex.join(fake_smt_command(log))
    code = main(["synthesize", example_file, "--solver", solver, "--timeout-ms", "1" + "0" * 21])
    assert code == 3
    assert "input error: timeout" in capsys.readouterr().err
    assert not log.exists()  # rejected before any solver starts


def test_synthesize_solver_error_shows_its_stderr(example_file, tmp_path, capsys):
    solver = shlex.join(fake_smt_command(tmp_path / "exit.log", "--on-check", "exit"))
    assert main(["synthesize", example_file, "--solver", solver]) == 4
    err = capsys.readouterr().err
    assert "solver error: solver exited unexpectedly\n" in err
    assert "fake_smt: exiting mid-query" in err


def test_synthesize_solver_that_dies_exits_4(example_file, tmp_path, capsys):
    # a solver that exits mid-query, and one that never echoes the sync marker
    for name, fake_args, timeout, error in (
        ("exit", ("--on-check", "exit"), "60000", "solver exited unexpectedly"),
        ("no-echo", ("--no-echo",), "500", "no answer within 500 ms"),
    ):
        log = tmp_path / f"{name}.log"
        solver = shlex.join(fake_smt_command(log, *fake_args))
        code = main(["synthesize", example_file, "--solver", solver, "--timeout-ms", timeout])
        assert code == 4, name
        assert f"solver error: {error}" in capsys.readouterr().err
        assert log.read_text().split() == ["spawn", "check-sat"], name


def test_synthesize_builtin_timeout_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PATH", str(tmp_path))  # no native z3: the built-in backend
    ahead_clock(monkeypatch)  # every query's 20 ms deadline has passed
    path = tmp_path / "family.net"
    path.write_text(format_instance(nontrivial_net(6)))
    assert main(["synthesize", str(path), "--timeout-ms", "20"]) == 4
    assert "solver error: built-in backend ran out of time" in capsys.readouterr().err


@pytest.mark.skipif(
    shutil.which("petrisep") is None, reason="console script not installed"
)
def test_console_script_entry_point(example_file):
    proc = subprocess.run(
        ["petrisep", "check", example_file, "--k", "3,2", "--c", "9"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "certificate holds" in proc.stdout


def test_python_dash_m_entry_point(example_file):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "petrisep", "check", example_file, "--k", "3,2", "--c", "9"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert "certificate holds" in proc.stdout


def test_every_export_resolves_once():
    names = petrisep.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(petrisep, name)] == []


# Each script runs in a fresh interpreter, given the example net's path;
# the test then reads which modules of the SMT layer it loaded.
LAZY_LOADING = [
    pytest.param(
        """
import contextlib, io, sys
import petrisep
from petrisep.cli import main
net = sys.argv[1]
runs = [
    ["explore", net, "--budget", "500"],
    ["check", net, "--k", "3,2", "--c", "9"],
    ["constants", net, "--k", "3,2"],
    ["oracle", net, "--k", "3,2", "--c", "9"],
    ["gen", "random", "--seed", "1"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
assert codes == [2, 0, 0, 0, 0], codes
assert not hasattr(petrisep, "solver")  # a name outside __all__ loads nothing
try:
    petrisep.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'petrisep' has no attribute 'no_such_name'", exc
""",
        [],
        id="import-and-other-commands",
    ),
    pytest.param(
        """
import petrisep
from petrisep import *
unbound = [name for name in petrisep.__all__ if name not in globals()]
assert unbound == [], unbound
""",
        ["petrisep.solver"],
        id="star-import",
    ),
    pytest.param("import petrisep; petrisep.SolverConfig", ["petrisep.solver"], id="solver-name"),
    pytest.param(
        """
import contextlib, io, sys
from petrisep.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["synthesize", sys.argv[1]]) == 0
""",
        ["petrisep.exact", "petrisep.solver"],  # built-in backend: PATH has no z3
        id="synthesize",
    ),
]


@pytest.mark.parametrize("script, loaded", LAZY_LOADING)
def test_smt_layer_loads_only_for_synthesis(script, loaded, example_file, tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    report = "import sys; print(sorted(m for m in sys.modules if m in SMT_LAYER))"
    code = f"{script}\nSMT_LAYER = ('petrisep.exact', 'petrisep.solver')\n{report}\n"
    proc = subprocess.run(
        [sys.executable, "-c", code, example_file],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src), "PATH": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(loaded)


def test_synthesize_solver_error_leaves_stdout_empty_under_json_dash(
    example_file, tmp_path, capsys
):
    solver = shlex.join(fake_smt_command(tmp_path / "exit.log", "--on-check", "exit"))
    code = main(["synthesize", example_file, "--json", "-", "--solver", solver])
    captured = capsys.readouterr()
    assert code == 4
    assert "solver error:" in captured.err
    assert captured.out == ""


GOLDEN_RUNS = (
    ["synthesize", "--json", "-"],
    ["synthesize", "--mode", "cover", "--json", "-"],
    ["check", "--k", "3,2", "--c", "9", "--json", "-"],
    ["check", "--k", "3,2", "--c", "8", "--json", "-"],
    ["constants", "--k", "3,2", "--json", "-"],
)


def test_cli_json_documents_match_golden(example_file, tmp_path, monkeypatch, capsys):
    # PATH set to the test's own directory hides any native z3, so synthesis
    # runs on the built-in backend everywhere; only the wall time is masked.
    # Lines marked "2> " went to stderr; the rest is stdout, the document.
    monkeypatch.setenv("PATH", str(tmp_path))
    printed = []
    for argv in GOLDEN_RUNS:
        code = main([argv[0], example_file, *argv[1:]])
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout is exactly one document
        out = "".join(f"2> {line}\n" for line in captured.err.splitlines())
        out += captured.out
        out = re.sub(r'"wall_seconds": [^,\n]+', '"wall_seconds": "<wall>"', out)
        out = re.sub(r"wall: [0-9.]+s", "wall: <wall>s", out)
        printed.append(f"$ petrisep {shlex.join(argv)}  # exit {code}\n{out}")
    golden = Path(__file__).with_name("cli_json.golden")
    assert "".join(printed) == golden.read_text()
