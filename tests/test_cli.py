"""Command-line behavior: outputs, exit codes, JSON, round trips."""

import json
import re
import shlex
import shutil
import subprocess
from pathlib import Path

import pytest

from petrisep import format_instance, nontrivial_net, parse_instance, random_instance
from petrisep.cli import main

from conftest import fake_smt_command, two_place_instance

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


def test_check_json_output(example_file, capsys):
    code = main(["check", example_file, "--k", "3,2", "--c", "8", "--json", "-"])
    captured = capsys.readouterr()
    assert code == 1
    assert "certificate FAILS" in captured.err
    doc = json.loads(captured.out)
    assert doc["halfspace"] == {"k": [3, 2], "c": 8}
    assert doc["report"]["ok"] is False


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
    code = main(["constants", example_file, "--k", "5", "-1"])
    out = capsys.readouterr().out
    assert code == 2
    assert "no threshold is inductive" in out


def test_constants_zero_vector_is_an_input_error(example_file, capsys):
    code = main(["constants", example_file, "--k", "0,0"])
    assert code == 3


def test_constants_empty_window_is_an_input_error(example_file, capsys):
    # negative entries go in as separate tokens; -1,-1 would look like a flag
    code = main(["constants", example_file, "--k", "-1", "-1"])
    assert code == 3
    assert "window" in capsys.readouterr().err


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
    code = main(["gen", "ussp", "--w", "4,6", "--d", "7"])
    out = capsys.readouterr().out
    assert code == 1
    assert "does not divide" in out


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
