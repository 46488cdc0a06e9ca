"""Smoke tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PINS = json.loads((HERE / "expected.json").read_text())
TINY = 24  # requests per pass


def result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_comes_out(workload, trace, tmp_path, capsys):
    code = run.run(workload, 7, 0.0, trace, out_dir=tmp_path, pass_limit=TINY)
    res = result_line(capsys)
    assert code == 0 and res["correct"] and res["failed"] == 0
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in res["metrics"].items()
    }
    record = json.loads(next(tmp_path.iterdir()).read_text())
    assert {"commit", "python", "nproc", "seed", "smt_command"} <= set(record["meta"])
    if trace:
        assert record["spans"] and not record["problems"]


def test_exact_counts_repeat_across_runs(tmp_path, capsys):
    counts = []
    for attempt in ("a", "b"):
        out = tmp_path / attempt
        assert run.run("check", 5, 0.0, True, out_dir=out, pass_limit=TINY) == 0
        metrics = json.loads(next(out.iterdir()).read_text())["metrics"]
        counts.append({k: v for k, v in metrics.items() if isinstance(v, int)})
    capsys.readouterr()
    assert counts[0] == counts[1]
    assert counts[0]["inductivity.sums_explored"] > 0


def _wrong_pins(workload: str) -> dict:
    pins = copy.deepcopy(PINS)
    if workload == "explore":
        outcome, states = pins["explore"]["0"]
        pins["explore"]["0"] = [outcome, states + 1]
    else:
        entry = pins["candidates"][0]
        entry[2] = 0 if entry[2] is None else None
    return pins


@pytest.mark.parametrize("workload", ["explore", "candidates"])
def test_wrong_pinned_answer_fails_the_run(workload, tmp_path, capsys):
    code = run.run(workload, 7, 0.0, False, out_dir=tmp_path, pass_limit=TINY,
                   pins=_wrong_pins(workload))
    res = result_line(capsys)
    assert code == 1 and not res["correct"] and res["failed"] >= 1


def test_wrong_reference_answer_fails_the_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(workloads, "representable", lambda coins, lo, hi: lo % 2 == 0)
    code = run.run("check", 7, 0.0, False, out_dir=tmp_path, pass_limit=TINY)
    res = result_line(capsys)
    assert code == 1 and not res["correct"] and res["failed"] >= 1


def test_reference_inductive_matches_known_cases():
    # Running example, k = (3, 2): c = 9 is inductive for t, c = 8 is not.
    assert workloads.reference_inductive((3, 2), 9, (2, 1), (1, 2))
    assert not workloads.reference_inductive((3, 2), 8, (2, 1), (1, 2))
    assert not workloads.representable((6, 10), 7, 9)
    assert workloads.representable((3, 5), 8, 8)


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "explore", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_scale_follows_nearby_kernel_samples():
    from speed import REF_NS, WINDOW_NS, Speed

    speed = Speed()
    speed.at.extend([0, 2 * WINDOW_NS, 10 * WINDOW_NS])
    speed.ns.extend([REF_NS, 2 * REF_NS, REF_NS // 2])
    assert speed.scale(0) == 1.0
    assert speed.scale(2 * WINDOW_NS) == 0.5
    # No sample within the window: the nearest one on each side.
    assert speed.scale(6 * WINDOW_NS) == REF_NS / statistics.median([2 * REF_NS, REF_NS // 2])
