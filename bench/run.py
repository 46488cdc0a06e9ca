"""petrisep benchmark: time from net text to verdict on three workloads.

    python3 bench/run.py --workload explore|check|candidates --seed N \\
        --seconds S --trace 0|1

Run it from the root of a source tree; it imports petrisep from ./src.

Each workload is a closed loop: one client in one thread sends the next
request only after the previous one returns. Set-up (importing petrisep and
generating and serialising the inputs from the seed) runs SETUP_REPEATS
times before the timed loop and once between each two timed passes;
`setup_s` is the median of all of them. After one untimed
pass, the timed loop serves whole passes over the workload's requests, each
in a new seeded order, until --seconds have elapsed. Every time is scaled to
the reference speed of speed.py by a kernel timed throughout the run. Each
request's service time is its median over the timed passes; verdict_p50_ms
and verdict_p90_ms are Harrell-Davis percentiles of these over the requests, and
verdicts_per_s is requests over their sum, the rate of one client that waits
for each reply. After each pass, outside the timed requests, every verdict is
compared with a known answer; any mismatch or raised exception is a failed
request and makes the run exit 1.

--trace 1 serves one pass five times: untimed, then untraced, traced,
traced, untraced. The traced passes record a span around every call into
petrisep's public functions (see tracer.py) and give the per-layer metrics;
the run checks that both traced passes count exactly the same work and that
all four give the same verdicts. Tracing overhead compares the requests'
fastest traced and fastest untraced wall times.

Every run prints its metadata and each metric with its unit and sample
count, writes the same (and, traced, the spans and per-layer table) to
bench/out/, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path
from time import perf_counter_ns

import workloads
from speed import BRACKET, Speed
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9


def fresh_import():
    """Import petrisep as a new process would, discarding any earlier import."""
    for name in [n for n in sys.modules if n == "petrisep" or n.startswith("petrisep.")]:
        del sys.modules[name]
    return importlib.import_module("petrisep")


def set_up(wl, seed: int, pins: dict, times: list, speed: Speed):
    """Import petrisep afresh and build the workload's requests; appends the
    start and the nanoseconds taken to times, and samples the machine's speed
    on each side. Earlier imports are collected first, untimed."""
    gc.collect()
    speed.sample(BRACKET)
    t0 = perf_counter_ns()
    ps = fresh_import()
    requests = wl.inputs(ps, seed, pins)
    times.append((t0, perf_counter_ns() - t0))
    speed.sample(BRACKET)
    return ps, requests


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(ps, workload: str, seed: int) -> dict:
    try:
        smt = " ".join(ps.discover_solver())  # recorded, never run
    except ps.SolverNotFoundError:
        smt = "none"
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "smt_command": smt,
    }


def serve_pass(wl, ps, requests, order, tracer=None, speed=None):
    """Serve requests in the given order; returns (latencies in ns, verdicts,
    start of each request). With speed, samples the kernel between requests."""
    latencies, verdicts, starts = [], [], []
    for pos, i in enumerate(order):
        req = requests[i]
        if tracer is not None:
            tracer.request = pos
        t0 = perf_counter_ns()
        try:
            verdict = wl.serve(ps, req.text, req.arg)
        except Exception as exc:  # a request that raises is a failed request
            verdict = ("raised", f"{type(exc).__name__}: {exc}")
        latencies.append(perf_counter_ns() - t0)
        starts.append(t0)
        verdicts.append(verdict)
        if speed is not None:
            speed.tick()
    return latencies, verdicts, starts


def judge(wl, requests, order, verdicts) -> list[str]:
    """The served requests whose verdicts miss their known answers."""
    return [
        f"{requests[i].label}: got {v!r}, expected {requests[i].expect!r}"
        for i, v in zip(order, verdicts)
        if not wl.judge(requests[i], v)
    ]


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) distribution's mass
    over ((i-1)/n, i/n), integrated by the midpoint rule. Each request's
    service time carries a few percent of noise of its own, and a rank-based
    percentile takes all of it from the one or two requests at that rank,
    where the costs of neighbouring requests can also differ by 8%; the
    weighted mean spreads it over the requests near that rank."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16
    weights = [
        sum(math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
            for x in ((i + (j + 0.5) / steps) / n for j in range(steps)))
        for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def timed_run(wl, ps, requests, seed: int, seconds: float, speed: Speed, between_passes):
    rng = random.Random(seed)

    def shuffled():
        order = list(range(len(requests)))
        rng.shuffle(order)
        return order

    # An untimed first pass grows the allocator's arenas to the workload's
    # working set; only the passes after it are timed.
    order = shuffled()
    failures = judge(wl, requests, order, serve_pass(wl, ps, requests, order)[1])
    attempted = len(order)
    # Every pass serves every request once. Verdicts are judged after each
    # pass and dropped; the timings are kept in arrays, request i of pass p
    # at p * n + i, so that memory grows by 16 bytes a request served.
    n = len(requests)
    starts, latencies = array("q"), array("q")
    passes = 0
    speed.sample(BRACKET)
    start = time.perf_counter()
    while True:
        order = shuffled()
        lat, verdicts, at = serve_pass(wl, ps, requests, order, speed=speed)
        for row, column in ((starts, at), (latencies, lat)):
            row.frombytes(bytes(8 * n))
            for i, x in zip(order, column):
                row[passes * n + i] = x
        failures += judge(wl, requests, order, verdicts)
        attempted += len(order)
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
        between_passes()
    elapsed = time.perf_counter() - start
    speed.sample(BRACKET)
    # A request's service time is the median of its scaled repeats; the
    # scale follows the machine's speed through the run (see speed.py).
    scaled, raw = [], []
    for i in range(n):
        lat = latencies[i::n]
        raw.append(statistics.median(lat))
        scaled.append(statistics.median(
            x * speed.scale(t + x // 2) for t, x in zip(starts[i::n], lat)))
    detail = {"timed_passes": passes, "elapsed_s": elapsed, "wall_clock": summary(raw)}
    return summary(scaled), failures, attempted, detail


def summary(service_ns: list) -> dict:
    return {
        "verdict_p50_ms": quantile(service_ns, 0.5) / 1e6,
        "verdict_p90_ms": quantile(service_ns, 0.9) / 1e6,
        "verdicts_per_s": len(service_ns) / (sum(service_ns) / 1e9),  # one client, no queueing
    }


def traced_run(wl, ps, requests, seed: int):
    order = list(range(len(requests)))
    random.Random(seed).shuffle(order)
    passes, tracers = [], []
    serve_pass(wl, ps, requests, order)  # untimed, as in timed_run
    for traced in (False, True, True, False):
        if traced:
            tracer = Tracer()
            with tracer:
                passes.append(serve_pass(wl, ps, requests, order, tracer))
            tracers.append(tracer)
        else:
            passes.append(serve_pass(wl, ps, requests, order))
    problems = []
    if any(verdicts != passes[0][1] for _, verdicts, _ in passes):
        problems.append("traced and untraced passes gave different verdicts")
    first, second = (t.layer_metrics() for t in tracers)
    exact = [name for name, v in first.items() if isinstance(v, int)]
    for name in exact:
        if first[name] != second[name]:
            problems.append(f"{name} differs between two traced passes: {first[name]} != {second[name]}")
    # As in timed_run, each request counts with its fastest of the two passes.
    untraced = sum(map(min, passes[0][0], passes[3][0]))
    with_spans = sum(map(min, passes[1][0], passes[2][0]))
    metrics = dict(first)
    metrics["trace.overhead_pct"] = 100.0 * (with_spans - untraced) / untraced
    failures = [f for _, verdicts, _ in passes for f in judge(wl, requests, order, verdicts)]
    detail = {
        "requests_per_pass": len(order),
        "layers": tracers[0].table(),
        "spans": tracers[0].spans,
    }
    return metrics, failures, len(passes) * len(order), detail, problems


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path = OUT,
        pass_limit: int | None = None, pins: dict | None = None) -> int:
    """One benchmark run; returns the exit code. The smoke tests shrink a pass
    to about pass_limit evenly spread requests and substitute known answers."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if pins is None:
        pins = json.loads((HERE / "expected.json").read_text())
    wl = workloads.WORKLOADS[workload]
    sys.path.insert(0, str(SRC))

    speed = Speed()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        ps, requests = set_up(wl, seed, pins, setup_times, speed)
    gc.collect()  # the last discarded import, too, before any timed pass
    if pass_limit:
        requests = requests[:: max(1, len(requests) // pass_limit)]
    meta = metadata(ps, workload, seed)

    problems = []
    if trace:
        metrics, failures, attempted, detail, problems = traced_run(wl, ps, requests, seed)
        samples = dict.fromkeys(units, f"{len(requests)} requests, one traced pass")
    else:
        # One more set-up between timed passes spreads the set-up samples
        # over the whole run, as the machine's speed changes within it.
        metrics, failures, attempted, detail = timed_run(
            wl, ps, requests, seed, seconds, speed,
            lambda: set_up(wl, seed, pins, setup_times, speed))
        metrics["setup_s"] = statistics.median(
            x * speed.scale(t + x // 2) for t, x in setup_times) / 1e9
        detail["wall_clock"]["setup_s"] = statistics.median(x for _, x in setup_times) / 1e9
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        timed = f"{len(requests)} requests, median of {detail['timed_passes']} passes each"
        samples = {"verdict_p50_ms": timed, "verdict_p90_ms": timed, "verdicts_per_s": timed,
                   "setup_s": f"{len(setup_times)} set-ups", "peak_rss_mb": "1 process"}
    correct = not failures and not problems

    print("meta " + json.dumps(meta))
    for name in units:
        print(f"{workload} {name} {metrics[name]:.6g} {units[name]} (n = {samples[name]})")
    print(f"{workload} failed_share {len(failures) / attempted:.6g} share "
          f"(n = {attempted} requests checked)")
    if trace:
        print(f"{workload} tracing overhead {metrics['trace.overhead_pct']:.3g} %")
    else:
        print(f"{workload} unscaled wall-clock times: " + ", ".join(
            f"{name} {value:.6g}" for name, value in detail["wall_clock"].items()))
    for line in (problems + failures)[:20]:
        print("FAILED " + line, file=sys.stderr)

    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}{'-trace' if trace else ''}.json"
    record = {"meta": meta, "metrics": metrics, "attempted": attempted,
              "failed": len(failures), "problems": problems,
              "setup_runs_s": [x / 1e9 for _, x in setup_times], **detail}
    (out_dir / name).write_text(json.dumps(record, separators=(",", ":")) + "\n")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "petrisep" / "__init__.py").is_file():
        print(f"bench: no petrisep sources under {SRC}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
