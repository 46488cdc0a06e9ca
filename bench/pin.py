"""Regenerate bench/expected.json, the pinned verdicts of two workloads.

    python3 bench/pin.py

`explore` pins the outcome and states_visited of bounded_explore for every
seed of its pool. `candidates` pins its pool, drawn here once, and for each
candidate the threshold constants_for_instance chooses, or null for a
refusal. Each pin is first confirmed with this file's own breadth-first
search or the benchmark's own inductivity reference, so no pin rests only on
the code it later times.
"""

from __future__ import annotations

import json
import random
import sys
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import petrisep as ps  # noqa: E402

import workloads as wl  # noqa: E402

POOL_SEED = 2105
BOUNDS = (10, 20, 40, 80, 160, 320)  # the CEGAR loop's doubling of the bound on |k(i)|
PER_BOUND = 4
TRIES = 150


def reference_explore(inst, max_states: int) -> tuple[str, int]:
    """Breadth-first search with bounded_explore's outcome and state count."""
    def hits(m):
        if inst.mode is ps.Mode.COVER:
            return all(a >= b for a, b in zip(m, inst.m_final))
        return m == inst.m_final

    if hits(inst.m_init):
        return "reached", 1
    moves = [(t.pre, t.delta) for t in inst.net.transitions]
    seen = {inst.m_init}
    frontier = deque([inst.m_init])
    while frontier:
        m = frontier.popleft()
        for pre, delta in moves:
            if any(a < p for a, p in zip(m, pre)):
                continue
            m2 = tuple(a + d for a, d in zip(m, delta))
            if m2 in seen:
                continue
            if hits(m2):
                return "reached", len(seen) + 1
            seen.add(m2)
            if len(seen) >= max_states:
                return "inconclusive", len(seen)
            frontier.append(m2)
    return "not-reached", len(seen)


def workable(inst, k, c) -> bool:
    """Separating, cover-compatible and inductive, by the reference."""
    dot = lambda a, b: sum(x * y for x, y in zip(a, b))  # noqa: E731
    if not dot(k, inst.m_init) >= c > dot(k, inst.m_final):
        return False
    if inst.mode is ps.Mode.COVER and any(a > 0 for a in k):
        return False
    return all(wl.reference_inductive(k, c, t.pre, t.post) for t in inst.net.transitions)


def pin_explore() -> dict:
    out = {}
    for s in range(wl.EXPLORE_POOL):
        inst = ps.random_instance(s)
        r = ps.bounded_explore(inst, max_states=wl.EXPLORE_BUDGET)
        got = (r.outcome.value, r.states_visited)
        if got != reference_explore(inst, wl.EXPLORE_BUDGET):
            raise SystemExit(f"explore seed {s}: bounded_explore disagrees with the reference")
        out[str(s)] = list(got)
    return out


def candidate_pool() -> list[tuple[str, object, tuple[int, ...]]]:
    """(label, instance, k) for primitive candidates the formula accepts.

    A backend returns only models of separator_formula, so candidates are
    drawn at each bound of the loop's doubling and kept when `evaluate`
    accepts them: sign-pure or mixed, up to PER_BOUND per instance and bound.
    """
    rng = random.Random(POOL_SEED)
    pool = []
    for label, inst in wl.candidate_instances(ps):
        f = ps.formula.separator_formula(inst)
        n = inst.net.n
        seen = set()
        for bound in BOUNDS:
            kept = 0
            for _ in range(TRIES):
                sign = rng.choice((1, -1, 0))  # non-negative, non-positive, mixed
                k = [rng.randint(-bound, bound) for _ in range(n)]
                if sign:
                    k = [sign * abs(x) for x in k]
                if not any(k):
                    continue
                k = ps.normalize_primitive(k)
                if k in seen or not ps.formula.evaluate(f, k):
                    continue
                seen.add(k)
                pool.append((label, inst, k))
                kept += 1
                if kept == PER_BOUND:
                    break
    return pool


def pin_candidates() -> list:
    out = []
    for label, inst, k in candidate_pool():
        chosen = ps.constants_for_instance(inst, k).chosen
        lo, hi = ps.separator_window(inst, k)
        # chosen is the largest workable threshold; above it (or at the top
        # of the window, for a refusal) 64 thresholds are confirmed unworkable.
        if chosen is None:
            above = range(max(lo, hi - 63), hi + 1)
        else:
            if not workable(inst, k, chosen):
                raise SystemExit(f"{label} k={k}: chosen c={chosen} is not workable")
            above = range(chosen + 1, min(hi, chosen + 64) + 1)
        if any(workable(inst, k, c) for c in above):
            raise SystemExit(f"{label} k={k}: the reference finds a workable threshold above")
        out.append([label, list(k), chosen])
    return out


def main() -> None:
    pins = {"explore": pin_explore(), "candidates": pin_candidates()}
    path = HERE / "expected.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path.name}: {len(pins['explore'])} explore seeds, "
          f"{len(pins['candidates'])} candidates")


if __name__ == "__main__":
    main()
