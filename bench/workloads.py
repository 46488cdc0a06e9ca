"""The benchmark's three workloads: their inputs, requests and known answers.

Every function that touches petrisep takes the imported package `ps` as an
argument and looks its functions up at call time, so that set-up can import
the package afresh and the traced run can substitute wrapped functions.

A workload provides
  inputs(ps, seed, pins) -> list of Request   (set-up: generate and serialise)
  serve(ps, text, arg)   -> verdict           (one timed request)
  judge(request, verdict) -> bool             (known answer, after the loop)
"""

from __future__ import annotations

import math
import random
from typing import Any, NamedTuple

EXPLORE_POOL = 256  # random_instance seeds 0..255, one pass per shuffle
EXPLORE_BUDGET = 4000  # max_states, as in the criterion-10 reachability scan

USSP_CASES = 256  # one case per log-stratum of d in [1, 1e5]
USSP_MAX_EXP = 5.0
# check serves one fixed draw, as explore and candidates serve fixed pools:
# its costs spread over four decades and depend on w as much as on d, and a
# few small configurations with a large oracle grid land above p90, so a
# fresh draw per seed moved p50 by 15% and p90 by 6% between seeds.
CHECK_POOL_SEED = 0
SMALL_CASES = 64
FAMILY_SIZES = range(3, 11)

CANDIDATE_INSTANCES = 60  # random instances besides the running example and family


class Request(NamedTuple):
    text: str  # net file contents
    arg: Any  # k (candidates) or (k, c) (check), as the command line takes them
    expect: Any  # known answer, compared after the timed loop
    label: str


# -- known answers that do not come from the code being timed ----------


def representable(coins: tuple[int, ...], lo: int, hi: int) -> bool:
    """Is some v in [lo, hi] a non-negative integer combination of coins?

    Coin DP as in acceptance criterion 7. For two coprime coins every
    v >= (a-1)(b-1) is a combination (Sylvester), which caps the table.
    """
    lo = max(lo, 0)
    if lo > hi:
        return False
    coins = tuple(sorted(set(c for c in coins if c > 0)))
    if not coins:
        return lo == 0
    if len(coins) == 2 and math.gcd(*coins) == 1:
        if hi >= (coins[0] - 1) * (coins[1] - 1):
            return True
    reach = [False] * (hi + 1)
    reach[0] = True
    for v in range(1, hi + 1):
        reach[v] = any(v >= c and reach[v - c] for c in coins)
    return any(reach[lo : hi + 1])


def reference_inductive(k, c, pre, post) -> bool:
    """(k, c) is inductive for (pre, post) iff no x >= 0 puts k.(x + pre)
    in the window [c, c - k.delta)."""
    kd = sum(a * (q - p) for a, p, q in zip(k, pre, post))
    if kd >= 0:
        return True
    if any(a > 0 for a in k) and any(a < 0 for a in k):
        # Both signs reach every multiple of gcd(k) from k.pre, and the
        # window is at least gcd(k) wide.
        return False
    base = sum(a * p for a, p in zip(k, pre))
    lo, hi = c, c - kd - 1
    coins = tuple(abs(a) for a in k)
    if all(a >= 0 for a in k):
        return not representable(coins, lo - base, hi - base)
    return not representable(coins, base - hi, base - lo)


# -- explore: parse_instance + bounded_explore --------------------------


def explore_inputs(ps, seed: int, pins: dict) -> list[Request]:
    known = pins["explore"]
    out = []
    for s in range(EXPLORE_POOL):
        text = ps.format_instance(ps.random_instance(s))
        out.append(Request(text, None, tuple(known[str(s)]), f"seed {s}"))
    return out


def explore_serve(ps, text: str, arg) -> tuple:
    report = ps.bounded_explore(ps.parse_instance(text), max_states=EXPLORE_BUDGET)
    return report.outcome.value, report.states_visited


def same_verdict(req: Request, verdict) -> bool:
    return verdict == req.expect


# -- check: parse_instance + certify ------------------------------------


def _coprime_pair(rng: random.Random) -> tuple[int, int]:
    while True:
        w = (rng.randint(2, 60), rng.randint(2, 60))
        if math.gcd(*w) == 1:
            return w


def check_inputs(ps, seed: int, pins: dict) -> list[Request]:
    rng = random.Random(CHECK_POOL_SEED)
    out = []
    # Subset-sum encodings: the exact BFS explores about d sums.
    for i in range(USSP_CASES):
        d = max(1, round(10 ** ((i + rng.random()) / USSP_CASES * USSP_MAX_EXP)))
        w = _coprime_pair(rng)
        net, hs = ps.ussp_halfspace(w, d)
        m_init = (-(-hs.c // w[0]), 0)  # k.m_init >= c; k.(0, 0) = 0 < c
        inst = ps.Instance(net, m_init, (0, 0))
        inductive = not representable(w, d, d)
        out.append(
            Request(ps.format_instance(inst), (hs.k, hs.c), (inductive, inductive),
                    f"ussp w={w} d={d}")
        )
    # The hard family's certificates hold; one more on c breaks them.
    for n in FAMILY_SIZES:
        inst = ps.nontrivial_net(n)
        hs = ps.nontrivial_certificate(n)
        text = ps.format_instance(inst)
        out.append(Request(text, (hs.k, hs.c), (True, True), f"family n={n}"))
        out.append(Request(text, (hs.k, hs.c + 1), (False, False), f"family n={n} c+1"))
    # Small configurations in acceptance criterion 5's ranges.
    for i in range(SMALL_CASES):
        n = rng.randint(1, 3)
        k = tuple(rng.randint(-8, 8) for _ in range(n))
        c = rng.randint(-40, 40)
        pre = tuple(rng.randint(0, 4) for _ in range(n))
        post = tuple(rng.randint(0, 4) for _ in range(n))
        m_init = tuple(rng.randint(0, 4) for _ in range(n))
        m_final = tuple(rng.randint(0, 4) for _ in range(n))
        net = ps.PetriNet(tuple(f"p{j}" for j in range(1, n + 1)),
                          (ps.Transition("t", pre, post),))
        inst = ps.Instance(net, m_init, m_final)
        inductive = reference_inductive(k, c, pre, post)
        separates = (sum(a * m for a, m in zip(k, m_init)) >= c
                     and sum(a * m for a, m in zip(k, m_final)) < c)
        out.append(
            Request(ps.format_instance(inst), (k, c), (inductive, inductive and separates),
                    f"small k={k} c={c}")
        )
    return out


def check_serve(ps, text: str, arg) -> tuple:
    k, c = arg
    report = ps.certify(ps.parse_instance(text), ps.HalfSpace(k, c))
    per = tuple(r.inductive for r in report.inductivity.per_transition)
    return report.inductivity.inductive, report.ok, per, tuple(v for _, v in report.oracle)


def check_judge(req: Request, verdict) -> bool:
    inductive, ok, per, oracle = verdict
    agree = all(o is None or o == p for p, o in zip(per, oracle))
    return agree and (inductive, ok) == req.expect


# -- candidates: the per-iteration work of cegar.attempt ------------------


def running_example(ps):
    t = ps.Transition("t", (2, 1), (1, 2))
    u = ps.Transition("u", (1, 2), (0, 4))
    v = ps.Transition("v", (1, 0), (2, 1))
    return ps.Instance(ps.PetriNet(("p1", "p2"), (t, u, v)), (3, 1), (0, 4))


def candidate_instances(ps) -> list[tuple[str, Any]]:
    out = [("running", running_example(ps))]
    out += [(f"nontrivial {n}", ps.nontrivial_net(n)) for n in FAMILY_SIZES]
    for s in range(CANDIDATE_INSTANCES):
        mode = ps.Mode.REACH if s % 2 == 0 else ps.Mode.COVER
        inst = ps.random_instance(s, places=2 + s % 3, max_marking=30, mode=mode)
        out.append((f"random {s} {mode.value}", inst))
    return out


def candidates_inputs(ps, seed: int, pins: dict) -> list[Request]:
    """The pinned candidate pool (see pin.py), on instances built afresh."""
    texts = {label: ps.format_instance(inst) for label, inst in candidate_instances(ps)}
    return [
        Request(texts[label], tuple(k), ("found", c) if c is not None else ("refused", None),
                label)
        for label, k, c in pins["candidates"]
    ]


def candidates_serve(ps, text: str, k) -> tuple:
    inst = ps.parse_instance(text)
    f = ps.formula
    if not f.evaluate(f.separator_formula(inst), k):
        return ("formula-rejects", None)
    report = ps.constants_for_instance(inst, k)
    if report.chosen is None:
        # The refinement the loop would send: exclude k and its multiples.
        f.to_smt(f.exclude_multiples(k), [f"k{i}" for i in range(len(k))])
        return ("refused", None)
    hs = ps.HalfSpace(k, report.chosen)
    if not (ps.verify_separator(inst, hs).ok and ps.check_net(inst.net, hs).inductive):
        return ("unverified", report.chosen)
    return ("found", report.chosen)


class Workload(NamedTuple):
    inputs: Any
    serve: Any
    judge: Any


WORKLOADS = {
    "explore": Workload(explore_inputs, explore_serve, same_verdict),
    "check": Workload(check_inputs, check_serve, check_judge),
    "candidates": Workload(candidates_inputs, candidates_serve, same_verdict),
}

