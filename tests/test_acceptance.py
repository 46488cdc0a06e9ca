"""Acceptance gate: ten end-to-end criteria, one PASS/FAIL line each.

Each test prints "ACCEPTANCE <n> <label>: PASS|FAIL" (bypassing capture)
and then asserts, so a red run still shows the full scoreboard.
"""

import math
import random
import time
from functools import lru_cache

from petrisep import (
    HalfSpace,
    LoopBudget,
    Outcome,
    SmtSession,
    SolverConfig,
    Transition,
    bounded_explore,
    certify,
    check_net,
    check_transition,
    dot,
    frobenius_limit,
    generate_constants,
    is_mixed,
    mixed_counterexample,
    nontrivial_certificate,
    nontrivial_net,
    oracle_check_transition,
    random_instance,
    synthesize,
    ussp_halfspace,
    verify_separator,
)
from petrisep.formula import trivial_separator_formula
from petrisep.net import ExplorationOutcome

from conftest import two_place_instance


def verdict(announce, num: int, label: str, ok: bool, detail: str = "") -> None:
    announce(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed {detail}".rstrip()


def test_criterion_01_running_example_thresholds(announce):
    inst = two_place_instance()
    k = (3, 2)

    nine = check_net(inst.net, HalfSpace(k, 9))
    sep = verify_separator(inst, HalfSpace(k, 9))
    ok = nine.inductive and sep.ok
    ok = ok and [r.transition for r in nine.per_transition] == ["t", "u", "v"]

    eight = check_net(inst.net, HalfSpace(k, 8))
    bad = [r for r in eight.per_transition if not r.inductive]
    ok = ok and [r.transition for r in bad] == ["t"]
    if ok:
        r = bad[0]
        t = inst.net.transitions[0]
        exact = dot(k, r.witness) + dot(k, t.pre)
        ok = r.witness_value == 8 and exact == 8
    verdict(announce, 1, "running example thresholds 9 and 8", ok)


def test_criterion_02_known_certificates(announce):
    inst = two_place_instance()
    ok = True
    for k, c in (((8, 5), 22), ((53, 52), 209)):
        hs = HalfSpace(k, c)
        ok = ok and check_net(inst.net, hs).inductive
        ok = ok and verify_separator(inst, hs).ok
        ok = ok and certify(inst, hs).ok
    verdict(announce, 2, "known certificates (8,5),22 and (53,52),209", ok)


def test_criterion_03_nontrivial_family(announce):
    ok = True
    detail = ""
    slowest = 0.0
    with SmtSession(SolverConfig()) as session:
        for n in range(3, 11):
            t0 = time.monotonic()
            inst = nontrivial_net(n)
            hs = nontrivial_certificate(n)
            chk = check_net(inst.net, hs)
            good = verify_separator(inst, hs).ok and chk.inductive
            good = good and all(not r.flags.any for r in chk.per_transition)
            # the trivial-only fast path must come back empty handed
            session.begin(n)
            session.add(trivial_separator_formula(inst))
            good = good and session.check() is None
            elapsed = time.monotonic() - t0
            if n == 10:
                slowest = elapsed
                good = good and elapsed < 30.0
            if not good:
                ok = False
                detail = f"(n = {n})"
                break
    verdict(
        announce,
        3,
        f"non-trivial family n=3..10 (n=10 in {slowest:.1f}s)",
        ok,
        detail,
    )


def test_criterion_04_end_to_end_synthesis(announce):
    instances = [("running example", two_place_instance())]
    instances += [(f"family n={n}", nontrivial_net(n)) for n in range(3, 7)]
    cfg = SolverConfig()
    ok = True
    detail = ""
    times = []
    with SmtSession(cfg) as session:
        for label, inst in instances:
            t0 = time.monotonic()
            result = synthesize(
                inst, cfg, LoopBudget(max_seconds=60), session=session
            )
            elapsed = time.monotonic() - t0
            times.append(elapsed)
            good = elapsed <= 60 and result.outcome is Outcome.FOUND
            good = good and certify(inst, result.halfspace).ok
            if not good:
                ok = False
                detail = f"({label}: {result.outcome.value} in {elapsed:.1f}s)"
                break
    verdict(
        announce,
        4,
        f"end-to-end synthesis, slowest {max(times):.1f}s of 60s",
        ok,
        detail,
    )


def test_criterion_05_checker_matches_oracle_10k(announce):
    rng = random.Random(12345)
    disagreements = 0
    for _ in range(10_000):
        n = rng.randint(1, 3)
        k = tuple(rng.randint(-8, 8) for _ in range(n))
        c = rng.randint(-40, 40)
        t = Transition(
            "t",
            tuple(rng.randint(0, 4) for _ in range(n)),
            tuple(rng.randint(0, 4) for _ in range(n)),
        )
        if check_transition(k, c, t).inductive != oracle_check_transition(
            k, c, t
        ).inductive:
            disagreements += 1
    verdict(
        announce,
        5,
        "checker vs oracle on 10000 random configurations",
        disagreements == 0,
        f"({disagreements} disagreements)",
    )


def test_criterion_06_constants_exactness_1000(announce):
    rng = random.Random(31337)
    mismatches = 0
    trials = 0
    while trials < 1000:
        n = rng.randint(1, 3)
        sign = rng.choice((1, -1))
        k = tuple(sign * rng.randint(0, 6) for _ in range(n))
        if all(x == 0 for x in k):
            continue
        t = Transition(
            "t",
            tuple(rng.randint(0, 4) for _ in range(n)),
            tuple(rng.randint(0, 4) for _ in range(n)),
        )
        lo = rng.randint(-40, 30)
        hi = lo + rng.randint(0, 60)
        generated = generate_constants(k, t, window=(lo, hi))
        for c in range(lo, hi + 1):
            if (c in generated) != check_transition(k, c, t).inductive:
                mismatches += 1
        trials += 1
    verdict(
        announce,
        6,
        "threshold generator vs checker on 1000 windows",
        mismatches == 0,
        f"({mismatches} mismatches)",
    )


def test_criterion_07_ussp_equivalence_exhaustive(announce):
    failures = 0
    cases = 0
    for w1 in range(1, 13):
        for w2 in range(1, 13):
            w = (w1, w2)
            g = math.gcd(w1, w2)
            reach = [False] * 61
            reach[0] = True
            for v in range(1, 61):
                reach[v] = any(v >= c and reach[v - c] for c in w)
            for d in range(0, 61):
                cases += 1
                enc = ussp_halfspace(w, d)
                if enc is None:
                    if d % g == 0:
                        failures += 1
                    continue
                net, hs = enc
                inductive = check_net(net, hs).inductive
                if inductive != (not reach[d]):
                    failures += 1
    verdict(
        announce,
        7,
        f"subset-sum reduction on {cases} cases",
        failures == 0 and cases == 8784,
        f"({failures} failures)",
    )


def test_criterion_08_mixed_counterexamples_1000(announce):
    rng = random.Random(808)
    produced = 0
    failures = 0
    while produced < 1000:
        n = rng.randint(2, 4)
        k = tuple(rng.randint(-6, 6) for _ in range(n))
        t = Transition(
            "t",
            tuple(rng.randint(0, 4) for _ in range(n)),
            tuple(rng.randint(0, 4) for _ in range(n)),
        )
        if not is_mixed(k) or dot(k, t.delta) >= 0:
            continue
        c = rng.randint(-40, 40)
        x = mixed_counterexample(k, c, t)
        m = tuple(a + b for a, b in zip(x, t.pre))
        hs = HalfSpace(k, c)
        good = (
            all(e >= 0 for e in x)
            and t.is_enabled(m)
            and hs.contains(m)
            and not hs.contains(t.fire(m))
        )
        if not good:
            failures += 1
        produced += 1
    verdict(
        announce,
        8,
        "mixed-vector counterexamples on 1000 random cases",
        failures == 0,
        f"({failures} failures)",
    )


def test_criterion_09_frobenius_bound_exhaustive(announce):
    def representable_window_ok(k: tuple) -> bool:
        limit = frobenius_limit(k)
        top = limit + min(k)
        reach = [False] * (top + 1)
        reach[0] = True
        for v in range(1, top + 1):
            reach[v] = any(v >= c and reach[v - c] for c in k)
        # everything from the limit onward must be representable
        return all(reach[v] for v in range(limit, top + 1))

    violations = 0
    cases = 0
    for a in range(2, 21):
        for b in range(2, 21):
            if math.gcd(a, b) == 1:
                cases += 1
                if not representable_window_ok((a, b)):
                    violations += 1
            for c in range(2, 21):
                if math.gcd(math.gcd(a, b), c) == 1:
                    cases += 1
                    if not representable_window_ok((a, b, c)):
                        violations += 1
    verdict(
        announce,
        9,
        f"Frobenius bound on all {cases} qualifying vectors",
        violations == 0,
        f"({violations} violations)",
    )


def test_criterion_10_never_certifies_reachable_targets(announce):
    reachable = []
    seed = 0
    while len(reachable) < 100 and seed < 20_000:
        inst = random_instance(seed)
        if bounded_explore(inst, max_states=4000).outcome is ExplorationOutcome.REACHED:
            reachable.append(inst)
        seed += 1
    found = 0
    outcomes = {}
    cfg = SolverConfig()
    with SmtSession(cfg) as session:
        for inst in reachable:
            result = synthesize(
                inst,
                cfg,
                LoopBudget(max_iterations=40, max_seconds=30),
                session=session,
            )
            outcomes[result.outcome.value] = outcomes.get(result.outcome.value, 0) + 1
            if result.outcome is Outcome.FOUND:
                found += 1
    verdict(
        announce,
        10,
        f"soundness on {len(reachable)} reachable targets {outcomes}",
        found == 0 and len(reachable) >= 100,
        f"({found} bogus certificates)",
    )
