"""Synthesis loop: propose k with the solver, fill in c exactly, verify.

The solver only ever chooses the coefficient vector. Thresholds come from
the exact constant generator, every candidate that survives is re-verified
with the standalone inductivity checker and separation test, and a failed
candidate is excluded together with all its positive multiples before the
next round. An unsatisfiable unconstrained formula is a proof that no
separating inductive half space exists at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .constants import constants_for_instance, normalize_primitive
from .formula import (
    bound_constraint,
    exclude_multiples,
    separator_formula,
    trivial_separator_formula,
)
from .inductivity import NetCheck, OracleBudgetError, check_net, oracle_check_transition
from .jsondoc import JsonDoc, key
from .net import HalfSpace, Instance, IntVector, SeparatorVerdict, verify_separator
from .solver import SmtSession, SolverConfig


class Outcome(Enum):
    FOUND = "found"
    NO_SEPARATOR = "no-separator"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class LoopBudget:
    max_iterations: int = 200
    max_seconds: float = 300.0
    max_bound: Optional[int] = None  # cap for the |k(i)| search bound

    def __post_init__(self):
        if self.max_iterations < 1 or self.max_seconds <= 0:
            raise ValueError("budget must be positive")
        if self.max_bound is not None and self.max_bound < 1:
            raise ValueError("bound cap must be positive")


@dataclass(frozen=True)
class SynthesisStats(JsonDoc):
    iterations: int  # candidate vectors examined
    solver_queries: int
    wall_seconds: float
    final_bound: Optional[int]  # bound in force when the loop stopped
    fast_path: bool  # certificate came from the all-trivial check
    examined: tuple[IntVector, ...]  # normalized candidates, in order


@dataclass(frozen=True)
class SynthesisResult(JsonDoc):
    outcome: Outcome
    halfspace: Optional[HalfSpace]
    separator: Optional[SeparatorVerdict]
    inductivity: Optional[NetCheck] = field(metadata=key("transitions"))
    stats: SynthesisStats


def initial_bound(inst: Instance) -> int:
    """Starting cap on |k(i)|: at least 10, at least any instance entry."""
    entries = [10]
    entries.extend(inst.m_init)
    entries.extend(inst.m_final)
    for t in inst.net.transitions:
        entries.extend(t.pre)
        entries.extend(t.post)
    return max(entries)


def synthesize(
    inst: Instance,
    cfg: Optional[SolverConfig] = None,
    budget: Optional[LoopBudget] = None,
    session: Optional[SmtSession] = None,
) -> SynthesisResult:
    """Search for a separating inductive half space for the instance.

    A passed-in session is reused (and left open); otherwise one is opened
    and closed internally. The session runs an external SMT solver when one
    is configured or discovered, and the built-in exact backend otherwise,
    so no binary is required. Solver trouble (a broken external solver,
    timeout, 'unknown') raises; exhausted budgets are an ordinary result.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    budget = budget if budget is not None else LoopBudget()
    own = session is None
    if own:
        session = SmtSession(cfg)
    try:
        return _run(inst, budget, session)
    finally:
        if own:
            session.close()


def _run(inst: Instance, budget: LoopBudget, session: SmtSession) -> SynthesisResult:
    t0 = time.monotonic()
    q0 = session.queries
    n = inst.net.n
    examined: list[IntVector] = []

    def finish(outcome, hs=None, sep=None, chk=None, bound=None, fast=False):
        stats = SynthesisStats(
            len(examined),
            session.queries - q0,
            time.monotonic() - t0,
            bound,
            fast,
            tuple(examined),
        )
        return SynthesisResult(outcome, hs, sep, chk, stats)

    def attempt(model: dict) -> Optional[tuple[HalfSpace, SeparatorVerdict, NetCheck]]:
        k_hat = normalize_primitive(tuple(model[name] for name in session.names))
        examined.append(k_hat)
        report = constants_for_instance(inst, k_hat)
        if report.chosen is None:
            return None
        hs = HalfSpace(k_hat, report.chosen)
        sep = verify_separator(inst, hs)
        chk = check_net(inst.net, hs)
        if not (sep.ok and chk.inductive):
            raise RuntimeError(
                f"internal error: candidate k={hs.k} c={hs.c} failed re-verification"
            )
        return hs, sep, chk

    # Fast path: a vector trivial for every transition. When this formula
    # is satisfiable a workable threshold always exists, so the exact
    # generator below cannot come back empty.
    session.begin(n)
    session.add(trivial_separator_formula(inst))
    model = session.check()
    if model is not None:
        got = attempt(model)
        if got is not None:
            return finish(Outcome.FOUND, *got, fast=True)

    # Necessary condition over k, unconstrained: unsat here is a proof
    # that no separating inductive half space exists.
    session.begin(n)
    session.add(separator_formula(inst))
    if session.check() is None:
        return finish(Outcome.NO_SEPARATOR)

    bound = initial_bound(inst)
    if budget.max_bound is not None:
        bound = min(bound, budget.max_bound)
    while (
        len(examined) < budget.max_iterations
        and time.monotonic() - t0 < budget.max_seconds
    ):
        model = session.check([bound_constraint(n, bound)])
        if model is not None:
            got = attempt(model)
            if got is not None:
                return finish(Outcome.FOUND, *got, bound=bound)
            # No threshold for this vector: drop it and all its multiples.
            session.add(exclude_multiples(examined[-1]))
        else:
            if session.check() is None:
                # Even without the bound nothing is left.
                return finish(Outcome.NO_SEPARATOR)
            if budget.max_bound is not None and bound >= budget.max_bound:
                return finish(Outcome.EXHAUSTED, bound=bound)
            bound *= 2
            if budget.max_bound is not None:
                bound = min(bound, budget.max_bound)
    return finish(Outcome.EXHAUSTED, bound=bound)


@dataclass(frozen=True)
class CertificateReport(JsonDoc):
    """Independent re-check of a claimed certificate.

    oracle holds one entry per transition: True/False for the exhaustive
    verdict, None when its grid exceeded the point budget or was skipped.
    """

    separator: SeparatorVerdict
    inductivity: NetCheck = field(metadata=key("transitions"))
    oracle: tuple[tuple[str, Optional[bool]], ...]

    @property
    def ok(self) -> bool:
        if not (self.separator.ok and self.inductivity.inductive):
            return False
        return all(v is not False for _, v in self.oracle)

    def to_json(self) -> dict:
        return {**super().to_json(), "ok": self.ok}


def certify(
    inst: Instance, hs: HalfSpace, oracle_points: int = 200_000
) -> CertificateReport:
    """Re-check a half space with every independent means available.

    oracle_points=0 calls no brute-force oracle: every transition gets None.
    """
    sep = verify_separator(inst, hs)
    chk = check_net(inst.net, hs)
    oracle: list[tuple[str, Optional[bool]]] = []
    for t in inst.net.transitions:
        verdict = None
        if oracle_points > 0:
            try:
                r = oracle_check_transition(hs.k, hs.c, t, max_points=oracle_points)
                verdict = r.inductive
            except OracleBudgetError:
                pass
        oracle.append((t.name, verdict))
    return CertificateReport(sep, chk, tuple(oracle))
