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
from dataclasses import field
from enum import Enum
from typing import TYPE_CHECKING, Optional

from .constants import constants_for_instance, normalize_primitive
from .formula import (
    bound_constraint,
    exclude_multiples,
    separator_formula,
    trivial_separator_formula,
)
from .inductivity import NetCheck, OracleBudgetError, check_net, oracle_check_transition
from .jsondoc import JsonDoc, Record, key, record
from .net import HalfSpace, Instance, IntVector, SeparatorVerdict, verify_separator

if TYPE_CHECKING:
    from .solver import SmtSession, SolverConfig


class Outcome(Enum):
    FOUND = "found"
    NO_SEPARATOR = "no-separator"
    EXHAUSTED = "exhausted"


@record
class LoopBudget(Record):
    """Limits on one synthesis run: candidates, wall seconds, and an optional |k(i)| box."""

    max_iterations: int = 200
    max_seconds: float = 300.0
    max_bound: Optional[int] = None  # box |k(i)| <= max_bound on every candidate

    def __post_init__(self):
        if not isinstance(self.max_iterations, int):
            raise TypeError(f"iteration budget must be an integer, not {self.max_iterations!r}")
        if not isinstance(self.max_bound, (int, type(None))):
            raise TypeError(f"bound cap must be an integer, not {self.max_bound!r}")
        if self.max_iterations < 1 or not self.max_seconds > 0:  # also rejects nan
            raise ValueError("budget must be positive")
        if self.max_bound is not None and self.max_bound < 1:
            raise ValueError("bound cap must be positive")


@record
class SynthesisStats(JsonDoc):
    """Work one synthesis run did: candidates, solver queries, wall time."""

    iterations: int  # candidate vectors examined
    solver_queries: int
    wall_seconds: float
    fast_path: bool  # certificate came from the all-trivial check
    examined: tuple[IntVector, ...]  # normalized candidates, in order


@record
class SynthesisResult(JsonDoc):
    """Outcome of synthesize; on FOUND, the certificate with its two checks."""

    outcome: Outcome
    halfspace: Optional[HalfSpace]
    separator: Optional[SeparatorVerdict]
    inductivity: Optional[NetCheck] = field(metadata=key("transitions"))
    stats: SynthesisStats


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
    # Loaded here, not at the top: only synthesis needs the solver pipe,
    # so importing the package and every other command skip it.
    from .solver import SmtSession, SolverConfig

    budget = budget if budget is not None else LoopBudget()
    if session is not None:
        return _run(inst, budget, session)
    with SmtSession(cfg if cfg is not None else SolverConfig()) as session:
        return _run(inst, budget, session)


def _run(inst: Instance, budget: LoopBudget, session: SmtSession) -> SynthesisResult:
    t0 = time.monotonic()
    q0 = session.queries
    n = inst.net.n
    examined: list[IntVector] = []

    def finish(outcome, hs=None, sep=None, chk=None, fast=False):
        stats = SynthesisStats(
            len(examined),
            session.queries - q0,
            time.monotonic() - t0,
            fast,
            tuple(examined),
        )
        return SynthesisResult(outcome, hs, sep, chk, stats)

    def attempt(model: IntVector) -> Optional[tuple[HalfSpace, SeparatorVerdict, NetCheck]]:
        k_hat = normalize_primitive(model)
        examined.append(k_hat)
        report = constants_for_instance(inst, k_hat)
        if report.chosen is None:
            return None
        hs = HalfSpace(k_hat, report.chosen)
        rep = certify(inst, hs, oracle_points=0)
        if not rep.ok:
            raise RuntimeError(
                f"internal error: candidate k={hs.k} c={hs.c} failed re-verification"
            )
        return hs, rep.separator, rep.inductivity

    session.begin(n)
    # Fast path: a vector trivial for every transition, probed in a scope
    # before the base goes in. The trivial formula implies the separator
    # formula, so the base would only add work to this query. Its models
    # always have a workable threshold: c = k.m_init for k <= 0,
    # c = k.m_final + 1 for k >= 0, any c when every transition is oriented.
    box = [bound_constraint(n, budget.max_bound)] if budget.max_bound else []
    model = session.check([trivial_separator_formula(inst), *box])
    if model is not None:
        got = attempt(model)
        if got is None:
            raise RuntimeError(f"internal error: fast-path k={examined[-1]} has no threshold")
        return finish(Outcome.FOUND, *got, fast=True)

    # One problem: the necessary condition over k. Each check returns the
    # model of least sum |k(i)|; an unsat without the box is a proof that
    # no separating inductive half space exists.
    session.add(separator_formula(inst))
    while (
        len(examined) < budget.max_iterations
        and time.monotonic() - t0 < budget.max_seconds
    ):
        model = session.check(box)
        if model is None:
            if box and session.check() is not None:
                return finish(Outcome.EXHAUSTED)  # models remain outside the box
            return finish(Outcome.NO_SEPARATOR)
        got = attempt(model)
        if got is not None:
            return finish(Outcome.FOUND, *got)
        # No threshold for this vector: drop it and all its multiples.
        session.add(exclude_multiples(examined[-1]))
    return finish(Outcome.EXHAUSTED)


@record
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
