"""Linear constraints over the unknown coefficient vector k.

The synthesis formula is a necessary condition on k: every k for which
some threshold c makes (k, c) inductive for every transition and
separating for the instance satisfies it, but a k that satisfies it may
admit no such c. Synthesis and the no-separator verdict rely on this
direction only; each candidate is then checked exactly. Atoms keep
concrete integer coefficients so formulas can be both evaluated locally
(exact arithmetic) and emitted as SMT-LIB2. There is no negation: every
formula is atoms under conjunction and disjunction (negation normal form).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache
from math import gcd
from operator import mul, sub
from typing import NamedTuple, Sequence, Union

from .net import Instance, IntVector, Mode, Transition

Formula = Union["Atom", "Conj", "Disj"]

_RELS = {
    ">=": operator.ge,
    ">": operator.gt,
    "=": operator.eq,
    "<=": operator.le,
    "<": operator.lt,
}


@dataclass(frozen=True)
class Atom:
    """coeffs . k REL rhs with concrete integer coefficients."""

    coeffs: IntVector
    rel: str
    rhs: int

    def __post_init__(self):
        if self.rel not in _RELS:
            raise ValueError(f"bad relation {self.rel!r}")
        if type(self.coeffs) is not tuple:
            object.__setattr__(self, "coeffs", tuple(self.coeffs))


@dataclass(frozen=True)
class Conj:
    parts: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class Disj:
    parts: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


def evaluate(f: Formula, k: Sequence[int]) -> bool:
    """Evaluate under the assignment k with exact integer arithmetic."""
    kind = type(f)
    if kind is Atom:
        return _RELS[f.rel](sum(map(mul, f.coeffs, k)), f.rhs)
    if kind is Conj:
        for p in f.parts:
            if not evaluate(p, k):
                return False
        return True
    if kind is Disj:
        for p in f.parts:
            if evaluate(p, k):
                return True
        return False
    raise TypeError(f"not a formula: {f!r}")


def _unit(n: int, i: int, value: int = 1) -> IntVector:
    v = [0] * n
    v[i] = value
    return tuple(v)


class _SignParts(NamedTuple):
    """Per-place pieces every transition of an n-place net shares."""

    zeros: tuple[Atom, ...]  # k(i) = 0
    nonneg: Conj  # k >= 0
    nonpos: Conj  # k <= 0
    sign_pure: Disj  # k >= 0 or k <= 0


@cache
def _sign_parts(n: int) -> _SignParts:
    """Immutable, so one copy per arity serves every formula."""
    units = [_unit(n, i) for i in range(n)]
    nonneg = Conj(tuple(Atom(e_i, ">=", 0) for e_i in units))
    nonpos = Conj(tuple(Atom(e_i, "<=", 0) for e_i in units))
    zeros = tuple(Atom(e_i, "=", 0) for e_i in units)
    return _SignParts(zeros, nonneg, nonpos, Disj((nonneg, nonpos)))


def separation_condition(inst: Instance) -> Atom:
    """k . m_init > k . m_final: some threshold can split the markings."""
    return Atom(tuple(map(sub, inst.m_init, inst.m_final)), ">", 0)


def transition_options(inst: Instance, t: Transition) -> Disj:
    """Ways a transition can admit a separating inductive threshold.

    Either firing never lowers the product; or k <= 0 with the enabling
    products strictly below k.m_init (a threshold just above them still
    admits m_init); or k >= 0 with the fired products strictly above
    k.m_final; or k is sign-pure and every nonzero |k(i)| spans the drop
    -k.delta, which makes a non-trivial threshold exist.
    """
    return _options(inst, t, _sign_parts(inst.net.n))


def _options(inst: Instance, t: Transition, shared: _SignParts) -> Disj:
    # Instance has checked every arity, so plain elementwise maps suffice.
    delta = t.delta
    oriented = Atom(delta, ">=", 0)
    antitone = Conj((shared.nonpos, Atom(tuple(map(sub, inst.m_init, t.pre)), ">", 0)))
    monotone = Conj((shared.nonneg, Atom(tuple(map(sub, t.post, inst.m_final)), ">", 0)))
    spans = []
    for i, zero in enumerate(shared.zeros):
        up = list(delta)
        up[i] += 1  # k(i) >= -k.delta
        down = list(delta)
        down[i] -= 1  # -k(i) >= -k.delta
        spans.append(Disj((zero, Atom(tuple(up), ">=", 0), Atom(tuple(down), ">=", 0))))
    wide_enough = Conj(tuple(spans))
    return Disj((oriented, antitone, monotone, Conj((shared.sign_pure, wide_enough))))


def transition_formula(inst: Instance, t: Transition) -> Conj:
    """Separation plus the admissibility disjunction for one transition."""
    return Conj((separation_condition(inst), transition_options(inst, t)))


def separator_formula(inst: Instance) -> Conj:
    """Necessary condition on k for a separating inductive threshold.

    Every k admitting such a threshold satisfies it; the converse fails,
    so a satisfying k still goes through generate_constants and the exact
    checker, and a failed one is excluded by refinement. Cover mode
    appends k <= 0, which characterizes half spaces disjoint from the
    whole upward closure of the target.
    """
    shared = _sign_parts(inst.net.n)
    parts: list[Formula] = [separation_condition(inst)]
    parts.extend(_options(inst, t, shared) for t in inst.net.transitions)
    if inst.mode is Mode.COVER:
        parts.append(shared.nonpos)
    return Conj(tuple(parts))


def trivial_separator_formula(inst: Instance) -> Conj:
    """Fast-path variant: every transition must fall in a cheap case."""
    full = separator_formula(inst).parts
    m = len(inst.net.transitions)
    # Drop each transition's non-trivial branch.
    cheap = (Disj(opts.parts[:3]) for opts in full[1 : 1 + m])
    return Conj((full[0], *cheap, *full[1 + m :]))


def bound_constraint(n: int, bound: int) -> Conj:
    """-bound <= k(i) <= bound for every place."""
    if bound < 1:
        raise ValueError("bound must be positive")
    parts = []
    for i in range(n):
        e_i = _unit(n, i)
        parts.append(Atom(e_i, "<=", bound))
        parts.append(Atom(e_i, ">=", -bound))
    return Conj(tuple(parts))


def exclude_multiples(k_hat: Sequence[int]) -> Disj:
    """Forbid every positive integer multiple of the primitive vector k_hat.

    An integer k is such a multiple iff all cross products with the pivot
    p match (collinearity) and k(p) has the strict sign of k_hat(p):
    collinearity makes k a rational multiple a * k_hat, and since k_hat is
    primitive an integer k forces a to be an integer, which the sign makes
    positive. The refinement added after a failed candidate negates that,
    as one disjunction: a cross product off zero, or k(p) zero or of the
    other sign. Every atom is homogeneous, so the refined formula keeps the
    scaling property of separator_formula.
    """
    k_hat = tuple(k_hat)
    n = len(k_hat)
    if all(x == 0 for x in k_hat):
        raise ValueError("cannot exclude multiples of the zero vector")
    if gcd(*k_hat) != 1:
        raise ValueError("exclusion requires a primitive vector")
    p = next(i for i in range(n) if k_hat[i] != 0)
    parts = []
    for i in range(n):
        if i == p:
            continue
        coeffs = [0] * n
        coeffs[i] = k_hat[p]
        coeffs[p] = -k_hat[i]
        c_i = tuple(coeffs)  # k_hat(p) k(i) != k_hat(i) k(p)
        parts += (Atom(c_i, ">", 0), Atom(c_i, "<", 0))
    parts.append(Atom(_unit(n, p), "<=" if k_hat[p] > 0 else ">=", 0))
    return Disj(tuple(parts))


def is_multiple_of(k: Sequence[int], k_hat: Sequence[int]) -> bool:
    """Reference predicate: k == a * k_hat for some integer a >= 1."""
    pivs = [(x, y) for x, y in zip(k, k_hat) if y != 0]
    if not pivs:
        return False
    x0, y0 = pivs[0]
    if x0 % y0 != 0:
        return False
    a = x0 // y0
    if a < 1:
        return False
    return all(x == a * y for x, y in zip(k, k_hat))


# -- SMT-LIB2 emission -------------------------------------------------


def _smt_int(v: int) -> str:
    return str(v) if v >= 0 else f"(- {-v})"


def _smt_linear(coeffs: Sequence[int], names: Sequence[str]) -> str:
    terms = []
    for c, name in zip(coeffs, names):
        if c == 0:
            continue
        terms.append(name if c == 1 else f"(* {_smt_int(c)} {name})")
    if not terms:
        return "0"
    if len(terms) == 1:
        return terms[0]
    return "(+ " + " ".join(terms) + ")"


def to_smt(f: Formula, names: Sequence[str]) -> str:
    """Render as an SMT-LIB2 term over the given variable names."""
    if isinstance(f, Atom):
        return f"({f.rel} {_smt_linear(f.coeffs, names)} {_smt_int(f.rhs)})"
    if isinstance(f, Conj):
        if not f.parts:
            return "true"
        return "(and " + " ".join(to_smt(p, names) for p in f.parts) + ")"
    if isinstance(f, Disj):
        if not f.parts:
            return "false"
        return "(or " + " ".join(to_smt(p, names) for p in f.parts) + ")"
    raise TypeError(f"not a formula: {f!r}")
