"""Linear constraints over the unknown coefficient vector k.

The synthesis formula is a necessary condition on k: every k for which
some threshold c makes (k, c) inductive for every transition and
separating for the instance satisfies it, but a k that satisfies it may
admit no such c. Synthesis and the no-separator verdict rely on this
direction only; each candidate is then checked exactly. It is the
separation atom and one of three cases: k <= 0, k >= 0, or every
transition oriented (see separator_formula), with no condition that the
others already imply and no equality. Every atom has one relation,
coeffs . k >= rhs, with concrete integer coefficients, so formulas can be
evaluated locally (exact arithmetic, at integer or rational points),
searched as they are by the built-in backend (exact.py) and emitted as
SMT-LIB2. A strict or reversed comparison is written tightened to the
integers: x > 0 as x >= 1, x <= 0 as -x >= 0, x < 0 as -x >= 1. There is
no negation: every formula is atoms under conjunction and disjunction
(negation normal form).
"""

from __future__ import annotations

from dataclasses import field
from functools import cache
from math import gcd
from operator import mul, sub
from typing import Sequence, Union

from .jsondoc import TUPLE, Record, record
from .net import Instance, IntVector, Mode

Formula = Union["Atom", "Conj", "Disj"]


@record
class Atom(Record):
    """coeffs . k >= rhs with concrete integer coefficients."""

    coeffs: IntVector = field(metadata=TUPLE)
    rhs: int


@record
class Conj(Record):
    """All parts hold; true when there are none."""

    parts: tuple[Formula, ...]


@record
class Disj(Record):
    """Some part holds; false when there are none."""

    parts: tuple[Formula, ...]


def evaluate(f: Formula, k: Sequence[int], den: int = 1) -> bool:
    """Evaluate at the point k / den (den > 0) with exact integer arithmetic."""
    kind = type(f)
    if kind is Atom:
        return sum(map(mul, f.coeffs, k)) >= f.rhs * den
    if kind is Conj:
        for p in f.parts:
            if not evaluate(p, k, den):
                return False
        return True
    if kind is Disj:
        for p in f.parts:
            if evaluate(p, k, den):
                return True
        return False
    raise TypeError(f"not a formula: {f!r}")


def _unit(n: int, i: int, value: int = 1) -> IntVector:
    v = [0] * n
    v[i] = value
    return tuple(v)


@cache
def _sign_parts(n: int) -> tuple[tuple[Atom, ...], ...]:
    """The atoms k(i) >= 0 and -k(i) >= 0; one copy per arity."""
    return tuple(tuple(Atom(_unit(n, i, s), 0) for i in range(n)) for s in (1, -1))


def separation_condition(inst: Instance) -> Atom:
    """k . m_init > k . m_final: some threshold can split the markings."""
    return Atom(tuple(map(sub, inst.m_init, inst.m_final)), 1)


def separator_formula(inst: Instance) -> Conj:
    """Necessary condition on k for a separating inductive threshold.

    The separation atom and one of three cases:
    1. k <= 0, and each transition's enabling products lie strictly
       below k.m_init (a threshold just above them still admits m_init),
       or every k(i) is 0 (written k(i) >= 0) or has -k(i) >= -k.delta,
       which makes a non-trivial threshold exist;
    2. k >= 0, mirrored: the fired products lie strictly above k.m_final,
       or every k(i) is 0 (written -k(i) >= 0) or has k(i) >= -k.delta;
    3. every transition is oriented, the only option of a mixed k.
    An oriented transition (k.delta >= 0) meets every span literal of a
    sign-pure k; with k(i) != 0 the other orthant's span literal implies
    k.delta > 0. Neither is stated. Cover mode keeps case 1 only: k <= 0
    characterizes half spaces disjoint from the target's upward closure.

    Every k admitting such a threshold satisfies it; the converse fails,
    so a satisfying k still goes through generate_constants and the exact
    checker, and a failed one is excluded by refinement.
    """
    return _cases(inst, spans=True)


def trivial_separator_formula(inst: Instance) -> Conj:
    """Fast-path variant: each orthant transition oriented or strict, no spans."""
    return _cases(inst, spans=False)


def _cases(inst: Instance, spans: bool) -> Conj:
    # Instance has checked every arity, so plain elementwise maps suffice.
    nonneg, nonpos = _sign_parts(inst.net.n)
    ts = inst.net.transitions
    oriented = [Atom(t.delta, 0) for t in ts]

    def orthant(signs, others, step: int, strict: list) -> list[Formula]:
        parts: list[Formula] = list(signs)
        for t, o, v in zip(ts, oriented, strict):
            options = (o, Atom(v, 1))
            if spans:
                wide = []
                for i, other in enumerate(others):
                    span = list(t.delta)
                    span[i] += step  # step * k(i) >= -k.delta
                    wide.append(Disj((other, Atom(tuple(span), 0))))
                options = (options[1], Conj(tuple(wide)))
            parts.append(Disj(options))
        return parts

    sep = separation_condition(inst)
    below = orthant(nonpos, nonneg, -1, [tuple(map(sub, inst.m_init, t.pre)) for t in ts])
    if inst.mode is Mode.COVER:
        return Conj((sep, *below))
    above = orthant(nonneg, nonpos, 1, [tuple(map(sub, t.post, inst.m_final)) for t in ts])
    return Conj((sep, Disj((Conj(tuple(below)), Conj(tuple(above)), Conj(tuple(oriented))))))


def bound_constraint(n: int, bound: int) -> Conj:
    """-bound <= k(i) <= bound for every place."""
    if bound < 1:
        raise ValueError("bound must be positive")
    parts = []
    for i in range(n):
        parts.append(Atom(_unit(n, i, -1), -bound))
        parts.append(Atom(_unit(n, i), -bound))
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
        parts += (Atom(c_i, 1), Atom(tuple(-c for c in c_i), 1))
    parts.append(Atom(_unit(n, p, -1 if k_hat[p] > 0 else 1), 0))
    return Disj(tuple(parts))


# -- SMT-LIB2 emission -------------------------------------------------


def _smt_int(v: int) -> str:
    return str(v) if v >= 0 else f"(- {-v})"


def _smt_linear(coeffs: Sequence[int], names: Sequence[str]) -> str:
    terms = []
    for c, name in zip(coeffs, names):
        if c == 0:
            continue
        if c == 1:
            terms.append(name)
        elif c == -1:
            terms.append(f"(- {name})")
        else:
            terms.append(f"(* {_smt_int(c)} {name})")
    if not terms:
        return "0"
    if len(terms) == 1:
        return terms[0]
    return "(+ " + " ".join(terms) + ")"


def to_smt(f: Formula, names: Sequence[str]) -> str:
    """Render as an SMT-LIB2 term over the given variable names."""
    if isinstance(f, Atom):
        return f"(>= {_smt_linear(f.coeffs, names)} {_smt_int(f.rhs)})"
    if isinstance(f, Conj):
        if not f.parts:
            return "true"
        return "(and " + " ".join(to_smt(p, names) for p in f.parts) + ")"
    if isinstance(f, Disj):
        if not f.parts:
            return "false"
        return "(or " + " ".join(to_smt(p, names) for p in f.parts) + ")"
    raise TypeError(f"not a formula: {f!r}")
