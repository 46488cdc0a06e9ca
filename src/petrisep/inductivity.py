"""Deciding whether a half space is invariant under a transition.

A half space (k, c) is inductive for transition t when firing t cannot leave
it: there is no x >= 0 with c <= k.x + k.pre < c - k.delta. The checker
exploits three cheap sufficient conditions, a constructive refutation for
sign-mixed k, and otherwise a shortest-path search over the residue
classes modulo the smallest nonzero |k(i)|, so it settles at most that
many classes however large c is.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .jsondoc import FLAT, INLINE, JsonDoc
from .net import HalfSpace, IntVector, PetriNet, Transition, dot


def is_mixed(k: Sequence[int]) -> bool:
    """True iff k has both a strictly positive and a strictly negative entry."""
    return any(x > 0 for x in k) and any(x < 0 for x in k)


@dataclass(frozen=True)
class TrivialFlags:
    """Cheap sufficient conditions for inductivity of (k, c) against t.

    oriented: firing never decreases k.m (k.delta >= 0).
    monotone: k >= 0 and every marking enabling t is already above c
              after firing (k.(pre + delta) >= c).
    antitone: k <= 0 and no marking enabling t is inside (k.pre < c).
    """

    oriented: bool
    monotone: bool
    antitone: bool

    @property
    def any(self) -> bool:
        return self.oriented or self.monotone or self.antitone


def classify_trivial(k: Sequence[int], c: int, t: Transition) -> TrivialFlags:
    kd = dot(k, t.delta)
    oriented = kd >= 0
    monotone = all(x >= 0 for x in k) and dot(k, t.post) >= c
    antitone = all(x <= 0 for x in k) and dot(k, t.pre) < c
    return TrivialFlags(oriented, monotone, antitone)


def witness_bound(k: Sequence[int], c: int, t: Transition) -> int:
    """Span of scalar products the search can visit, for unmixed k.

    If k is sign-pure and (k, c) is not t-inductive, a witness x exists
    with every entry at most this bound. Each residue class the exact
    search settles holds a distinct attainable offset within this span, so
    it settles at most bound + 1 classes. Mixed k admits no such box and is
    decided without it.
    """
    base = dot(k, t.pre)
    hi = c - dot(k, t.delta)
    return abs(max(base, hi) - min(base, c))


def mixed_counterexample(k: Sequence[int], c: int, t: Transition) -> IntVector:
    """Witness x >= 0 with c <= k.(x + pre) < c - k.delta, for mixed k.

    Requires k mixed and k.delta < 0. Starts from a single-place vector u
    with k.u >= c, steps down by whole multiples of delta to land the
    scalar product inside [c, c - k.delta), then repairs negative entries
    with zero-product combination vectors so the result dominates pre.
    """
    n = len(k)
    kd = dot(k, t.delta)
    if not is_mixed(k) or kd >= 0:
        raise ValueError("construction needs mixed k and k.delta < 0")
    ipos = next(i for i in range(n) if k[i] > 0)
    ineg = next(i for i in range(n) if k[i] < 0)

    v = [0] * n
    v[ipos] = -(-c // k[ipos])  # ceil division, exact for any size of c
    steps = (c - k[ipos] * v[ipos]) // kd  # floor; lands product in window
    for i in range(n):
        v[i] += steps * t.delta[i]

    # Per-place repair vectors with zero scalar product and positive entry
    # at the repaired place, so adding them never moves the product.
    for p in range(n):
        if k[p] > 0:
            syz = {p: -k[ineg], ineg: k[p]}
        elif k[p] < 0:
            syz = {ipos: -k[p], p: k[ipos]}
        else:
            syz = {p: 1}
        deficit = t.pre[p] - v[p]
        if deficit > 0:
            mult = -(-deficit // syz[p])  # ceil division
            for j, val in syz.items():
                v[j] += mult * val
    x = tuple(v[i] - t.pre[i] for i in range(n))
    assert all(e >= 0 for e in x)
    s = dot(k, v)
    assert c <= s < c - kd
    return x


@dataclass(frozen=True)
class TransitionCheck(JsonDoc):
    transition: str
    inductive: bool
    flags: TrivialFlags = field(metadata=FLAT)
    witness: Optional[IntVector] = None  # x >= 0 violating inductivity
    witness_value: Optional[int] = None  # k.(x + pre) for that x
    # check_transition: residue classes settled by the exact search;
    # oracle_check_transition: grid points visited by the pruned walk.
    sums_explored: int = 0

    def describe(self) -> str:
        """Short class label: which cheap condition applied, if any."""
        names = []
        if self.flags.oriented:
            names.append("oriented")
        if self.flags.monotone:
            names.append("monotone")
        if self.flags.antitone:
            names.append("antitone")
        return "+".join(names) if names else "non-trivial"


def check_transition(k: Sequence[int], c: int, t: Transition) -> TransitionCheck:
    """Decide t-inductivity of (k, c) exactly."""
    k = tuple(k)
    flags = classify_trivial(k, c, t)
    if flags.any:
        return TransitionCheck(t.name, True, flags)

    kd = dot(k, t.delta)  # < 0 here, else oriented
    if is_mixed(k):
        x = mixed_counterexample(k, c, t)
        return TransitionCheck(t.name, False, flags, x, dot(k, x) + dot(k, t.pre))

    # k unmixed and k.delta < 0: attainable products are base moved away
    # (up for k >= 0, down for k <= 0) by an offset in the numerical
    # semigroup of the coins |k(i)|. The window becomes offsets [lo, hi];
    # lo <= hi here, since the monotone and antitone flags were false.
    base = dot(k, t.pre)
    sign = 1 if all(x >= 0 for x in k) else -1
    if sign > 0:
        lo, hi = max(c - base, 0), c - kd - 1 - base
    else:
        lo, hi = max(base - c + kd + 1, 0), base - c

    # Dijkstra over residues modulo the smallest coin a (Nijenhuis 1979):
    # least[r] is the least attainable offset congruent to r, and every
    # offset least[r] + j*a is attainable too. Offsets past hi are pruned.
    coins = sorted({abs(x) for x in k if x != 0})
    a = coins[0]
    least = {0: 0}
    pred: dict[int, tuple[int, int]] = {}
    settled: set[int] = set()
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if r in settled:
            continue
        settled.add(r)
        s = max(d, lo)
        s += (d - s) % a  # least s >= max(d, lo) congruent to d mod a
        if s <= hi:
            x = [0] * len(k)
            x[k.index(sign * a)] = (s - d) // a
            while r:
                r, coin = pred[r]
                x[k.index(sign * coin)] += 1
            value = base + sign * s
            return TransitionCheck(t.name, False, flags, tuple(x), value, len(settled))
        for coin in coins[1:]:
            nd = d + coin
            nr = nd % a
            if nd <= hi and nd < least.get(nr, nd + 1):
                least[nr] = nd
                pred[nr] = (r, coin)
                heapq.heappush(heap, (nd, nr))
    return TransitionCheck(t.name, True, flags, sums_explored=len(settled))


@dataclass(frozen=True)
class NetCheck(JsonDoc):
    per_transition: tuple[TransitionCheck, ...] = field(metadata=INLINE)

    @property
    def inductive(self) -> bool:
        return all(r.inductive for r in self.per_transition)

    def failing(self) -> list[TransitionCheck]:
        return [r for r in self.per_transition if not r.inductive]


def check_net(net: PetriNet, hs: HalfSpace) -> NetCheck:
    """Check inductivity of the half space against every transition."""
    return NetCheck(tuple(check_transition(hs.k, hs.c, t) for t in net.transitions))


class OracleBudgetError(RuntimeError):
    """The exhaustive check would enumerate more points than allowed."""


def oracle_check_transition(
    k: Sequence[int], c: int, t: Transition, max_points: int = 10_000_000
) -> TransitionCheck:
    """Reference check, independent of check_transition.

    Sign-pure k is enumerated over the [0, bound]^n grid in odometer order
    (a valid cutoff: partial sums move one way, so a witness needs at
    most bound steps). The walk is pruned at the window's far end: once
    raising a coordinate carries the sum past it, every larger value of
    that coordinate is past it too, so the coordinate is reset and the
    carry moves on; coordinates with k(i) = 0 stay at 0. sums_explored
    counts the points visited: every such grid point short of the window
    that precedes the witness in grid order, plus the witness if there is
    one. The budget is still charged
    for the whole grid: OracleBudgetError is raised when (bound + 1)^n
    exceeds max_points. Sign-mixed k is decided by a divisibility
    argument instead, since no grid of that size is guaranteed to hold a
    witness.
    """
    k = tuple(k)
    flags = classify_trivial(k, c, t)
    kd = dot(k, t.delta)
    if kd >= 0:
        # Window [c, c - k.delta) is empty; nothing can violate.
        return TransitionCheck(t.name, True, flags)
    if is_mixed(k):
        # gcd(k) divides k.delta, so the length |k.delta| window holds a
        # multiple of gcd(k), and with coefficients of both signs every
        # deep enough such multiple is a non-negative combination (push
        # far with the positive side, pull back with the negative side).
        # No witness inside a witness_bound box is guaranteed here, so
        # enumeration would be unsound; the verdict needs no witness.
        return TransitionCheck(t.name, False, flags)
    base = dot(k, t.pre)
    lo, hi = c, c - kd
    n = len(k)
    b = witness_bound(k, c, t)
    if (b + 1) ** n > max_points:
        raise OracleBudgetError(f"grid of {(b + 1) ** n} points exceeds budget")

    up = all(v >= 0 for v in k)

    def short(v: int) -> bool:
        """v has not passed the window's far end."""
        return v < hi if up else v >= lo

    # Odometer enumeration, first coordinate fastest, with a running sum.
    x = [0] * n
    s = base
    count = 0
    while short(s):
        count += 1
        if lo <= s < hi:
            return TransitionCheck(t.name, False, flags, tuple(x), s, count)
        for i in range(n):
            if k[i] and x[i] < b:
                x[i] += 1
                s += k[i]
                if short(s):
                    break
            s -= x[i] * k[i]
            x[i] = 0
        else:
            break
    return TransitionCheck(t.name, True, flags, sums_explored=count)
