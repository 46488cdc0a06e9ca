"""Deciding whether a half space is invariant under a transition.

A half space (k, c) is inductive for transition t when firing t cannot leave
it: there is no x >= 0 with c <= k.x + k.pre < c - k.delta. The checker
exploits three cheap sufficient conditions, a constructive refutation for
sign-mixed k, and otherwise a shortest-path search over the residue
classes modulo the smallest nonzero |k(i)|, so it settles at most that
many classes however large c is. When k has at most two distinct nonzero
magnitudes, the classes that search would settle form a single chain,
and its first class in the window is found with Euclid steps instead, so
the check costs O(log min |k(i)|) arithmetic steps on the numbers given.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import field
from typing import Optional, Sequence

from .jsondoc import FLAT, INLINE, JsonDoc, Record
from .net import HalfSpace, IntVector, PetriNet, Transition, dot

__all__ = ["NetCheck", "OracleBudgetError", "TransitionCheck", "TrivialFlags", "check_net",
           "check_transition", "is_mixed", "mixed_counterexample", "oracle_check_transition",
           "witness_bound"]


def is_mixed(k: Sequence[int]) -> bool:
    """True iff k has both a strictly positive and a strictly negative entry."""
    return bool(k) and min(k) < 0 < max(k)


class TrivialFlags(Record):
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


# Every combination of the three flags, indexed oriented*4 + monotone*2 + antitone.
_FLAGS = tuple(TrivialFlags(*f) for f in itertools.product((False, True), repeat=3))


def _flags(c: int, kmin: int, kmax: int, kpre: int, kpost: int) -> TrivialFlags:
    """The trivial flags from min(k), max(k), k.pre and k.post.

    kmin and kmax are 0 for an empty k, which then counts as both k >= 0
    and k <= 0.
    """
    return _FLAGS[(kpost >= kpre) * 4 + (kmin >= 0 and kpost >= c) * 2
                  + (kmax <= 0 and kpre < c)]


def _span(c: int, kpre: int, kpost: int) -> int:
    """witness_bound from k.pre and k.post: the window is [c, c - k.delta)."""
    return abs(max(kpre, c - kpost + kpre) - min(kpre, c))


def witness_bound(k: Sequence[int], c: int, t: Transition) -> int:
    """Span of scalar products the search can visit, for unmixed k.

    If k is sign-pure and (k, c) is not t-inductive, a witness x exists
    with every entry at most this bound. Each residue class the exact
    search settles holds a distinct attainable offset within this span, so
    it settles at most bound + 1 classes. Mixed k admits no such box and is
    decided without it.
    """
    return _span(c, dot(k, t.pre), dot(k, t.post))


def mixed_counterexample(k: Sequence[int], c: int, t: Transition) -> IntVector:
    """Witness x >= 0 with c <= k.(x + pre) < c - k.delta, for mixed k.

    Requires k mixed and k.delta < 0. Starts from a single-place vector u
    with k.u >= c, steps down by whole multiples of delta to land the
    scalar product inside [c, c - k.delta), then repairs negative entries
    with zero-product combination vectors so the result dominates pre.
    """
    kd = dot(k, t.delta)
    if not is_mixed(k) or kd >= 0:
        raise ValueError("construction needs mixed k and k.delta < 0")
    return _mixed_witness(k, c, t, kd)[0]


def _mixed_witness(k: Sequence[int], c: int, t: Transition, kd: int) -> tuple[IntVector, int]:
    """mixed_counterexample's x and its k.(x + pre), given k.delta = kd < 0."""
    n = len(k)
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
    return x, s


class TransitionCheck(JsonDoc):
    """Inductivity verdict of (k, c) against one transition, with a witness if not."""

    transition: str
    inductive: bool
    flags: TrivialFlags = field(metadata=FLAT)
    witness: Optional[IntVector] = None  # x >= 0 violating inductivity
    witness_value: Optional[int] = None  # k.(x + pre) for that x
    # check_transition: residue classes settled by the exact search (for
    # at most two distinct |k(i)|, counted in closed form, not visited);
    # oracle_check_transition: grid points the row walk accounts for.
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
    base, kpost = dot(k, t.pre), dot(k, t.post)
    kmin, kmax = (min(k), max(k)) if k else (0, 0)
    flags = _flags(c, kmin, kmax, base, kpost)
    if flags.any:
        return TransitionCheck(t.name, True, flags)

    kd = kpost - base  # < 0 here, else oriented
    if kmin < 0 < kmax:
        x, value = _mixed_witness(k, c, t, kd)
        return TransitionCheck(t.name, False, flags, x, value)

    # k unmixed and k.delta < 0: attainable products are base moved away
    # (up for k >= 0, down for k <= 0) by an offset in the numerical
    # semigroup of the coins |k(i)|. The window becomes offsets [lo, hi];
    # lo <= hi here, since the monotone and antitone flags were false.
    sign = 1 if kmin >= 0 else -1
    if sign > 0:
        lo, hi = max(c - base, 0), c - kd - 1 - base
    else:
        lo, hi = max(base - c + kd + 1, 0), base - c

    # Every attainable offset is d + i*a for a sum d of the larger coins
    # and i >= 0, where a is the smallest coin; a sum d <= hi leads into
    # the window exactly when (d - lo) mod a <= hi - lo, and s below is its
    # least such offset at or past lo. The search settles sums d of
    # distinct residues modulo a in increasing order (Nijenhuis 1979),
    # so it settles at most a of them, and sums_explored counts them.
    coins = sorted({abs(v) for v in k if v})
    a = coins[0]
    x = [0] * len(k)
    if len(coins) <= 2:
        # With one larger coin b (or none: b = a) the settled sums are the
        # chain d = j*b, j = 0, 1, ..., which ends past hi or where its
        # residue comes round again, and its first hit takes Euclid steps.
        # [lo, hi] holds a multiple of g = gcd(a, b): it is -k.delta >= g
        # long, or lo = 0. Every multiple of g mod a is j*b mod a for some
        # j < a/g, so the least hit comes before the residue repeats, and
        # the chain ends at it or, if it lies past hi, at j = hi // b.
        b = coins[-1]
        j = _first_hit(b % a, a, lo % a, hi - lo)
        if j > hi // b:
            return TransitionCheck(t.name, True, flags, sums_explored=hi // b + 1)
        d, settled = j * b, j + 1
        x[k.index(sign * b)] = j
    else:
        # Dijkstra over the residues: least[r] is the least sum d found
        # congruent to r, and every sum past hi is pruned. A residue is
        # pushed only at a sum below its least so far, so a popped entry
        # above least[r] is stale and each residue settles once.
        heappop, heappush = heapq.heappop, heapq.heappush
        larger, width = coins[1:], hi - lo
        least = {0: 0}
        pred: dict[int, tuple[int, int]] = {}
        settled = 0
        heap = [(0, 0)]
        while heap:
            d, r = heappop(heap)
            if d > least[r]:
                continue
            settled += 1
            if (d - lo) % a <= width:
                break
            for coin in larger:
                nd = d + coin
                nr = nd % a
                if nd <= hi and nd < least.get(nr, nd + 1):
                    least[nr] = nd
                    pred[nr] = (r, coin)
                    heappush(heap, (nd, nr))
        else:
            return TransitionCheck(t.name, True, flags, sums_explored=settled)
        while r:
            r, coin = pred[r]
            x[k.index(sign * coin)] += 1
    s = max(d, lo)
    s += (d - s) % a  # least s >= max(d, lo) congruent to d mod a
    x[k.index(sign * a)] = (s - d) // a
    return TransitionCheck(t.name, False, flags, tuple(x), base + sign * s, settled)


def _first_hit(step: int, m: int, lo: int, width: int) -> int:
    """Least j >= 0 with (j*step - lo) mod m <= width.

    Needs 0 <= step < m, 0 <= lo < m and some such j, which exists when
    width + 1 >= gcd(step, m). If j = 0 misses, then lo > 0, lo + width
    < m, and j must carry step*j - m*i into [lo, lo + width] for some
    i >= 0. The least such j comes with the least i, the least i with a
    multiple of step in [lo + m*i, lo + width + m*i], that is with
    (i*m - (-lo - width)) mod step <= width: the same question for
    (m mod step, step, (-lo - width) mod step), a Euclid step. The steps
    run in a loop, not a recursion, since consecutive Fibonacci numbers
    take as many of them as their index.
    """
    frames = []
    while (-lo) % m > width:
        frames.append((step, m, lo))
        step, m, lo = m % step, step, (-lo - width) % step
    j = 0
    for step, m, lo in reversed(frames):
        j = -(-(lo + m * j) // step)  # the least j for that least i
    return j


class NetCheck(JsonDoc):
    """Inductivity verdicts against every transition of a net, in its order."""

    per_transition: tuple[TransitionCheck, ...] = field(metadata=INLINE)

    @property
    def inductive(self) -> bool:
        return all(r.inductive for r in self.per_transition)


def check_net(net: PetriNet, hs: HalfSpace) -> NetCheck:
    """Check inductivity of the half space against every transition."""
    return NetCheck(tuple(check_transition(hs.k, hs.c, t) for t in net.transitions))


class OracleBudgetError(RuntimeError):
    """The exhaustive check would enumerate more points than allowed."""


def oracle_check_transition(
    k: Sequence[int], c: int, t: Transition, max_points: int = 10_000_000
) -> TransitionCheck:
    """Reference check, independent of check_transition.

    Sign-pure k is enumerated over x >= 0 in odometer order, bounded by
    the window's far end: partial sums move one way, so once a sum is
    past it every larger value of a coordinate is past it too, and the
    carry resets that coordinate and moves on. Every point the walk meets
    thus lies in the [0, bound]^n grid of witness_bound. A row is a run
    of the first coordinate j with k(j) != 0, the later coordinates
    fixed, whose sums step by |k(j)|; the walk takes each row in closed
    form, so its cost grows with the rows, not the points. Coordinates
    with k(i) = 0 stay at 0. sums_explored counts the points the walk
    accounts for: every such point short of the window that precedes the
    witness in odometer order, plus the witness if there is one. The
    bound only sets the budget, which is charged for the whole grid:
    OracleBudgetError is raised when (bound + 1)^n exceeds max_points,
    and ValueError when max_points is not positive.
    Sign-mixed k is decided by a divisibility argument instead, since no
    grid of that size is guaranteed to hold a witness.
    """
    if not max_points > 0:  # also rejects nan
        raise ValueError("oracle budget must be positive")
    k = tuple(k)
    base, kpost = dot(k, t.pre), dot(k, t.post)
    kmin, kmax = (min(k), max(k)) if k else (0, 0)
    flags = _flags(c, kmin, kmax, base, kpost)
    kd = kpost - base
    if kd >= 0:
        # Window [c, c - k.delta) is empty; nothing can violate.
        return TransitionCheck(t.name, True, flags)
    if kmin < 0 < kmax:
        # gcd(k) divides k.delta, so the length |k.delta| window holds a
        # multiple of gcd(k), and with coefficients of both signs every
        # deep enough such multiple is a non-negative combination (push
        # far with the positive side, pull back with the negative side).
        # No witness inside a witness_bound box is guaranteed here, so
        # enumeration would be unsound; the verdict needs no witness.
        return TransitionCheck(t.name, False, flags)
    n = len(k)
    b = _span(c, base, kpost)
    # b + 1 first: for a huge bound, (b + 1)^n would be too long to build.
    if b + 1 > max_points or (b + 1) ** n > max_points:
        raise OracleBudgetError(f"grid of (bound + 1)^{n} points exceeds budget {max_points}")

    # Mirror k <= 0 so that sums rise towards the far end: with sign -1 the
    # walk runs over -k from -k.pre, and the window [c, c - k.delta)
    # becomes [1 - c + k.delta, 1 - c).
    sign = 1 if kmin >= 0 else -1
    ks = [sign * v for v in k]
    near, far = (c, c - kd) if sign > 0 else (1 - c + kd, 1 - c)
    j = next(i for i in range(n) if ks[i])
    a = ks[j]
    # Odometer enumeration by rows, first coordinate fastest; s is the
    # sum at the current row's start, where x(j) = 0.
    x = [0] * n
    s = sign * base
    count = 0
    while s < far:
        m = max(0, -((s - near) // a))  # first step of the row at or past near
        if s + a * m < far:
            x[j] = m
            value = sign * (s + a * m)
            return TransitionCheck(t.name, False, flags, tuple(x), value, count + m + 1)
        count += -((s - far) // a)  # the row's points short of far
        for i in range(j + 1, n):
            if ks[i]:
                x[i] += 1
                s += ks[i]
                if s < far:
                    break
            s -= x[i] * ks[i]
            x[i] = 0
        else:
            break
    return TransitionCheck(t.name, True, flags, sums_explored=count)
