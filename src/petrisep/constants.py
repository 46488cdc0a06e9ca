"""Exact generation of the thresholds c that make (k, c) inductive.

For a fixed coefficient vector k and transition t the set of inductive
thresholds decomposes into rays from the cheap sufficient conditions plus
a finite patch of non-trivial values. The patch is bounded by a Frobenius
argument on the nonzero entries of k, so it can be enumerated exactly:
the attainable sums of those entries are closed under shifts of one
big-integer bit set, and the gaps between them read off as a string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .intervals import IntervalSet
from .net import Instance, IntVector, Mode, Transition, dot


def gcd_vector(values: Sequence[int]) -> int:
    return math.gcd(*values) if values else 0


def normalize_primitive(k: Sequence[int]) -> IntVector:
    """Divide k by the gcd of its entries (identity for the zero vector)."""
    g = gcd_vector(k)
    if g == 0:
        return tuple(k)
    return tuple(x // g for x in k)


def extended_euclid_vector(w: Sequence[int]) -> tuple[int, IntVector]:
    """Return (g, a) with g = gcd(w) >= 0 and w . a == g."""
    if not w:
        raise ValueError("empty vector")
    g, a0 = w[0], [1] + [0] * (len(w) - 1)
    if g < 0:
        g, a0[0] = -g, -1
    for i in range(1, len(w)):
        if w[i] == 0:
            continue
        g2, x, y = _ext_gcd(g, w[i])
        a0 = [e * x for e in a0]
        a0[i] = y
        g = g2
    a = tuple(a0)
    assert dot(w, a) == g
    return g, a


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y == g == gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def frobenius_limit(k: Sequence[int]) -> int:
    """A * B for A = max and B = min of |k(i)| over nonzero entries.

    Every non-trivial inductive threshold lies within this distance of
    k . pre: above it (k >= 0) or below it (k <= 0), every window of
    width -k.delta contains an attainable scalar product.
    """
    mags = [abs(x) for x in k if x != 0]
    if not mags:
        raise ValueError("zero vector has no Frobenius limit")
    return max(mags) * min(mags)


def _gap_ends(coins: Sequence[int], width: int, first: int, last: int) -> list[int]:
    """Offsets j in [first, last] (0 <= first) such that no non-negative
    combination of coins lies in [j - width + 1, j].

    Bit s of one Python int marks the attainable sums s <= last. Each coin
    closes it under adding multiples by shifts of doubling length, and the
    window is widened the same way, so the cost is O(len(coins) * log(last)
    + log(width)) big-integer operations on last + 1 bits, plus one string
    search per gap end.
    """
    mask = (1 << (last + 1)) - 1
    reach = 1
    for coin in coins:
        step = coin
        while step <= last:
            reach |= (reach << step) & mask
            step <<= 1
    covered, span = reach, 1  # bit j: an attainable sum in (j - span, j]
    while span < width:
        step = min(span, width - span)
        covered |= (covered << step) & mask
        span += step
    bits = format(covered | 1 << (last + 1), "b")[:0:-1]  # bits[j] is bit j
    ends = []
    j = bits.find("0", first)
    while j >= 0:
        ends.append(j)
        j = bits.find("0", j + 1)
    return ends


def generate_constants(
    k: Sequence[int],
    t: Transition,
    window: Optional[tuple[int, int]] = None,
) -> IntervalSet:
    """All thresholds c for which (k, c) is t-inductive, as an interval set.

    With a window (lo, hi) the result is clipped to [lo, hi]; the window
    also tightens the enumeration so wide windows stay cheap. Without one
    the complete (generally unbounded) set is returned.
    """
    k = tuple(k)
    base, post_val = dot(k, t.pre), dot(k, t.post)
    kd = post_val - base

    def finish(s: IntervalSet) -> IntervalSet:
        if window is None:
            return s
        return s.clip(window[0], window[1])

    if kd >= 0:
        # Firing never lowers the product: inductive for every c.
        return finish(IntervalSet.all())

    width = -kd
    kmin, kmax = min(k), max(k)  # k is not empty, since k.delta < 0
    if kmin < 0 < kmax:
        # Sign-mixed k with a product-decreasing transition: no c works.
        return finish(IntervalSet.empty())

    limit = frobenius_limit(k)
    coins = sorted({abs(x) for x in k if x != 0})
    result = IntervalSet.at_most(post_val) if kmin >= 0 else IntervalSet.at_least(base + 1)
    if width >= coins[0]:
        # Every window this wide meets base moved by a multiple of the
        # smallest coin: only the trivial ray is left. Returning here keeps
        # the bit set below bounded by k, not by the flows.
        return finish(result)

    if kmin >= 0:
        cand_lo, cand_hi = post_val + 1, base + limit - 1
        if window is not None:
            cand_lo = max(cand_lo, window[0])
            cand_hi = min(cand_hi, window[1])
        if cand_lo <= cand_hi:
            # Attainable products are base + (combinations of coins); a
            # candidate survives iff [c, c + width) misses them all, that
            # is iff the offset window ending at c + shift does.
            shift = width - 1 - base
            ends = _gap_ends(coins, width, cand_lo + shift, cand_hi + shift)
            result = result.union(IntervalSet.of(*(j - shift for j in ends)))
    else:
        cand_lo, cand_hi = base - limit, base
        if window is not None:
            cand_lo = max(cand_lo, window[0])
            cand_hi = min(cand_hi, window[1])
        if cand_lo <= cand_hi:
            # Products now descend from base by combinations of |coins|,
            # and [c, c + width) is the offset window ending at base - c.
            ends = _gap_ends(coins, width, base - cand_hi, base - cand_lo)
            result = result.union(IntervalSet.of(*(base - j for j in ends)))
    return finish(result)


def separator_window(inst: Instance, k: Sequence[int]) -> tuple[int, int]:
    """Thresholds making the half space separate: (k.m_final, k.m_init]."""
    return dot(k, inst.m_final) + 1, dot(k, inst.m_init)


@dataclass(frozen=True)
class ConstantsReport:
    k: IntVector
    window: tuple[int, int]
    per_transition: tuple[tuple[str, IntervalSet], ...]
    combined: IntervalSet
    chosen: Optional[int]
    cover_ok: bool  # cover mode demands k <= 0; always True in reach mode


def choose_constant(s: IntervalSet) -> Optional[int]:
    """Preferred threshold from a candidate set: its largest member."""
    if s.is_empty:
        return None
    hi = s.max_value()
    if hi is None:
        raise ValueError("candidate set is unbounded above")
    return hi


def constants_for_instance(inst: Instance, k: Sequence[int]) -> ConstantsReport:
    """Window, per-transition threshold sets, their intersection, and a pick.

    The intersection is exact inside the window. The chosen value is None
    when the combined set is empty or when cover mode rejects the vector.
    """
    k = tuple(k)
    if len(k) != inst.net.n:
        raise ValueError("coefficient vector arity mismatch")
    if all(x == 0 for x in k):
        raise ValueError("zero coefficient vector cannot separate")
    lo, hi = separator_window(inst, k)
    per = []
    combined = IntervalSet.between(lo, hi) if lo <= hi else IntervalSet.empty()
    for t in inst.net.transitions:
        s = generate_constants(k, t, window=(lo, hi)) if lo <= hi else IntervalSet.empty()
        per.append((t.name, s))
        combined = combined.intersect(s)
    cover_ok = inst.mode is not Mode.COVER or all(x <= 0 for x in k)
    chosen = choose_constant(combined) if cover_ok else None
    return ConstantsReport(k, (lo, hi), tuple(per), combined, chosen, cover_ok)
