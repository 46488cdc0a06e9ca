"""Exact generation of the thresholds c that make (k, c) inductive.

For a fixed coefficient vector k and transition t the set of inductive
thresholds decomposes into rays from the cheap sufficient conditions plus
a finite patch of non-trivial values. The patch is bounded by a Frobenius
argument on the nonzero entries of k, so it can be enumerated exactly:
the attainable sums of those entries are closed under shifts of one
big-integer bit set, and the maximal runs of gaps between them read off
as a string, so past the bit set the cost grows with the runs, not the gaps.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .intervals import IntervalSet, Span
from .jsondoc import JsonDoc
from .net import Instance, IntVector, Mode, Transition, dot

__all__ = ["ConstantsReport", "constants_for_instance", "extended_euclid_vector",
           "frobenius_limit", "generate_constants", "normalize_primitive", "separator_window"]


def normalize_primitive(k: Sequence[int]) -> IntVector:
    """Divide k by the gcd of its entries (identity for the zero vector)."""
    g = math.gcd(*k)
    if g == 0:
        return tuple(k)
    return tuple(x // g for x in k)


def extended_euclid_vector(w: Sequence[int]) -> tuple[int, IntVector]:
    """Return (g, a) with g = gcd(w) >= 0 and w . a == g."""
    if not w:
        raise ValueError("empty vector")
    # w[:i] . a[:i] == g before entry i folds in: Euclid's steps on (g, w[i])
    # end at gcd = x * g + y * w[i], so a becomes x * a + y * e_i. The 1 in
    # a[0] is kept only while every entry so far is zero.
    g, a = 0, [1] + [0] * (len(w) - 1)
    for i, b in enumerate(w):
        (r0, x0, y0), (r, x, y) = (g, 1, 0), (b, 0, 1)
        while r:
            q = r0 // r
            (r0, x0, y0), (r, x, y) = (r, x, y), (r0 - q * r, x0 - q * x, y0 - q * y)
        if r0 < 0:
            r0, x0, y0 = -r0, -x0, -y0
        a = [e * x0 for e in a]
        a[i] += y0
        g = r0
    assert dot(w, a) == g
    return g, tuple(a)


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


def _gap_runs(coins: Sequence[int], width: int, first: int, last: int) -> list[Span]:
    """Maximal runs [a, b] of the offsets j in [first, last] (0 <= first)
    such that no non-negative combination of coins lies in
    [j - width + 1, j], in increasing order.

    Bit s of one Python int marks the attainable sums s <= last. Each coin
    closes it under adding multiples by shifts of doubling length, and the
    window is widened the same way, so the cost is O(len(coins) * log(last)
    + log(width)) big-integer operations on last + 1 bits, plus two string
    searches per run, not one per gap offset.
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
    # bits[top - j] is bit j; the set bit top (bits[0]) closes a run that reaches last
    top = last + 1
    bits = format(covered | 1 << top, "b")
    runs, i = [], bits.rfind("0", 0, top - first + 1)
    while i >= 0:
        end = bits.rfind("1", 0, i)
        runs.append((top - i, top - end - 1))
        i = bits.rfind("0", 0, end)
    return runs


def _threshold_sets(
    k: IntVector, transitions: Sequence[Transition], window: IntervalSet
) -> list[IntervalSet]:
    """Each transition's inductive thresholds inside window (empty or one
    span), built canonical and clipped: the window when t is oriented,
    empty for a sign-mixed k, else the clipped ray and gap runs."""
    if not window.spans:
        return [window] * len(transitions)
    ((lo, hi),) = window.spans
    kmin, kmax = (min(k), max(k)) if k else (0, 0)
    coins = sorted({abs(x) for x in k if x != 0})

    def one(t: Transition) -> IntervalSet:
        base, post_val = dot(k, t.pre), dot(k, t.post)
        width = base - post_val
        if width <= 0:
            # Firing never lowers the product: inductive for every c.
            return window
        if kmin < 0 < kmax:
            # Sign-mixed k with a product-decreasing transition: no c works.
            return IntervalSet()
        limit = coins[0] * coins[-1]  # frobenius_limit(k)
        if kmin >= 0:
            top = min(post_val, hi)
            ray = [(lo, top)] if lo <= top else []
            first, last = max(post_val + 1, lo), min(base + limit - 1, hi)
        else:
            bottom = max(base + 1, lo)
            ray = [(bottom, hi)] if bottom <= hi else []
            first, last = max(base - limit, lo), min(base, hi)
        if width >= coins[0] or first > last:
            # No candidate lies in the window, or every window this wide
            # meets base moved by a multiple of the smallest coin: only the
            # trivial ray is left. Returning here keeps the bit set below
            # bounded by k, not by the flows.
            return IntervalSet(tuple(ray))
        # The candidate next to the ray (c = k.post + 1, or c = k.pre) has
        # offset 0, which is attainable, so no run touches the ray.
        if kmin >= 0:
            # Attainable products are base + (combinations of coins); a
            # candidate survives iff [c, c + width) misses them all, that
            # is iff the offset window ending at c + shift does.
            shift = width - 1 - base
            runs = _gap_runs(coins, width, first + shift, last + shift)
            return IntervalSet(tuple(ray + [(a - shift, b - shift) for a, b in runs]))
        # Products now descend from base by combinations of |coins|,
        # and [c, c + width) is the offset window ending at base - c.
        runs = _gap_runs(coins, width, base - last, base - first)
        return IntervalSet(tuple([(base - b, base - a) for a, b in runs[::-1]] + ray))

    return [one(t) for t in transitions]


def generate_constants(k: Sequence[int], t: Transition, window: tuple[int, int]) -> IntervalSet:
    """The thresholds c in the window [lo, hi] for which (k, c) is
    t-inductive, as an interval set. The gap search stops at the window's
    far end, so a window ending near k . pre stays cheap.
    """
    return _threshold_sets(tuple(k), (t,), IntervalSet.between(*window))[0]


def separator_window(inst: Instance, k: Sequence[int]) -> tuple[int, int]:
    """Thresholds making the half space separate: (k.m_final, k.m_init]."""
    return dot(k, inst.m_final) + 1, dot(k, inst.m_init)


class ConstantsReport(JsonDoc):
    """Inductive thresholds for one k: per transition, combined, and the pick."""

    k: IntVector
    window: tuple[int, int]
    per_transition: tuple[tuple[str, IntervalSet], ...]
    combined: IntervalSet
    chosen: Optional[int]
    cover_ok: bool  # cover mode demands k <= 0; always True in reach mode

    def to_json(self) -> dict:
        # PetriNet refuses duplicate names, so the pairs key one object
        doc = super().to_json()
        doc["per_transition"] = dict(doc["per_transition"])
        return doc


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
    window = IntervalSet.between(lo, hi)
    sets = _threshold_sets(k, inst.net.transitions, window)
    combined = window
    for s in sets:
        if s is not window:
            combined = combined.intersect(s)
    per = tuple((t.name, s) for t, s in zip(inst.net.transitions, sets))
    cover_ok = inst.mode is not Mode.COVER or all(x <= 0 for x in k)
    chosen = combined.max_value() if cover_ok else None
    return ConstantsReport(k, (lo, hi), per, combined, chosen, cover_ok)
