"""Petri net and half-space domain model.

Markings and coefficient vectors are plain tuples of Python ints, so all
arithmetic is exact and arbitrary precision. Every object in this module is
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import sys
from dataclasses import field
from enum import Enum
from operator import add, ge, mul, sub
from typing import Iterable, Optional, Sequence

from .jsondoc import JsonDoc, Record, record

IntVector = tuple[int, ...]


class StructureError(ValueError):
    """Raised when an operation is applied to structurally invalid data."""


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    """Exact scalar product of two equal-length integer vectors.

    The length check comes first: `map` alone would stop at the shorter
    vector and return the product of a prefix.
    """
    if len(a) != len(b):
        raise StructureError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(map(mul, a, b))


@record
class Transition(Record):
    """A transition with consumption vector `pre` and production vector `post`.

    `delta` is the marking change `post - pre`, cached at construction.
    """

    name: str
    pre: IntVector
    post: IntVector
    delta: IntVector = field(init=False)

    def __post_init__(self):
        # A tuple is stored as given; anything else is converted once.
        if type(self.pre) is not tuple:
            object.__setattr__(self, "pre", tuple(self.pre))
        if type(self.post) is not tuple:
            object.__setattr__(self, "post", tuple(self.post))
        pre, post = self.pre, self.post
        if len(pre) != len(post):
            raise StructureError(
                f"transition {self.name!r}: pre/post arity mismatch "
                f"({len(pre)} vs {len(post)})"
            )
        if pre and (min(pre) < 0 or min(post) < 0):
            raise StructureError(f"transition {self.name!r}: negative flow entry")
        object.__setattr__(self, "delta", tuple(map(sub, post, pre)))

    def is_enabled(self, marking: Sequence[int]) -> bool:
        """True iff the marking dominates `pre` componentwise."""
        if len(marking) != len(self.pre):
            raise StructureError(f"length mismatch: {len(marking)} vs {len(self.pre)}")
        return all(map(ge, marking, self.pre))

    def fire(self, marking: Sequence[int]) -> IntVector:
        """Fire from an enabling marking; returns marking + delta."""
        if not self.is_enabled(marking):
            raise StructureError(
                f"transition {self.name!r} not enabled at {tuple(marking)}"
            )
        return tuple(map(add, marking, self.delta))


@record
class PetriNet(Record):
    """Named places and transitions whose vectors have one entry per place."""

    places: tuple[str, ...]
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        if type(self.places) is not tuple:
            object.__setattr__(self, "places", tuple(self.places))
        if type(self.transitions) is not tuple:
            object.__setattr__(self, "transitions", tuple(self.transitions))
        n = len(self.places)
        if len(set(self.places)) != n:
            raise StructureError("duplicate place names")
        seen = set()
        for t in self.transitions:
            if len(t.pre) != n:
                raise StructureError(f"transition {t.name!r} arity {len(t.pre)} != {n} places")
            if t.name in seen:
                raise StructureError(f"duplicate transition name {t.name!r}")
            seen.add(t.name)

    @property
    def n(self) -> int:
        return len(self.places)


class Mode(Enum):
    REACH = "reach"
    COVER = "cover"


@record
class HalfSpace(JsonDoc):
    """The set of integer vectors m with k . m >= c."""

    k: IntVector
    c: int

    def __post_init__(self):
        if type(self.k) is not tuple:
            object.__setattr__(self, "k", tuple(self.k))

    def contains(self, m: Sequence[int]) -> bool:
        return dot(self.k, m) >= self.c


@record
class Instance(Record):
    """A safety verification instance: prove m_final not reachable/coverable."""

    net: PetriNet
    m_init: IntVector
    m_final: IntVector
    mode: Mode = Mode.REACH

    def __post_init__(self):
        if type(self.m_init) is not tuple:
            object.__setattr__(self, "m_init", tuple(self.m_init))
        if type(self.m_final) is not tuple:
            object.__setattr__(self, "m_final", tuple(self.m_final))
        m0, mf = self.m_init, self.m_final
        n = len(self.net.places)
        if len(m0) != n or len(mf) != n:
            raise StructureError("initial/target marking arity mismatch")
        if m0 and (min(m0) < 0 or min(mf) < 0):
            raise StructureError("markings must be non-negative")


@record
class SeparatorVerdict(JsonDoc):
    """Outcome of the separation check (inductivity checked elsewhere)."""

    init_inside: bool
    final_outside: bool
    cover_nonpositive: Optional[bool]  # None in reach mode

    @property
    def ok(self) -> bool:
        if not (self.init_inside and self.final_outside):
            return False
        return self.cover_nonpositive is not False

    def failures(self) -> list[str]:
        out = []
        if not self.init_inside:
            out.append("initial marking outside half space")
        if not self.final_outside:
            out.append("target marking inside half space")
        if self.cover_nonpositive is False:
            out.append("cover mode requires k <= 0")
        return out


def verify_separator(inst: Instance, hs: HalfSpace) -> SeparatorVerdict:
    """Check that the half space separates m_init from m_final.

    Reach mode: k.m_init >= c and k.m_final < c. Cover mode additionally
    requires k <= 0 componentwise, which is equivalent to the half space
    missing the whole upward closure of m_final.
    """
    if len(hs.k) != inst.net.n:
        raise StructureError("half-space arity mismatch")
    init_inside = hs.contains(inst.m_init)
    final_outside = not hs.contains(inst.m_final)
    cover_flag = None
    if inst.mode is Mode.COVER:
        cover_flag = not hs.k or max(hs.k) <= 0
    return SeparatorVerdict(init_inside, final_outside, cover_flag)


class ExplorationOutcome(Enum):
    REACHED = "reached"
    NOT_REACHED = "not-reached"  # frontier emptied: exhaustive negative answer
    INCONCLUSIVE = "inconclusive"  # state budget hit first


@record
class ExplorationReport(Record):
    """Result of bounded_explore: outcome, markings stored, depth of the target."""

    outcome: ExplorationOutcome
    states_visited: int
    steps_to_target: Optional[int] = None  # BFS depth at which target was found


_DIGIT_BITS = sys.int_info.bits_per_digit


def bounded_explore(inst: Instance, max_states: int) -> ExplorationReport:
    """Breadth-first search of the firing relation from m_init.

    Reports whether m_final was reached (reach mode) or some marking
    >= m_final was reached (cover mode). States are deduplicated; the
    answer is exhaustive only if the frontier emptied within the budget;
    an inconclusive report gives the budget as its states_visited.

    Markings are packed into single Python ints (see `_packing`), `w` bits
    per place, with the top bit of each field kept as a guard. Packing is
    exact for every marking within `f` firings of m_init when

        w = (top + f * grow).bit_length() + 1

    where `top` is the largest entry of m_init, m_final and every `pre`,
    and `grow` the largest positive entry of any `delta` (0 if none): such
    a marking is at most `top + f * grow` in every place, in any search
    order.

    The search runs in up to two passes of one loop, which visit the same
    markings in the same order:

    - The first pass packs for the horizon H, the most firings whose
      markings, with their guards, still fit one digit of a Python int
      (`sys.int_info.bits_per_digit` bits), so every `|`, `-`, `&`, `+` and
      set lookup works on one digit. A marking at BFS depth d is d firings
      from m_init, so the pass is exact until it would expand depth H + 1,
      and there it stops without an answer.
    - Only then does the second pass run, from scratch, packed for
      `f = max_states`: a marking at depth d has d distinct stored states
      before it, and the search never stores more than `max_states`.

    The first pass is skipped when it cannot help: when no transition adds
    tokens (`grow == 0`, so the full width is already the narrowest), when
    H >= max_states, or when H < 1 (many places, or a `top` that alone
    fills the digit).
    """
    if max_states <= 0:
        raise StructureError("exploration budget must be positive")

    top, grow = _top_and_grow(inst)
    cover = inst.mode is Mode.COVER
    field_bits = _DIGIT_BITS // inst.net.n if grow else 0
    horizon = ((1 << (field_bits - 1)) - 1 - top) // grow if field_bits else 0
    if 0 < horizon < max_states:
        report = _search(_packing(inst, top, grow, horizon), cover, max_states, horizon)
        if report is not None:
            return report
    return _search(_packing(inst, top, grow, max_states), cover, max_states, max_states)


def _top_and_grow(inst: Instance) -> tuple[int, int]:
    """The largest entry of m_init, m_final and every `pre`, and the
    largest positive entry of any `delta` (0 if none)."""
    top = grow = 0
    for x in inst.m_init:
        if x > top:
            top = x
    for x in inst.m_final:
        if x > top:
            top = x
    for t in inst.net.transitions:
        for x in t.pre:
            if x > top:
                top = x
        for x in t.delta:
            if x > grow:
                grow = x
    return top, grow


def _packing(inst: Instance, top: int, grow: int, firings: int):
    """The packed guard, m_init, m_final and moves `(pre, post - pre)` of
    inst, at the width that is exact within `firings` firings of m_init.

    A transition is enabled at `m` iff `((m | guard) - pre) & guard ==
    guard`, and firing adds the packed difference; the cover test is the
    guard test against the packed target. Both are exact while every value
    met stays below its field's guard bit.
    """
    w = (top + firings * grow).bit_length() + 1
    n = inst.net.n
    guard = start = target = 0
    for i in range(n - 1, -1, -1):
        guard = (guard << w) | (1 << (w - 1))
        start = (start << w) | inst.m_init[i]
        target = (target << w) | inst.m_final[i]
    moves = []
    for t in inst.net.transitions:
        pre = post = 0
        for i in range(n - 1, -1, -1):
            pre = (pre << w) | t.pre[i]
            post = (post << w) | t.post[i]
        moves.append((pre, post - pre))
    return guard, start, target, moves


def _search(packing, cover: bool, max_states: int, horizon: int) -> Optional[ExplorationReport]:
    """The breadth-first loop of bounded_explore over packed markings; None
    when it would expand a layer deeper than `horizon` firings."""
    guard, start, target, moves = packing
    if start == target or cover and ((start | guard) - target) & guard == guard:
        return ExplorationReport(ExplorationOutcome.REACHED, 1, 0)
    seen = {start}
    layer = [start]
    depth = 0
    while layer:
        if depth == horizon:
            return None
        depth += 1
        nxt = []
        for m in layer:
            mg = m | guard
            for pre, delta in moves:
                if (mg - pre) & guard != guard:
                    continue
                m2 = m + delta
                if m2 in seen:
                    continue
                if m2 == target or cover and ((m2 | guard) - target) & guard == guard:
                    return ExplorationReport(
                        ExplorationOutcome.REACHED, len(seen) + 1, depth
                    )
                seen.add(m2)
                if len(seen) >= max_states:
                    return ExplorationReport(ExplorationOutcome.INCONCLUSIVE, max_states)
                nxt.append(m2)
        layer = nxt
    return ExplorationReport(ExplorationOutcome.NOT_REACHED, len(seen))
