"""Petri net and half-space domain model.

Markings and coefficient vectors are plain tuples of Python ints, so all
arithmetic is exact and arbitrary precision. Every object in this module is
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

from .jsondoc import JsonDoc

IntVector = tuple[int, ...]


class StructureError(ValueError):
    """Raised when an operation is applied to structurally invalid data."""


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    """Exact scalar product of two equal-length integer vectors."""
    if len(a) != len(b):
        raise StructureError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def vec_add(a: Sequence[int], b: Sequence[int]) -> IntVector:
    if len(a) != len(b):
        raise StructureError(f"length mismatch: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Sequence[int], b: Sequence[int]) -> IntVector:
    if len(a) != len(b):
        raise StructureError(f"length mismatch: {len(a)} vs {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def vec_ge(a: Sequence[int], b: Sequence[int]) -> bool:
    """Componentwise a >= b."""
    if len(a) != len(b):
        raise StructureError(f"length mismatch: {len(a)} vs {len(b)}")
    return all(x >= y for x, y in zip(a, b))


@dataclass(frozen=True)
class Transition:
    """A transition with consumption vector `pre` and production vector `post`.

    `delta` is the marking change `post - pre`, cached at construction.
    """

    name: str
    pre: IntVector
    post: IntVector
    delta: IntVector = field(init=False)

    def __post_init__(self):
        pre = tuple(self.pre)
        post = tuple(self.post)
        if len(pre) != len(post):
            raise StructureError(
                f"transition {self.name!r}: pre/post arity mismatch "
                f"({len(pre)} vs {len(post)})"
            )
        if any(x < 0 for x in pre) or any(x < 0 for x in post):
            raise StructureError(f"transition {self.name!r}: negative flow entry")
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "post", post)
        object.__setattr__(self, "delta", vec_sub(post, pre))

    def is_enabled(self, marking: Sequence[int]) -> bool:
        """True iff the marking dominates `pre` componentwise."""
        return vec_ge(marking, self.pre)

    def fire(self, marking: Sequence[int]) -> IntVector:
        """Fire from an enabling marking; returns marking + delta."""
        if not self.is_enabled(marking):
            raise StructureError(
                f"transition {self.name!r} not enabled at {tuple(marking)}"
            )
        return vec_add(marking, self.delta)


@dataclass(frozen=True)
class PetriNet:
    places: tuple[str, ...]
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        places = tuple(self.places)
        transitions = tuple(self.transitions)
        if len(set(places)) != len(places):
            raise StructureError("duplicate place names")
        seen = set()
        for t in transitions:
            if len(t.pre) != len(places):
                raise StructureError(
                    f"transition {t.name!r} arity {len(t.pre)} != {len(places)} places"
                )
            if t.name in seen:
                raise StructureError(f"duplicate transition name {t.name!r}")
            seen.add(t.name)
        object.__setattr__(self, "places", places)
        object.__setattr__(self, "transitions", transitions)

    @property
    def n(self) -> int:
        return len(self.places)


def is_marking(v: Sequence[int]) -> bool:
    return all(x >= 0 for x in v)


class Mode(Enum):
    REACH = "reach"
    COVER = "cover"


@dataclass(frozen=True)
class HalfSpace(JsonDoc):
    """The set of integer vectors m with k . m >= c."""

    k: IntVector
    c: int

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(self.k))

    def contains(self, m: Sequence[int]) -> bool:
        return dot(self.k, m) >= self.c


@dataclass(frozen=True)
class Instance:
    """A safety verification instance: prove m_final not reachable/coverable."""

    net: PetriNet
    m_init: IntVector
    m_final: IntVector
    mode: Mode = Mode.REACH

    def __post_init__(self):
        m0 = tuple(self.m_init)
        mf = tuple(self.m_final)
        n = self.net.n
        if len(m0) != n or len(mf) != n:
            raise StructureError("initial/target marking arity mismatch")
        if not is_marking(m0) or not is_marking(mf):
            raise StructureError("markings must be non-negative")
        object.__setattr__(self, "m_init", m0)
        object.__setattr__(self, "m_final", mf)


@dataclass(frozen=True)
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
        cover_flag = all(x <= 0 for x in hs.k)
    return SeparatorVerdict(init_inside, final_outside, cover_flag)


class ExplorationOutcome(Enum):
    REACHED = "reached"
    NOT_REACHED = "not-reached"  # frontier emptied: exhaustive negative answer
    INCONCLUSIVE = "inconclusive"  # state budget hit first


@dataclass(frozen=True)
class ExplorationReport:
    outcome: ExplorationOutcome
    states_visited: int
    steps_to_target: Optional[int] = None  # BFS depth at which target was found


def bounded_explore(inst: Instance, max_states: int) -> ExplorationReport:
    """Breadth-first search of the firing relation from m_init.

    Reports whether m_final was reached (reach mode) or some marking
    >= m_final was reached (cover mode). States are deduplicated; the
    answer is exhaustive only if the frontier emptied within the budget;
    an inconclusive report gives the budget as its states_visited.

    Markings are packed into single Python ints, `w` bits per place, with
    the top bit of each field kept as a guard `G`. A transition is enabled
    at `m` iff `((m | G) - pack(pre)) & G == G`, and firing adds the packed
    difference `pack(post) - pack(pre)`; the cover test is the guard test
    against the packed target. This is exact while every value met stays
    below the guard bit, so

        w = (top + max_states * grow).bit_length() + 1

    where `top` is the largest entry of m_init, m_final and every `pre`,
    and `grow` the largest positive entry of any `delta` (0 if none): a
    marking at BFS depth d is at most `top + d * grow`, and d never exceeds
    the number of stored states, which never exceeds `max_states`.
    """
    if max_states <= 0:
        raise StructureError("exploration budget must be positive")

    transitions = inst.net.transitions
    top = grow = 0
    for x in inst.m_init:
        if x > top:
            top = x
    for x in inst.m_final:
        if x > top:
            top = x
    for t in transitions:
        for x in t.pre:
            if x > top:
                top = x
        for x in t.delta:
            if x > grow:
                grow = x
    w = (top + max_states * grow).bit_length() + 1

    guard = start = target = 0
    for i in range(inst.net.n - 1, -1, -1):
        guard = (guard << w) | (1 << (w - 1))
        start = (start << w) | inst.m_init[i]
        target = (target << w) | inst.m_final[i]
    moves = []
    for t in transitions:
        pre = post = 0
        for i in range(inst.net.n - 1, -1, -1):
            pre = (pre << w) | t.pre[i]
            post = (post << w) | t.post[i]
        moves.append((pre, post - pre))
    cover = inst.mode is Mode.COVER

    if start == target or cover and ((start | guard) - target) & guard == guard:
        return ExplorationReport(ExplorationOutcome.REACHED, 1, 0)
    seen = {start}
    layer = [start]
    depth = 0
    while layer:
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
