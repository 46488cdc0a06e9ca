"""Petri net and half-space domain model.

Markings and coefficient vectors are plain tuples of Python ints, so all
arithmetic is exact and arbitrary precision. Every object in this module is
immutable after construction and safe to share across threads; so is the
one cache it keeps, of the searches bounded_explore generates (see there).
"""

from __future__ import annotations

import sys
from dataclasses import field
from enum import Enum
from operator import add, ge, mul, sub
from typing import Iterable, Optional, Sequence

from .jsondoc import TUPLE, JsonDoc, Record

__all__ = ["ExplorationOutcome", "ExplorationReport", "HalfSpace", "Instance", "Mode", "PetriNet",
           "SeparatorVerdict", "StructureError", "Transition", "bounded_explore", "dot",
           "verify_separator"]

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


class Transition(Record):
    """A transition with consumption vector `pre` and production vector `post`.

    `delta` is the marking change `post - pre`, cached at construction.
    """

    name: str
    pre: IntVector = field(metadata=TUPLE)
    post: IntVector = field(metadata=TUPLE)
    delta: IntVector = field(init=False)

    def __post_init__(self):
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


class PetriNet(Record):
    """Named places and transitions whose vectors have one entry per place."""

    places: tuple[str, ...] = field(metadata=TUPLE)
    transitions: tuple[Transition, ...] = field(metadata=TUPLE)

    def __post_init__(self):
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


class HalfSpace(JsonDoc):
    """The set of integer vectors m with k . m >= c."""

    k: IntVector = field(metadata=TUPLE)
    c: int

    def contains(self, m: Sequence[int]) -> bool:
        return dot(self.k, m) >= self.c


class Instance(Record):
    """A safety verification instance: prove m_final not reachable/coverable."""

    net: PetriNet
    m_init: IntVector = field(metadata=TUPLE)
    m_final: IntVector = field(metadata=TUPLE)
    mode: Mode = Mode.REACH

    def __post_init__(self):
        m0, mf = self.m_init, self.m_final
        n = len(self.net.places)
        if len(m0) != n or len(mf) != n:
            raise StructureError("initial/target marking arity mismatch")
        if m0 and (min(m0) < 0 or min(mf) < 0):
            raise StructureError("markings must be non-negative")


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

    The loop itself is generated by `exec` from one template (`_LOOP`,
    `_STEP`), once per length of the flat move list and mode, and cached in
    `_LOOPS`. It writes the step of each move out once, with the move's
    packed `pre` and `post - pre` in locals of its own, so no inner loop
    over the moves runs per marking. Markings carry their guard bits, so
    the enabling test is one subtraction and one mask; a countdown of the
    budget replaces `len(seen)`, and the reach or cover test is written in
    for the mode. A net of more than `_CHUNK` (16) moves loops over chunks
    of 16 written-out steps and writes out the rest after them, so one
    search never holds more than 31 steps, and compiling one (about 0.2 ms
    a step) costs the same for a net of 40 moves as for one of 5,000.

    `exec` is safe here: only step indices and counts of moves go into the
    source, and every value taken from the instance is passed to the
    compiled function as an argument. The cache keeps the module safe to
    share across threads: an entry is written once, and two threads that
    both miss it compile the same function, the second write replacing the
    first with an equal one.
    """
    if not isinstance(max_states, int):
        raise TypeError(f"exploration budget must be an integer, not {max_states!r}")
    if max_states <= 0:
        raise StructureError("exploration budget must be positive")

    top, grow = _top_and_grow(inst)
    cover = inst.mode is Mode.COVER
    field_bits = _DIGIT_BITS // inst.net.n if grow else 0
    horizon = ((1 << (field_bits - 1)) - 1 - top) // grow if field_bits else 0
    first = 0 < horizon < max_states
    flat, guard, start, target = _packing(inst, top, grow, horizon if first else max_states)
    search = _LOOPS.get((len(flat), cover)) or _write_loop(len(flat), cover)
    if first:
        report = search(flat, guard, start, target, max_states, horizon)
        if report is not None:
            return report
        flat, guard, start, target = _packing(inst, top, grow, max_states)
    return search(flat, guard, start, target, max_states, max_states)


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
    """The packed moves of inst as one flat list `[pre, post - pre, ...]`,
    the packed guard, and m_init and m_final with their guard bits set, at
    the width that is exact within `firings` firings of m_init.

    Every marking of the search carries its guard bits. A transition is
    enabled at such an `m` iff `(m - pre) & guard == guard`, and firing
    adds the packed difference, which keeps the guard bits; `m` covers the
    target iff the same test holds against the target without its guard
    bits. Both are exact while every value met stays below its field's
    guard bit. A transition with `pre == post` only ever leads back to a
    stored marking, so it is left out.
    """
    w = (top + firings * grow).bit_length() + 1
    places = range(len(inst.m_init) - 1, -1, -1)  # the last place is packed first
    guard = start = target = 0
    for i in places:
        guard = (guard << w) | (1 << (w - 1))
        start = (start << w) | inst.m_init[i]
        target = (target << w) | inst.m_final[i]
    flat = []
    for t in inst.net.transitions:
        pre = post = 0
        for i in places:
            pre = (pre << w) | t.pre[i]
            post = (post << w) | t.post[i]
        delta = post - pre
        if delta:
            flat += pre, delta
    return flat, guard, start | guard, target | guard


# The most steps a generated search writes out in one loop body. Compiling
# costs about 0.2 ms per written-out step, so a net with more moves than
# this loops over chunks of this many and writes out only the rest.
_CHUNK = 16

# The generated searches, by (length of the flat move list, cover).
_LOOPS: dict = {}

_LOOP = """\
def explore(flat, guard, start, target, max_states, horizon):
{unpack}    if {start_hits}:
        return _report(_REACHED, 1, 0)
    seen = {{start}}
    left = max_states - 1
    layer = [start]
    depth = 0
    while layer:
        if depth == horizon:
            return None
        depth += 1
        nxt = []
        for m in layer:
{steps}        layer = nxt
    return _report(_NOT_REACHED, max_states - left)
"""

_STEP = """\
if (m - p{i}) & guard == guard:
    m2 = m + d{i}
    if m2 not in seen:
        if {hits}:
            return _report(_REACHED, max_states - left + 1, depth)
        left -= 1
        if left <= 0:
            return _report(_INCONCLUSIVE, max_states)
        seen.add(m2)
        nxt.append(m2)
"""

# Both tests take a guarded marking. Reach compares it with the guarded
# target; cover is the enabling test against the target without its guard
# bits, which the cover search strips once.
_HITS = {False: "{m} == target", True: "({m} - target) & guard == guard"}


def _write_loop(size: int, cover: bool):
    """Compile, cache and return the search for a flat move list of `size`
    entries in the given mode; see bounded_explore."""
    moves = size >> 1
    chunked = moves - moves % _CHUNK if moves > _CHUNK else 0  # moves the chunk loop takes
    tail = range(chunked, moves)
    hits = _HITS[cover].format(m="m2")

    def names(steps):
        return ", ".join(f"p{i}, d{i}" for i in steps)

    def written(steps, pad):
        lines = (line for i in steps for line in _STEP.format(i=i, hits=hits).splitlines(True))
        return "".join(pad + line for line in lines)

    unpack = []
    if chunked:
        unpack.append(f"chunks = [flat[i:i + {2 * _CHUNK}] for i in range(0, {2 * chunked}, {2 * _CHUNK})]")
    if tail:
        unpack.append(f"{names(tail)} = flat[{2 * chunked}:]" if chunked else f"{names(tail)} = flat")
    if cover:
        unpack.append("target ^= guard")
    pad = " " * 12  # the indentation of the body of `for m in layer`
    steps = written(tail, pad)
    if chunked:
        steps = f"{pad}for {names(range(_CHUNK))} in chunks:\n" + written(range(_CHUNK), pad + "    ") + steps
    source = _LOOP.format(
        unpack="".join(f"    {line}\n" for line in unpack),
        start_hits=_HITS[cover].format(m="start"),
        steps=steps or pad + "pass\n",
    )
    namespace = {
        "_report": ExplorationReport,
        "_REACHED": ExplorationOutcome.REACHED,
        "_NOT_REACHED": ExplorationOutcome.NOT_REACHED,
        "_INCONCLUSIVE": ExplorationOutcome.INCONCLUSIVE,
    }
    exec(compile(source, f"<bounded_explore search, {moves} moves>", "exec"), namespace)
    search = _LOOPS[size, cover] = namespace["explore"]
    return search
