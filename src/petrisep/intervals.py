"""Sets of integers stored as sorted disjoint closed intervals.

Endpoints are ints or None, where None on the left means unbounded below
and None on the right unbounded above. Adjacent spans are merged, so every
value has one canonical representation and equality is structural.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .jsondoc import INLINE, JsonDoc

Span = tuple[Optional[int], Optional[int]]

_NEG = float("-inf")
_POS = float("inf")


def _lo(s: Span):
    return _NEG if s[0] is None else s[0]


def _hi(s: Span):
    return _POS if s[1] is None else s[1]


@dataclass(frozen=True)
class IntervalSet(JsonDoc):
    spans: tuple[Span, ...] = field(default=(), metadata=INLINE)

    def __post_init__(self):
        spans = sorted(self.spans, key=lambda s: (_lo(s), _hi(s)))
        merged: list[Span] = []
        for lo, hi in spans:
            if lo is not None and hi is not None and lo > hi:
                continue  # empty span
            if not merged:
                merged.append((lo, hi))
                continue
            plo, phi = merged[-1]
            if phi is None:
                continue  # previous span is unbounded above and absorbs the rest
            # adjacency over the integers: [a,b] and [b+1,c] fuse
            if lo is None or lo <= phi + 1:
                merged[-1] = (plo, None if hi is None else max(phi, hi))
            else:
                merged.append((lo, hi))
        object.__setattr__(self, "spans", tuple(merged))

    # -- constructors -------------------------------------------------

    @classmethod
    def _canonical(cls, spans) -> "IntervalSet":
        """Wrap spans already sorted, disjoint and non-adjacent, as is."""
        result = object.__new__(cls)
        object.__setattr__(result, "spans", tuple(spans))
        return result

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def all(cls) -> "IntervalSet":
        return cls(((None, None),))

    @classmethod
    def at_least(cls, lo: int) -> "IntervalSet":
        return cls(((lo, None),))

    @classmethod
    def at_most(cls, hi: int) -> "IntervalSet":
        return cls(((None, hi),))

    @classmethod
    def between(cls, lo: int, hi: int) -> "IntervalSet":
        return cls._canonical(((lo, hi),) if lo <= hi else ())

    @classmethod
    def of(cls, *values: int) -> "IntervalSet":
        return cls(tuple((v, v) for v in values))

    # -- queries -------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.spans

    def __contains__(self, v: int) -> bool:
        return any(_lo(s) <= v <= _hi(s) for s in self.spans)

    def min_value(self) -> Optional[int]:
        """Smallest member; None when empty or unbounded below."""
        if not self.spans:
            return None
        return self.spans[0][0]

    def max_value(self) -> Optional[int]:
        """Largest member; None when empty or unbounded above."""
        if not self.spans:
            return None
        return self.spans[-1][1]

    def is_bounded(self) -> bool:
        if not self.spans:
            return True
        return self.spans[0][0] is not None and self.spans[-1][1] is not None

    def __iter__(self) -> Iterator[int]:
        if not self.is_bounded():
            raise ValueError("cannot enumerate an unbounded interval set")
        for lo, hi in self.spans:
            yield from range(lo, hi + 1)

    def count(self) -> int:
        if not self.is_bounded():
            raise ValueError("cannot count an unbounded interval set")
        return sum(hi - lo + 1 for lo, hi in self.spans)

    # -- algebra -------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.spans + other.spans)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        # Merge-walk two canonical span lists: the overlaps come out sorted,
        # disjoint and non-adjacent (adjacent overlaps would need adjacent
        # spans in an operand), so the result is canonical as built.
        a, b = self.spans, other.spans
        out: list[Span] = []
        i = j = 0
        while i < len(a) and j < len(b):
            alo, ahi = a[i]
            blo, bhi = b[j]
            lo = blo if alo is None else alo if blo is None else max(alo, blo)
            hi = bhi if ahi is None else ahi if bhi is None else min(ahi, bhi)
            if lo is None or hi is None or lo <= hi:
                out.append((lo, hi))
            if ahi is None or (bhi is not None and bhi < ahi):
                j += 1  # b's span ends first
            else:
                i += 1
        return IntervalSet._canonical(out)

    def clip(self, lo: int, hi: int) -> "IntervalSet":
        """Restrict to the bounded window [lo, hi]."""
        return self.intersect(IntervalSet.between(lo, hi))

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        if not self.spans:
            return "{}"
        parts = []
        for lo, hi in self.spans:
            if lo is not None and lo == hi:
                parts.append(f"{{{lo}}}")
                continue
            left = "(-inf" if lo is None else f"[{lo}"
            right = "+inf)" if hi is None else f"{hi}]"
            parts.append(f"{left},{right}")
        return " ".join(parts)
