"""Finite sets of integers stored as sorted disjoint closed intervals.

The spans are canonical: sorted, disjoint and non-adjacent, so every
value has one representation and equality is structural. The constructor
stores its spans as given, so a caller hands it canonical spans as a
tuple; every constructor here does.
"""

from __future__ import annotations

from dataclasses import field
from typing import Optional

from .jsondoc import INLINE, JsonDoc

__all__ = ["IntervalSet"]

Span = tuple[int, int]


class IntervalSet(JsonDoc):
    """A set of integers as canonical spans (see the module docstring)."""

    spans: tuple[Span, ...] = field(default=(), metadata=INLINE)

    @classmethod
    def between(cls, lo: int, hi: int) -> "IntervalSet":
        return cls(((lo, hi),) if lo <= hi else ())

    @property
    def is_empty(self) -> bool:
        return not self.spans

    def __contains__(self, v: int) -> bool:
        return any(lo <= v <= hi for lo, hi in self.spans)

    def max_value(self) -> Optional[int]:
        """Largest member; None when empty."""
        if not self.spans:
            return None
        return self.spans[-1][1]

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
            lo, hi = max(alo, blo), min(ahi, bhi)
            if lo <= hi:
                out.append((lo, hi))
            if bhi < ahi:
                j += 1  # b's span ends first
            else:
                i += 1
        return IntervalSet(tuple(out))

    def to_text(self) -> str:
        if not self.spans:
            return "{}"
        return " ".join(f"{{{lo}}}" if lo == hi else f"[{lo},{hi}]" for lo, hi in self.spans)
