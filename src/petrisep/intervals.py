"""Sets of integers stored as sorted disjoint closed intervals.

Endpoints are ints or None, where None on the left means unbounded below
and None on the right unbounded above. The spans are canonical: sorted,
disjoint and non-adjacent, so every value has one representation and
equality is structural. The constructor stores its spans as given, so a
caller hands it canonical spans as a tuple; every constructor here does.
"""

from __future__ import annotations

from dataclasses import field
from typing import Optional

from .jsondoc import INLINE, JsonDoc, record

Span = tuple[Optional[int], Optional[int]]


@record
class IntervalSet(JsonDoc):
    """A set of integers as canonical spans (see the module docstring)."""

    spans: tuple[Span, ...] = field(default=(), metadata=INLINE)

    @classmethod
    def all(cls) -> "IntervalSet":
        return cls(((None, None),))

    @classmethod
    def between(cls, lo: int, hi: int) -> "IntervalSet":
        return cls(((lo, hi),) if lo <= hi else ())

    @property
    def is_empty(self) -> bool:
        return not self.spans

    def __contains__(self, v: int) -> bool:
        return any((lo is None or lo <= v) and (hi is None or v <= hi) for lo, hi in self.spans)

    def max_value(self) -> Optional[int]:
        """Largest member; None when empty or unbounded above."""
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
            lo = blo if alo is None else alo if blo is None else max(alo, blo)
            hi = bhi if ahi is None else ahi if bhi is None else min(ahi, bhi)
            if lo is None or hi is None or lo <= hi:
                out.append((lo, hi))
            if ahi is None or (bhi is not None and bhi < ahi):
                j += 1  # b's span ends first
            else:
                i += 1
        return IntervalSet(tuple(out))

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
