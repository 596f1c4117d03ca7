"""Sparse binary tapes over ordinal-indexed cells.

A tape stores the cells holding 1 as a finite list of disjoint, sorted,
non-adjacent half-open intervals [lo, hi).  Everything else is 0.  Tapes are
immutable values; writes return new tapes.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from .ordinals import ONE, Ordinal, add, compare, format_ordinal

__all__ = ["Tape", "EMPTY_TAPE"]


def _normalize(
    intervals: Iterable[Tuple[Ordinal, Ordinal]]
) -> Tuple[Tuple[Ordinal, Ordinal], ...]:
    """Sort, drop empties, merge overlapping and adjacent intervals."""
    pending = [(lo, hi) for lo, hi in intervals if compare(lo, hi) < 0]
    pending.sort(key=lambda p: p[0]._key)
    out = []
    for lo, hi in pending:
        if out and compare(lo, out[-1][1]) <= 0:
            if compare(hi, out[-1][1]) > 0:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return tuple(out)


class Tape:
    """Immutable sparse 0/1 tape; `ones` is the normalized interval list."""

    __slots__ = ("ones", "_hash")

    def __init__(self, intervals: Iterable[Tuple[Ordinal, Ordinal]] = ()):
        object.__setattr__(self, "ones", _normalize(intervals))
        object.__setattr__(self, "_hash", hash(self.ones))

    def __setattr__(self, name, value):
        raise AttributeError("Tape is immutable")

    def __eq__(self, other):
        return isinstance(other, Tape) and self.ones == other.ones

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Tape(" + ", ".join(self.interval_strings()) + ")"

    def interval_strings(self) -> Tuple[str, ...]:
        return tuple(
            f"[{format_ordinal(lo)},{format_ordinal(hi)})"
            for lo, hi in self.ones
        )

    @property
    def is_empty(self) -> bool:
        return not self.ones

    def read(self, cell: Ordinal) -> int:
        for lo, hi in self.ones:
            if compare(cell, lo) < 0:
                return 0
            if compare(cell, hi) < 0:
                return 1
        return 0

    def write(self, cell: Ordinal, bit: int) -> "Tape":
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        if self.read(cell) == bit:
            return self
        nxt = add(cell, ONE)
        if bit == 1:
            return Tape(self.ones + ((cell, nxt),))
        out = []
        for lo, hi in self.ones:
            if compare(cell, lo) >= 0 and compare(cell, hi) < 0:
                out.append((lo, cell))
                out.append((nxt, hi))
            else:
                out.append((lo, hi))
        return Tape(out)

    def fill(self, lo: Ordinal, hi: Ordinal, bit: int) -> "Tape":
        """Set every cell in [lo, hi) to bit."""
        if compare(lo, hi) >= 0:
            return self
        if bit == 1:
            return Tape(self.ones + ((lo, hi),))
        out = []
        for a, b in self.ones:
            if compare(b, lo) <= 0 or compare(hi, a) <= 0:
                out.append((a, b))
                continue
            if compare(a, lo) < 0:
                out.append((a, lo))
            if compare(hi, b) < 0:
                out.append((hi, b))
        return Tape(out)

    def constant_on(self, lo: Ordinal, hi: Ordinal) -> Optional[int]:
        """The single bit covering [lo, hi), or None if the span is mixed."""
        if compare(lo, hi) >= 0:
            return None
        for a, b in self.ones:
            if compare(b, lo) <= 0:
                continue
            if compare(hi, a) <= 0:
                break
            # overlapping interval: constant 1 only if it covers the span
            if compare(a, lo) <= 0 and compare(hi, b) <= 0:
                return 1
            return None
        return 0

    def intersect(self, other: "Tape") -> "Tape":
        out = []
        for a, b in self.ones:
            for c, d in other.ones:
                lo = a if compare(a, c) >= 0 else c
                hi = b if compare(b, d) <= 0 else d
                if compare(lo, hi) < 0:
                    out.append((lo, hi))
        return Tape(out)


EMPTY_TAPE = Tape()
