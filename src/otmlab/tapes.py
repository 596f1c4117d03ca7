"""Sparse binary tapes over ordinal-indexed cells.

A tape stores the cells holding 1 as a finite list of disjoint, sorted,
non-adjacent half-open intervals [lo, hi).  Everything else is 0.  Tapes are
immutable values; writes return new tapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from . import ordinals as ord_
from .ordinals import ONE, Ordinal, add, compare

__all__ = ["Tape", "EMPTY_TAPE", "SweepFill", "liminf_tapes"]


def _normalize(
    intervals: Iterable[Tuple[Ordinal, Ordinal]]
) -> Tuple[Tuple[Ordinal, Ordinal], ...]:
    """Sort, drop empties, merge overlapping and adjacent intervals."""
    pending = [(lo, hi) for lo, hi in intervals if compare(lo, hi) < 0]
    pending.sort(key=lambda p: p[0])  # Ordinal supports rich comparison
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
            f"[{ord_.format_ordinal(lo)},{ord_.format_ordinal(hi)})"
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


@dataclass(frozen=True)
class SweepFill:
    """Monotone rightward fill: `pattern` tiled with period len(pattern) over
    [base, limit), describing the stabilized values of swept cells."""

    base: Ordinal
    pattern: Tuple[int, ...]
    limit: Ordinal

    def __post_init__(self):
        if not self.pattern or any(b not in (0, 1) for b in self.pattern):
            raise ValueError("pattern must be a nonempty bit sequence")
        if compare(self.base, self.limit) >= 0:
            raise ValueError("sweep region [base, limit) is empty")


def _apply_fill(tape: Tape, fill: SweepFill) -> Tape:
    pattern = fill.pattern
    if all(b == pattern[0] for b in pattern):
        return tape.fill(fill.base, fill.limit, pattern[0])
    span = ord_.sub_left(fill.limit, fill.base)
    if not span.is_natural:
        # a mixed pattern over an infinite span has no finite interval form
        raise ValueError(
            "mixed sweep pattern over an infinite region is not representable"
        )
    out = tape.fill(fill.base, fill.limit, 0)
    n = span.to_int()
    for k in range(n):
        bit = pattern[k % len(pattern)]
        if bit:
            cell = add(fill.base, ord_.from_int(k))
            out = out.write(cell, 1)
    return out


def liminf_tapes(cycle: Sequence[Tape], sweep: Optional[SweepFill] = None) -> Tape:
    """Cell-wise inferior limit of a tape history.

    For a pure cycle the recurring value of a cell is its minimum over the
    cycle, i.e. the intersection of the cycle tapes.  A sweep descriptor
    overrides the swept region [base, limit) with its stabilized fill.
    """
    if not cycle:
        raise ValueError("cycle must be nonempty")
    acc = cycle[0]
    for t in cycle[1:]:
        acc = acc.intersect(t)
    if sweep is not None:
        acc = _apply_fill(acc, sweep)
    return acc
