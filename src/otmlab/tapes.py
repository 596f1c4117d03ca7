"""Sparse binary tapes over ordinal-indexed cells.

A tape stores the cells holding 1 as one sorted tuple of boundaries
b0 < b1 < ..., read in pairs as the half-open intervals [b0, b1), [b2, b3),
...  Everything else is 0.  A cell holds 1 iff an odd number of boundaries
lie at or below it, so every access is one bisect on the order keys plus a
local splice.  Strict increase is the whole normal form: equal neighbours
cancel, so the intervals are never empty or adjacent and equal tapes have
equal tuples.  Tapes are immutable values; writes return new tapes.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Iterable, Optional, Tuple

from .ordinals import OMEGA, Ordinal, add, format_ordinal, succ

__all__ = ["Tape", "EMPTY_TAPE"]

_key = attrgetter("_key")
_OMEGA_KEY = OMEGA._key


def _normalize(intervals: Iterable[Tuple[Ordinal, Ordinal]]) -> Tuple[Ordinal, ...]:
    """The boundaries of a union of intervals: sort, drop empties, merge
    overlapping and adjacent intervals."""
    pending = sorted(
        ((lo, hi) for lo, hi in intervals if lo._key < hi._key),
        key=lambda p: p[0]._key,
    )
    out = []
    for lo, hi in pending:
        if out and lo._key <= out[-1]._key:
            if hi._key > out[-1]._key:
                out[-1] = hi
        else:
            out += (lo, hi)
    return tuple(out)


class Tape:
    """Immutable sparse 0/1 tape; `bounds` is the sorted boundary tuple."""

    __slots__ = ("bounds",)

    def __new__(cls, intervals: Iterable[Tuple[Ordinal, Ordinal]] = ()):
        return _tape(_normalize(intervals))

    def __setattr__(self, name, value):
        raise AttributeError("Tape is immutable")

    def __eq__(self, other):
        return isinstance(other, Tape) and self.bounds == other.bounds

    def __hash__(self):
        # not cached: hashing the boundaries runs in C (ordinals hash by
        # identity), and a tape a run outcome keeps holds no hash object
        return hash(self.bounds)

    def __repr__(self):
        return "Tape(" + ", ".join(self.interval_strings()) + ")"

    @property
    def ones(self) -> Tuple[Tuple[Ordinal, Ordinal], ...]:
        """The intervals [lo, hi) of cells holding 1, in increasing order."""
        b = self.bounds
        return tuple(zip(b[::2], b[1::2]))

    def interval_strings(self) -> Tuple[str, ...]:
        """The intervals as text, interned: records that keep the same
        intervals share one string, as they share format_ordinal's."""
        return tuple(
            sys.intern(f"[{format_ordinal(lo)},{format_ordinal(hi)})")
            for lo, hi in self.ones
        )

    def read(self, cell: Ordinal) -> int:
        return bisect_right(self.bounds, cell._key, key=_key) & 1

    def write(self, cell: Ordinal, bit: int) -> "Tape":
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        b = self.bounds
        k = bisect_right(b, cell._key, key=_key)
        if k & 1 == bit:
            return self
        # flipping the one cell [cell, cell+1) toggles both ends as boundaries;
        # b[k-1] <= cell < cell+1 <= b[k], so each end cancels only its neighbour
        nxt = succ(cell)
        left = b[: k - 1] if k and b[k - 1] is cell else b[:k] + (cell,)
        right = b[k + 1 :] if k < len(b) and b[k] is nxt else (nxt,) + b[k:]
        return _tape(left + right)

    def fill(self, lo: Ordinal, hi: Ordinal, bit: int) -> "Tape":
        """Set every cell in [lo, hi) to bit."""
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        if lo._key >= hi._key:
            return self
        b = self.bounds
        i = bisect_left(b, lo._key, key=_key)  # the boundaries below lo
        j = bisect_right(b, hi._key, key=_key)  # the boundaries up to hi
        # keep lo (hi) as a boundary only where the content changes there
        mid = ((lo,) if i & 1 != bit else ()) + ((hi,) if j & 1 != bit else ())
        return _tape(b[:i] + mid + b[j:])

    def constant_on(self, lo: Ordinal, hi: Ordinal) -> Optional[int]:
        """The single bit covering [lo, hi), or None if the span is mixed."""
        if lo._key >= hi._key:
            return None
        b = self.bounds
        k = bisect_right(b, lo._key, key=_key)
        if k < len(b) and b[k]._key < hi._key:
            return None
        return k & 1

    def constant_ahead(self, h: Ordinal) -> Optional[int]:
        """The single bit covering the w cells [h, h+w) from h, or None if
        they are mixed: constant_on(h, add(h, OMEGA)) in one bisect, without
        the addition when h is finite (n + w = w)."""
        b = self.bounds
        k = bisect_right(b, h._key, key=_key)
        if k < len(b):
            end = OMEGA if h._key < _OMEGA_KEY else add(h, OMEGA)
            if b[k]._key < end._key:
                return None
        return k & 1

    def intersect(self, other: "Tape") -> "Tape":
        a, b = self.bounds, other.bounds
        if not a or not b:
            return EMPTY_TAPE
        # merge the two boundary lists; after consuming i of a and j of b the
        # content is (i & 1) and (j & 1), and each change of it is a boundary
        out = []
        i = j = 0
        inside = False
        while i < len(a) and j < len(b):
            x, y = a[i], b[j]
            if x is y:
                p = x
                i += 1
                j += 1
            elif x._key < y._key:
                p = x
                i += 1
            else:
                p = y
                j += 1
            now = bool(i & j & 1)
            if now is not inside:
                out.append(p)
                inside = now
        return _tape(tuple(out))


def _tape(bounds: Tuple[Ordinal, ...]) -> Tape:
    """The tape of a boundary tuple already in normal form.  Every empty tape
    is EMPTY_TAPE, so runs and their outcomes share it."""
    if not bounds:
        return EMPTY_TAPE
    tape = object.__new__(Tape)
    object.__setattr__(tape, "bounds", bounds)
    return tape


EMPTY_TAPE = object.__new__(Tape)
object.__setattr__(EMPTY_TAPE, "bounds", ())
