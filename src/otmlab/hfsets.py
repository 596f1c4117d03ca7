"""Hereditarily finite sets with the Ackermann ordering.

HfSet values are interned and canonically ordered (elements sorted ascending
by Ackermann index), so extensional equality is object identity.  HfSet
therefore keeps the default identity `==` and hash: a set is its own key in
dicts and sets, and lookups never call back into Python.  The
Ackermann coding n <-> set of positions of 1-bits gives the canonical
enumeration used as the desk-scale stand-in for a constructible enumeration.
The order is an order key: a set's `_key` is the tuple of its elements' keys,
largest element first, built the first time the set is ordered.  Python's
lexicographic tuple order is the Ackermann order (the largest element in
which two sets differ decides; a proper prefix is the key of a set that
lacks only elements below all of its own, and is smaller), and interning
makes the key injective, so comparing two sets is one native tuple
comparison that never forces the (potentially astronomical) integer index
into existence.  Each set also caches its text: `format_set` builds it
the first time the set is printed and returns the same string after that.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import RepresentationOverflow
from .syntax import DIGITS, CharCursor, parse_nested

__all__ = [
    "HfSet",
    "EMPTY",
    "hf",
    "singleton",
    "ack_compare",
    "ack_sorted",
    "ack_index",
    "ack_enumerate",
    "tc",
    "rank",
    "rank_cap",
    "kpair",
    "kpair_parts",
    "set_union",
    "set_difference",
    "parse_set_literal",
    "format_set",
    "universe_rank_le",
    "RANK_LAYER_BOUNDS",
]

# bit positions above this would make 2**p unmanageable
_MAX_ACK_EXPONENT = 1_000_000

_DEFAULT_RANK_CAP = 6


def rank_cap() -> int:
    """Configured decodable-set rank cap (env OTMLAB_RANK_CAP, default 6): a
    non-negative integer in ASCII digits."""
    raw = os.environ.get("OTMLAB_RANK_CAP")
    if raw is None:
        return _DEFAULT_RANK_CAP
    if not raw or not set(raw) <= DIGITS:
        raise ValueError(
            f"OTMLAB_RANK_CAP must be a non-negative integer in ASCII digits, got {raw!r}"
        )
    return int(raw)


class HfSet:
    """Interned hereditarily finite set; `elements` sorted by Ackermann order."""

    __slots__ = ("elements", "_rank", "_index", "_key", "_text")

    _intern: Dict[Tuple["HfSet", ...], "HfSet"] = {}

    def __new__(cls, elements: Tuple["HfSet", ...] = ()):
        cached = cls._intern.get(elements)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_rank", None)
        object.__setattr__(self, "_index", None)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_text", None)
        cls._intern[elements] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("HfSet is immutable")

    def __contains__(self, item):
        return item in self.elements

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return format_set(self)


EMPTY = HfSet()


def hf(elements: Iterable[HfSet]) -> HfSet:
    """Build a set: deduplicate and sort elements into canonical order."""
    unique = list(dict.fromkeys(elements))
    for e in unique:
        if not isinstance(e, HfSet):
            raise TypeError(f"HfSet elements must be HfSets, got {e!r}")
    unique.sort(key=_ack_key)
    return HfSet(tuple(unique))


def singleton(x: HfSet) -> HfSet:
    return hf([x])


def _ack_key(x: HfSet) -> tuple:
    """x's order key, built on first use: its elements' keys, largest first."""
    key = x._key
    if key is None:
        key = tuple(_ack_key(e) for e in reversed(x.elements))
        object.__setattr__(x, "_key", key)
    return key


def ack_compare(x: HfSet, y: HfSet) -> int:
    """-1, 0, or 1: the Ackermann order of x and y, read off their keys."""
    return 0 if x is y else (-1 if _ack_key(x) < _ack_key(y) else 1)


def ack_sorted(values: Iterable[HfSet]) -> List[HfSet]:
    """The values in ascending Ackermann order."""
    return sorted(values, key=_ack_key)


def ack_index(x: HfSet) -> int:
    """Ackermann index: sum of 2**ack_index(y) over elements y."""
    if x._index is not None:
        return x._index
    total = 0
    for e in x.elements:
        p = ack_index(e)
        if p > _MAX_ACK_EXPONENT:
            raise RepresentationOverflow(
                f"Ackermann index needs more than {_MAX_ACK_EXPONENT} bits; "
                "set too deep to materialize"
            )
        total += 1 << p
    object.__setattr__(x, "_index", total)
    return total


_ENUM_CACHE: Dict[int, HfSet] = {0: EMPTY}


def ack_enumerate(n: int) -> HfSet:
    """Inverse of ack_index (bijection between naturals and HfSets)."""
    if n < 0:
        raise ValueError("Ackermann indices are non-negative")
    cached = _ENUM_CACHE.get(n)
    if cached is not None:
        return cached
    elements = []
    m, pos = n, 0
    while m:
        if m & 1:
            elements.append(ack_enumerate(pos))
        m >>= 1
        pos += 1
    result = hf(elements)
    if n < (1 << 20):
        _ENUM_CACHE[n] = result
    return result


_TC_CACHE: Dict[HfSet, HfSet] = {}


def tc(x: HfSet) -> HfSet:
    """Transitive closure: least transitive set containing all elements of x."""
    cached = _TC_CACHE.get(x)
    if cached is not None:
        return cached
    members: List[HfSet] = []
    for y in x.elements:
        members.append(y)
        members.extend(tc(y).elements)
    result = hf(members)
    _TC_CACHE[x] = result
    return result


def rank(x: HfSet) -> int:
    if x._rank is not None:
        return x._rank
    r = 0 if not x.elements else 1 + max(rank(e) for e in x.elements)
    object.__setattr__(x, "_rank", r)
    return r


# -- pure-set encodings --------------------------------------------------------


def kpair(a: HfSet, b: HfSet) -> HfSet:
    """Kuratowski pair {{a},{a,b}}."""
    return hf([singleton(a), hf([a, b])])


def kpair_parts(p: HfSet) -> Optional[Tuple[HfSet, HfSet]]:
    """Decompose a Kuratowski pair; None if p is not one."""
    if len(p.elements) == 1:
        inner = p.elements[0]
        if len(inner.elements) == 1:
            e = inner.elements[0]
            return e, e
        return None
    if len(p.elements) == 2:
        u, v = p.elements
        small, big = (u, v) if len(u.elements) <= len(v.elements) else (v, u)
        if len(small.elements) == 1 and len(big.elements) == 2:
            a = small.elements[0]
            if a in big:
                b = next(e for e in big.elements if e is not a)
                return a, b
    return None


def set_union(x: HfSet) -> HfSet:
    """Union of the elements of x."""
    members: List[HfSet] = []
    for y in x.elements:
        members.extend(y.elements)
    return hf(members)


def set_difference(x: HfSet, y: HfSet) -> HfSet:
    return hf(e for e in x.elements if e not in y)


# -- literals ------------------------------------------------------------------


def format_set(x: HfSet) -> str:
    """The text of x, built on first use and cached on the interned set."""
    text = x._text
    if text is None:
        text = "{" + ",".join(format_set(e) for e in x.elements) + "}"
        object.__setattr__(x, "_text", text)
    return text


def parse_set_literal(text: str) -> HfSet:
    cursor = CharCursor(text, " \t\r\n")

    def parse() -> HfSet:
        cursor.skip_ws()
        cursor.take("{")
        elements = []
        cursor.skip_ws()
        if cursor.accept("}"):
            return hf(elements)
        while True:
            elements.append(parse())
            cursor.skip_ws()
            if cursor.accept("}"):
                return hf(elements)
            if not cursor.accept(","):
                cursor.error("',' or '}'")

    result = parse_nested(cursor, parse)
    cursor.expect_end("end of set literal")
    return result


# -- rank-layer enumeration ------------------------------------------------------

# sets of rank <= r are exactly those with Ackermann index < RANK_LAYER_BOUNDS[r]
RANK_LAYER_BOUNDS = [1, 2, 4, 16, 65536]


def universe_rank_le(r: int) -> List[HfSet]:
    """All HfSets of rank <= r (exhaustive; r <= 4 only)."""
    if r < 0:
        return []
    if r >= len(RANK_LAYER_BOUNDS):
        raise ValueError(f"rank {r} universe is too large to enumerate")
    return [ack_enumerate(i) for i in range(RANK_LAYER_BOUNDS[r])]
