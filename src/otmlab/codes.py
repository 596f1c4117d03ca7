"""Membership codes: sets of ordinals coding hereditarily finite sets.

A code for x describes the membership digraph of {x} | tc(x) through a
bijection f from an initial segment of the ordinals: the code contains the
pair ordinal p(i, j) exactly when f(i) is an element of f(j).  The bound
(the length of that initial segment) travels with the code.  Decoding
Mostowski-collapses the digraph and returns the unique top node.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import hfsets, ordinals
from .errors import InvalidCode
from .hfsets import HfSet, hf, tc
from .ordinals import Ordinal, from_int, godel_pair, godel_unpair
from .syntax import parse_json
from .tapes import Tape

__all__ = [
    "SetCode",
    "encode",
    "encode_with_order",
    "decode",
    "is_valid",
    "code_to_tape",
    "tape_to_code",
    "code_to_json",
    "code_from_json",
]


@dataclass(frozen=True)
class SetCode:
    bound: Ordinal
    pairs: FrozenSet[Ordinal]

    def __repr__(self):
        inside = ",".join(sorted(ordinals.format_ordinal(p) for p in self.pairs))
        return f"SetCode(bound={self.bound}, pairs={{{inside}}})"


def _coding_domain(x: HfSet) -> List[HfSet]:
    """{x} | tc(x), sorted ascending by Ackermann order (x comes last)."""
    # tc(x).elements is sorted and below x: y in x has ack_index(y) < ack_index(x)
    return list(tc(x).elements) + [x]


def encode(x: HfSet) -> SetCode:
    """Canonical code via the Ackermann-sorted bijection."""
    return encode_with_order(x, _coding_domain(x))


def encode_with_order(x: HfSet, domain: Sequence[HfSet]) -> SetCode:
    """Code x via an explicit bijection (domain[i] = f(i)); domain must be a
    permutation of {x} | tc(x)."""
    expect = set(_coding_domain(x))
    if set(domain) != expect or len(domain) != len(expect):
        raise ValueError("domain is not a bijection with {x} | tc(x)")
    index = {s: i for i, s in enumerate(domain)}
    pairs = set()
    for j, container in enumerate(domain):
        for member in container.elements:
            pairs.add(godel_pair(from_int(index[member]), from_int(j)))
    return SetCode(bound=from_int(len(domain)), pairs=frozenset(pairs))


def _digraph(code: SetCode) -> Tuple[int, Dict[int, List[int]]]:
    """(bound, members-per-node); raises InvalidCode on the least malformed
    pair.  The pairs are read in increasing order, as a set of ordinals
    iterates in an order that depends on memory addresses."""
    if not code.bound.is_natural:
        raise InvalidCode("non-finite-bound", f"bound {code.bound}")
    bound = code.bound.to_int()
    members: Dict[int, List[int]] = defaultdict(list)
    for p in sorted(code.pairs):
        i, j = godel_unpair(p)
        if not (i.is_natural and j.is_natural):
            raise InvalidCode("pair-out-of-bound", f"pair {p} is transfinite")
        iv, jv = i.to_int(), j.to_int()
        if iv >= bound or jv >= bound:
            raise InvalidCode(
                "pair-out-of-bound", f"p({iv},{jv}) exceeds bound {bound}"
            )
        members[jv].append(iv)
    if bound > len(code.pairs) + 1:
        # at most one node per pair has members, and the others all collapse to {}
        raise InvalidCode("not-extensional", f"bound {bound}, {len(code.pairs)} pairs")
    return bound, members


def _collapse(code: SetCode) -> Tuple[List[HfSet], int]:
    """Mostowski collapse of the coded digraph.

    Returns (value per node, top node).  Raises InvalidCode if the digraph is
    cyclic, the collapse is not injective, or the top node is not unique.
    """
    bound, members = _digraph(code)
    if bound == 0:
        raise InvalidCode("no-unique-top", "empty domain codes nothing")

    values: List[Optional[HfSet]] = [None] * bound
    state = [0] * bound  # 0 unvisited, 1 in progress, 2 done

    # depth-first from each node in turn, on an explicit stack: a chain of
    # memberships may be far deeper than Python's recursion limit
    for root in range(bound):
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(members[root]))]
        while stack:
            node, pending = stack[-1]
            for m in pending:
                if state[m] == 1:
                    raise InvalidCode("ill-founded", f"membership cycle through {m}")
                if state[m] == 0:
                    state[m] = 1
                    stack.append((m, iter(members[m])))
                    break
            else:
                stack.pop()
                values[node] = hf(values[m] for m in members[node])
                state[node] = 2

    if len(set(values)) != bound:
        raise InvalidCode("not-extensional", "two nodes collapse to the same set")

    is_member = [False] * bound
    for node in range(bound):
        for m in members[node]:
            is_member[m] = True
    tops = [n for n in range(bound) if not is_member[n]]
    if len(tops) != 1:
        raise InvalidCode("no-unique-top", f"top nodes {tops}")
    return values, tops[0]  # type: ignore[return-value]


def decode(code: SetCode) -> HfSet:
    values, top = _collapse(code)
    return hfsets.within_rank_cap(values[top], "decoded set")


def is_valid(code: SetCode) -> Tuple[bool, Optional[str]]:
    """(True, None) for structurally valid codes, else (False, reason).

    The rank cap is a separate desk restriction and does not affect validity.
    """
    try:
        _collapse(code)
        return True, None
    except InvalidCode as exc:
        return False, exc.reason


# -- tape representation -------------------------------------------------------


def code_to_tape(code: SetCode) -> Tape:
    """Characteristic-function layout: 1 on cell p for each pair p."""
    one = ordinals.ONE
    return Tape((p, ordinals.add(p, one)) for p in code.pairs)


def tape_to_code(tape: Tape) -> SetCode:
    """Read a code back off a tape.

    The bound is recovered from the largest pair present: memberships into the
    top node live in shell bound-1, so bound = isqrt(max pair) + 1.  An empty
    tape is the code of the empty set (bound 1, no pairs).
    """
    pairs = []
    for lo, hi in tape.ones:
        if not (lo.is_natural and hi.is_natural):
            raise InvalidCode("pair-out-of-bound", f"transfinite interval [{lo},{hi})")
        for n in range(lo.to_int(), hi.to_int()):
            pairs.append(from_int(n))
    if not pairs:
        return SetCode(bound=from_int(1), pairs=frozenset())
    top_shell = max(math.isqrt(p.to_int()) for p in pairs)
    return SetCode(bound=from_int(top_shell + 1), pairs=frozenset(pairs))


# -- JSON ------------------------------------------------------------------------


def code_to_json(code: SetCode) -> str:
    pairs = sorted(code.pairs)
    return json.dumps(
        {
            "bound": ordinals.format_ordinal(code.bound),
            "pairs": [ordinals.format_ordinal(p) for p in pairs],
        }
    )


def code_from_json(text: str) -> SetCode:
    """The code of a JSON object {"bound": ORD, "pairs": [ORD, ...]} whose
    ordinals are strings; a ValueError names what is malformed."""
    data = parse_json(text, "code")
    if not isinstance(data, dict):
        raise ValueError(f"code must be a JSON object, got {json.dumps(data)}")
    for key in ("bound", "pairs"):
        if key not in data:
            raise ValueError(f"code has no {key!r}")
    if not isinstance(data["pairs"], list):
        raise ValueError(f"code 'pairs' must be a list, got {json.dumps(data['pairs'])}")
    for value in (data["bound"], *data["pairs"]):
        if not isinstance(value, str):
            raise ValueError(f"code ordinals must be strings, got {json.dumps(value)}")
    return SetCode(
        bound=ordinals.parse_ordinal(data["bound"]),
        pairs=frozenset(ordinals.parse_ordinal(p) for p in data["pairs"]),
    )
