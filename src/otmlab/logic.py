"""Truth evaluation over hereditarily finite sets.

eval_delta0 is the native stand-in for a tape-level bounded-truth program:
it decides any bounded formula over given set values, and every free
variable needs a value, whatever the formula's shape.  search_witness runs
the enumerate-and-check loop (canonical Ackermann enumeration plus the truth
evaluator).  eval_prenex and the canonification checker, which checks
Skolem functions for a prefix of a statement's quantifier blocks, relativize
unbounded quantifiers to an explicit finite carrier.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from .errors import Exhausted, RangeEscape, UnboundVariable
from .formulas import (
    And,
    BoundedAll,
    BoundedEx,
    Delta0Formula,
    Equal,
    Implies,
    Member,
    Node,
    Not,
    Or,
    PrenexStatement,
)
from .hfsets import HfSet, ack_enumerate, format_set

__all__ = [
    "Carrier",
    "eval_delta0",
    "search_witness",
    "eval_prenex",
    "check_t_canonification",
]


@dataclass(frozen=True)
class Carrier:
    """Finite nonempty set of HfSets over which unbounded quantifiers range."""

    members: Tuple[HfSet, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("carrier names no member")
        seen = set()
        for m in self.members:
            if m in seen:
                raise ValueError(f"carrier names member {format_set(m)} twice")
            seen.add(m)

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, x):
        return x in self.members


def eval_delta0(formula: Delta0Formula, env: Dict[str, HfSet]) -> bool:
    """Tarskian evaluation; bounded quantifiers range over the bound's elements.
    The bindings are checked before any node is read: UnboundVariable names
    the first free variable, in sorted order, that env leaves out."""
    for name in formula.free:
        if name not in env:
            raise UnboundVariable(name)
    return _eval(formula.root, env)


def _eval(node: Node, env: Dict[str, HfSet]) -> bool:
    if isinstance(node, Member):
        return env[node.left] in env[node.right]
    if isinstance(node, Equal):
        return env[node.left] is env[node.right]
    if isinstance(node, Not):
        return not _eval(node.body, env)
    if isinstance(node, And):
        return _eval(node.left, env) and _eval(node.right, env)
    if isinstance(node, Or):
        return _eval(node.left, env) or _eval(node.right, env)
    if isinstance(node, Implies):
        return (not _eval(node.left, env)) or _eval(node.right, env)
    if isinstance(node, BoundedAll):
        return all(_eval(node.body, {**env, node.var: w}) for w in env[node.bound])
    if isinstance(node, BoundedEx):
        return any(_eval(node.body, {**env, node.var: w}) for w in env[node.bound])
    raise TypeError(f"not a formula node: {node!r}")


def search_witness(psi: Delta0Formula, a: HfSet, budget: int) -> HfSet:
    """Least witness in Ackermann order: the first b among the canonical
    enumeration with psi(a, b).  Raises Exhausted after `budget` candidates,
    and UnboundVariable for a free variable other than a and b; a psi that
    leaves out a or b is searched like any other."""
    for k in range(budget):
        b = ack_enumerate(k)
        if eval_delta0(psi, {"a": a, "b": b}):
            return b
    raise Exhausted(budget)


def eval_prenex(statement: PrenexStatement, carrier: Carrier) -> bool:
    """Brute-force alternating-quantifier truth over the carrier."""
    return _eval_blocks(statement.blocks, statement.matrix, carrier, {})


def _eval_blocks(
    blocks: Tuple[Tuple[str, str], ...],
    matrix: Delta0Formula,
    carrier: Carrier,
    env: Dict[str, HfSet],
) -> bool:
    if not blocks:
        return eval_delta0(matrix, env)
    (avar, evar), rest = blocks[0], blocks[1:]
    for a in carrier:
        if not any(
            _eval_blocks(rest, matrix, carrier, {**env, avar: a, evar: e})
            for e in carrier
        ):
            return False
    return True


CheckResult = Tuple[bool, Optional[Tuple[HfSet, ...]]]


def check_t_canonification(
    statement: PrenexStatement,
    functions: Sequence[Callable[..., HfSet]],
    carrier: Carrier,
) -> CheckResult:
    """Check functions F_1..F_k against the first k of the statement's n
    blocks, 1 <= k <= n: k = n is the thorough check, whose functions
    penetrate the whole prefix, and k = 1 the superficial one.

    For every i <= k and every tuple (a_1, ..., a_i) from the carrier, the
    statement with blocks 1..i instantiated by (a_j, F_j(a_1..a_j)) and the
    remaining blocks quantified over the carrier must hold.

    Returns (True, None) or (False, (a_1, ..., a_i)) for the least failing
    instantiation depth; raises RangeEscape when some F_j leaves the carrier.
    """
    blocks = statement.blocks
    if not 1 <= len(functions) <= len(blocks):
        raise ValueError(f"need 1 to {len(blocks)} functions, got {len(functions)}")
    for depth in range(1, len(functions) + 1):
        for prefix in itertools.product(carrier, repeat=depth):
            env: Dict[str, HfSet] = {}
            for j in range(depth):
                avar, evar = blocks[j]
                value = functions[j](*prefix[: j + 1])
                if value not in carrier:
                    raise RangeEscape(prefix[: j + 1], value)
                env[avar] = prefix[j]
                env[evar] = value
            if not _eval_blocks(blocks[depth:], statement.matrix, carrier, env):
                return False, tuple(prefix)
    return True, None
