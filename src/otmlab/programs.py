"""OTM programs and machine snapshots.

A Program is an ordinary finite transition table over named states and a
fixed ordered list of tape roles; the transfinite behaviour all lives in the
executor.  A program checks its whole table when it is built: every state
index it names is one of its states, and every bit read or written is 0 or
1.  Each program also keeps one action table, built with the checks
of its transitions: per (state, reads), the next state, the cells to flip
and the heads to move, which is all a successor step does.  Configurations
are immutable snapshots (state, one ordinal head and one sparse tape per
role, ordinal time).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from .errors import TotalityError
from .ordinals import Ordinal, ZERO
from .tapes import Tape

__all__ = ["ROLE_ORDER", "REQUIRED_ROLES", "Transition", "Program", "Configuration"]

ROLE_ORDER = ("in", "work", "out", "miracle")

REQUIRED_ROLES = ("in", "work", "out")

MOVES = ("L", "R", "S")


@dataclass(frozen=True)
class Transition:
    writes: Tuple[int, ...]
    moves: Tuple[str, ...]
    next_state: int


@dataclass(frozen=True)
class Program:
    state_names: Tuple[str, ...]
    tape_roles: Tuple[str, ...]
    start_state: int
    halt_states: FrozenSet[int]
    transitions: Dict[Tuple[int, Tuple[int, ...]], Transition]
    miracle_state: Optional[int] = None
    # (state, reads) -> (next_state, flips, moves): flips holds the (tape, bit)
    # pairs whose written bit differs from the one read, moves the (tape, move)
    # pairs that are not S; Transition stays the public form
    actions: Dict[
        Tuple[int, Tuple[int, ...]],
        Tuple[int, Tuple[Tuple[int, int], ...], Tuple[Tuple[int, str], ...]],
    ] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for role in self.tape_roles:
            if role not in ROLE_ORDER:
                raise ValueError(f"unknown tape role {role!r}")
        for role in REQUIRED_ROLES:
            if self.tape_roles.count(role) != 1:
                raise ValueError(f"tape role {role!r} must appear exactly once")
        if self.tape_roles.count("miracle") > 1:
            raise ValueError("tape role 'miracle' may appear at most once")
        if self.miracle_state is not None and self.miracle_state in self.halt_states:
            raise ValueError("the miracle state cannot be a halt state")
        if self.miracle_state is not None and "miracle" not in self.tape_roles:
            raise ValueError("a miracle state needs a 'miracle' tape")
        states = range(len(self.state_names))
        named = [("start", self.start_state)] + [("halt", h) for h in self.halt_states]
        if self.miracle_state is not None:
            named.append(("miracle", self.miracle_state))
        for kind, state in named:
            if state not in states:
                raise ValueError(f"unknown {kind} state {state!r}")
        n = len(self.tape_roles)
        actions = {}
        for (state, reads), tr in self.transitions.items():
            if state not in states:
                raise ValueError(f"transition in unknown state {state!r}")
            if len(reads) != n or len(tr.writes) != n or len(tr.moves) != n:
                raise ValueError(f"transition arity mismatch in state {state}")
            if any(m not in MOVES for m in tr.moves):
                raise ValueError(f"bad move in state {state}")
            if state in self.halt_states:
                raise ValueError(f"halt state {state} has transitions")
            name = self.state_names[state]
            if tr.next_state not in states:
                raise ValueError(
                    f"unknown next state {tr.next_state!r} in state {name!r}"
                )
            for verb, bits in (("read", reads), ("written", tr.writes)):
                for role, bit in zip(self.tape_roles, bits):
                    if bit not in (0, 1):
                        raise ValueError(
                            f"{verb} bit {bit!r} on tape {role!r} in state "
                            f"{name!r} is not 0 or 1"
                        )
            flips = tuple([(i, w) for i, w in enumerate(tr.writes) if w != reads[i]])
            moves = tuple([(i, m) for i, m in enumerate(tr.moves) if m != "S"])
            actions[(state, reads)] = (tr.next_state, flips, moves)
        object.__setattr__(self, "actions", actions)
        self.check_total()

    @property
    def n_tapes(self) -> int:
        return len(self.tape_roles)

    def tape_index(self, role: str) -> int:
        return self.tape_roles.index(role)

    def check_total(self):
        missing = []
        for state in range(len(self.state_names)):
            if state in self.halt_states:
                continue
            for reads in itertools.product((0, 1), repeat=self.n_tapes):
                if (state, reads) not in self.transitions:
                    missing.append((self.state_names[state], reads))
        if missing:
            raise TotalityError(missing)

    def state_name(self, index: int) -> str:
        return self.state_names[index]


@dataclass(frozen=True, slots=True)
class Configuration:
    state: int
    heads: Tuple[Ordinal, ...]
    tapes: Tuple[Tape, ...]
    time: Ordinal = ZERO

    def key(self):
        """Identity modulo time (what loop detection compares)."""
        return (self.state, self.heads, self.tapes)
