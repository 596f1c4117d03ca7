"""OTM programs and machine snapshots.

A Program is an ordinary finite transition table over named states and a
fixed ordered list of tape roles; the transfinite behaviour all lives in the
executor.  Configurations are immutable snapshots (state, one ordinal head
and one sparse tape per role, ordinal time).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
        n = len(self.tape_roles)
        for (state, reads), tr in self.transitions.items():
            if len(reads) != n or len(tr.writes) != n or len(tr.moves) != n:
                raise ValueError(f"transition arity mismatch in state {state}")
            if any(m not in MOVES for m in tr.moves):
                raise ValueError(f"bad move in state {state}")
            if state in self.halt_states:
                raise ValueError(f"halt state {state} has transitions")
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
