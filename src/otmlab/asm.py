"""Assembly syntax for machine programs (`.otm` files, UTF-8, `#` comments).

    tapes in work out;            # ordered roles: in, work, out, miracle
    state q0;                     # first declared state is the start state
    state done halt;              # attributes: halt, miracle
    rule q0 work=0 -> write work=1 move work=R goto q0;
    rule q0 work=1 -> move work=R goto q0;

A rule constrains any subset of the tapes; omitted reads match both bits,
omitted writes keep the bit that was read, omitted moves stay.  Rules expand
into explicit transitions; two rules covering the same (state, read-vector)
conflict, and missing coverage is a totality error naming the gaps.  States
are numbered in declaration order, which is also the order the limit rule
minimizes over.  A miracle state needs a miracle tape and is not a halt
state.

The printer emits the fully explicit canonical form, and parse(print(p))
reproduces p exactly.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from .errors import ConflictingRules, ParseError, SourceSpan, TotalityError
from .programs import MOVES, REQUIRED_ROLES, ROLE_ORDER, Program, Transition
from .syntax import Token, TokenCursor, scan

__all__ = ["parse_program", "format_program", "load_program"]

_PUNCT = ("->", ";", ",", "=")


class _Rule:
    __slots__ = ("state", "reads", "writes", "moves", "goto", "span")

    def __init__(self, state, reads, writes, moves, goto, span):
        self.state = state
        self.reads = reads  # role -> bit (partial)
        self.writes = writes
        self.moves = moves
        self.goto = goto
        self.span = span


class _ProgramParser(TokenCursor):
    def __init__(self, text: str):
        super().__init__(scan(text, _PUNCT, "a token", numbers=True))
        self.roles: Optional[Tuple[str, ...]] = None
        self.state_names: List[str] = []
        self.state_ids: Dict[str, int] = {}
        self.halt_states = set()
        self.miracle_state: Optional[int] = None
        self.miracle_attr: Optional[Token] = None
        self.rules: List[_Rule] = []

    def parse(self) -> Program:
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text == "tapes":
                self.parse_tapes()
            elif tok.text == "state":
                self.parse_state()
            elif tok.text == "rule":
                self.parse_rule()
            else:
                self.error("'tapes', 'state', or 'rule'")
        return self.build()

    def parse_tapes(self):
        tok = self.next()
        if self.roles is not None:
            self.error("a single 'tapes' declaration", tok)
        roles = []
        while self.peek().text != ";":
            r = self.expect_ident("a tape role")
            if r.text not in ROLE_ORDER:
                self.error(f"a tape role (one of {', '.join(ROLE_ORDER)})", r)
            if r.text in roles:
                self.error("a role not declared twice", r)
            roles.append(r.text)
        semi = self.expect(";")
        for required in REQUIRED_ROLES:
            if required not in roles:
                raise ParseError(semi.span, f"tape role '{required}'", ";")
        self.roles = tuple(roles)

    def parse_state(self):
        self.next()
        name = self.expect_ident("a state name")
        if name.text in self.state_ids:
            self.error("a fresh state name", name)
        sid = len(self.state_names)
        self.state_names.append(name.text)
        self.state_ids[name.text] = sid
        while self.peek().text != ";":
            attr = self.expect_ident("'halt' or 'miracle'")
            if attr.text == "halt":
                self.halt_states.add(sid)
            elif attr.text == "miracle":
                if self.miracle_state is not None:
                    self.error("a single miracle state", attr)
                self.miracle_state, self.miracle_attr = sid, attr
            else:
                self.error("'halt' or 'miracle'", attr)
            if sid in self.halt_states and sid == self.miracle_state:
                self.error("a halt state or a miracle state, not both", attr)
        self.expect(";")

    def _role_token(self) -> str:
        tok = self.expect_ident("a tape role")
        if self.roles is None or tok.text not in self.roles:
            self.error("a declared tape role", tok)
        return tok.text

    def _parse_assignments(self, kind: str) -> Dict[str, str]:
        """role=VALUE, role=VALUE, ... (at least one)."""
        out: Dict[str, str] = {}
        while True:
            start = self.peek()
            role = self._role_token()
            if role in out:
                self.error("each role at most once", start)
            self.expect("=")
            val = self.next()
            if kind == "bit":
                if val.text not in ("0", "1"):
                    self.error("bit 0 or 1", val)
            else:
                if val.text not in MOVES:
                    self.error("a move L, R, or S", val)
            out[role] = val.text
            if not self.accept(","):
                return out

    def parse_rule(self):
        span = self.next().span
        state_tok = self.expect_ident("a state name")
        if state_tok.text not in self.state_ids:
            self.error("a declared state", state_tok)
        state = self.state_ids[state_tok.text]
        if state in self.halt_states:
            self.error("a non-halt state (halt states have no rules)", state_tok)
        reads: Dict[str, str] = {}
        if self.peek().text != "->":
            reads = self._parse_assignments("bit")
        self.expect("->")
        writes: Dict[str, str] = {}
        moves: Dict[str, str] = {}
        if self.accept("write"):
            writes = self._parse_assignments("bit")
        if self.accept("move"):
            moves = self._parse_assignments("move")
        self.expect("goto")
        target = self.expect_ident("a state name")
        if target.text not in self.state_ids:
            self.error("a declared state", target)
        self.expect(";")
        self.rules.append(
            _Rule(state, reads, writes, moves, self.state_ids[target.text], span)
        )

    def build(self) -> Program:
        if self.roles is None:
            raise ParseError(
                SourceSpan(1, 1, 1), "a 'tapes' declaration", "end of input"
            )
        if not self.state_names:
            raise ParseError(SourceSpan(1, 1, 1), "a 'state' declaration", "end of input")
        if self.miracle_attr is not None and "miracle" not in self.roles:
            self.error("a 'miracle' tape role for the miracle state", self.miracle_attr)
        transitions: Dict[Tuple[int, Tuple[int, ...]], Transition] = {}
        owner: Dict[Tuple[int, Tuple[int, ...]], _Rule] = {}
        for rule in self.rules:
            free = [r for r in self.roles if r not in rule.reads]
            for combo in itertools.product((0, 1), repeat=len(free)):
                reads = tuple(
                    int(rule.reads[r]) if r in rule.reads else combo[free.index(r)]
                    for r in self.roles
                )
                key = (rule.state, reads)
                if key in transitions:
                    other = owner[key]
                    raise ConflictingRules(
                        f"{rule.span.line}:{rule.span.column}: rule overlaps the "
                        f"rule at {other.span.line}:{other.span.column} on state "
                        f"{self.state_names[rule.state]}, reads {reads}"
                    )
                writes = tuple(
                    int(rule.writes[r]) if r in rule.writes else reads[i]
                    for i, r in enumerate(self.roles)
                )
                moves = tuple(rule.moves.get(r, "S") for r in self.roles)
                transitions[key] = Transition(writes, moves, rule.goto)
                owner[key] = rule
        return Program(
            state_names=tuple(self.state_names),
            tape_roles=self.roles,
            start_state=0,
            halt_states=frozenset(self.halt_states),
            transitions=transitions,
            miracle_state=self.miracle_state,
        )


def parse_program(text: str) -> Program:
    """Parse assembly text.  Raises ParseError, ConflictingRules, or
    TotalityError (naming every uncovered (state, read-vector))."""
    return _ProgramParser(text).parse()


def format_program(program: Program) -> str:
    """Canonical fully explicit form; parsing it reproduces the program."""
    lines = [f"tapes {' '.join(program.tape_roles)};"]
    for sid, name in enumerate(program.state_names):
        attrs = ""
        if sid in program.halt_states:
            attrs += " halt"
        if program.miracle_state == sid:
            attrs += " miracle"
        lines.append(f"state {name}{attrs};")
    roles = program.tape_roles
    for (state, reads), tr in sorted(program.transitions.items()):
        read_s = ", ".join(f"{r}={b}" for r, b in zip(roles, reads))
        write_s = ", ".join(f"{r}={b}" for r, b in zip(roles, tr.writes))
        move_s = ", ".join(f"{r}={m}" for r, m in zip(roles, tr.moves))
        lines.append(
            f"rule {program.state_names[state]} {read_s} -> "
            f"write {write_s} move {move_s} goto {program.state_names[tr.next_state]};"
        )
    return "\n".join(lines) + "\n"


def load_program(path) -> Program:
    """Parse the program in a file.  Its ParseError, ConflictingRules or
    TotalityError names the file before the position or the gaps."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_program(text)
    except (ParseError, ConflictingRules, TotalityError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise
