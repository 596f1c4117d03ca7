"""Transfinite executor: successor steps, head reset, limit resolution.

At successor times the machine behaves classically (with the leftward reset
rule at limit-indexed cells): each step is one lookup in the program's action
table, which names the cells to flip and the heads to move.  At a limit time
the configuration is the inferior limit of the run before it, taken
separately for the state, each head position and each cell.  The executor
reaches a limit by certifying that a segment base..end of the run repeats,
and jumps to the time base.time + (end.time - base.time)*w.  One rule
resolves every loop: end shares base's state and moves each tape's head
right by a stride d >= 0.  The limit takes the least state of the segment
and, per tape:

  * stride 0 - the content recurs, so the cell and head histories are
    periodic: minima over one segment (tape intersection, least head).
  * stride d > 0 - a sweep: all activity stays in the swept window and the
    tape ahead is constant; swept cells stabilize to the translated window
    pattern, the head goes to the window supremum.

All-zero strides are an exact repetition: the configuration recurs.  After
each successor step the executor tries an exact recurrence first, then the
earlier configurations in the current state as sweep bases by increasing
period.  Beside each configuration it records the tapes the configuration
blocks as a base, those not constant on the w cells from their head, each
verdict carried over from the configuration before it for a tape whose
content and head the step left alone.  A candidate that moves the head of a
blocked tape is rejected by identity tests alone, since every sweep limit
lies at least w cells beyond the base's head.  The rule reads the segment
through a summary, so it serves every level: a period of successor steps
the run already recorded (never re-executed), a run of earlier limits
(which yields w*2, w^2, w^3, ...), or, in resolve_limit, which is given a
certificate without the run behind it, a replay from the certificate's
base.  Budgets bound both the successor steps and the number of limit
jumps; anything uncertified is reported Unresolved, and a limit
configuration that re-enters its own loop is a proof of divergence.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import MalformedCertificate
from .ordinals import (
    OMEGA,
    ZERO,
    Ordinal,
    add,
    compare,
    format_ordinal,
    mul,
    sub_left,
    succ,
)
from .programs import Configuration, Program
from .tapes import EMPTY_TAPE, Tape

__all__ = [
    "RunBudget",
    "MiracleHook",
    "step",
    "LoopCertificate",
    "resolve_limit",
    "Halted",
    "Diverges",
    "Unresolved",
    "RunOutcome",
    "run",
    "initial_configuration",
    "describe",
]

# a hook receives the miracle-tape content on every arrival in the miracle
# state and returns the replacement content (None: leave the tape alone).  It
# must be a function of that content: the loop rule extrapolates a certified
# period without calling the hook again, so a stateful hook (one that counts
# its calls, say) is silently treated as periodic
MiracleHook = Callable[[Tape], Optional[Tape]]


@dataclass(frozen=True)
class RunBudget:
    max_successor_steps: int = 100_000
    max_limit_jumps: int = 64

    def __post_init__(self):
        if self.max_successor_steps < 1 or self.max_limit_jumps < 1:
            raise ValueError("budgets must be positive")


def _move_head(head: Ordinal, direction: str) -> Ordinal:
    """The head after an R or an L move; step leaves an S head in place."""
    if direction == "R":
        return succ(head)
    if head.is_zero:
        return head
    if head.is_limit:
        return ZERO  # leftward off a limit cell resets to the tape start
    return head.predecessor()


def step(program: Program, config: Configuration) -> Configuration:
    """One successor step.  The state must not be a halt state.

    The program's action table gives, for the state and the bits read, the
    next state, the cells to flip and the heads to move, so a step touches
    only those: a tape whose head cell already holds the written bit keeps
    its Tape object, as does a head that stays (S).  The next time and each
    rightward move are the cached successors of ordinals.succ."""
    if config.state in program.halt_states:
        raise ValueError(f"cannot step from halt state {config.state}")
    heads, tapes = config.heads, config.tapes
    reads = tuple([t.read(h) for t, h in zip(tapes, heads)])
    next_state, flips, moves = program.actions[(config.state, reads)]
    if flips:
        tapes = list(tapes)
        for i, bit in flips:
            tapes[i] = tapes[i].write(heads[i], bit)
        tapes = tuple(tapes)
    if moves:
        heads = list(heads)
        for i, m in moves:
            heads[i] = _move_head(heads[i], m)
        heads = tuple(heads)
    return Configuration(next_state, heads, tapes, succ(config.time))


def _apply_hook(
    program: Program, config: Configuration, hook: Optional[MiracleHook]
) -> Configuration:
    if (
        hook is None
        or program.miracle_state is None
        or config.state != program.miracle_state
    ):
        return config
    idx = program.tape_index("miracle")
    replacement = hook(config.tapes[idx])
    if replacement is None:
        return config
    tapes = list(config.tapes)
    tapes[idx] = replacement
    return replace(config, tapes=tuple(tapes))


# -- certificates ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LoopCertificate:
    base: Configuration
    period: int
    # per-tape head translation over one period; all zero when base recurs
    strides: Tuple[Ordinal, ...]


def _replay_period(
    program: Program, base: Configuration, period: int
) -> List[Configuration]:
    """The configurations base, ..., end of one period, re-executed."""
    configs = [base]
    for _ in range(period):
        if configs[-1].state in program.halt_states:
            raise MalformedCertificate("loop passes through a halt state")
        configs.append(step(program, configs[-1]))
    return configs


# -- segment summaries -------------------------------------------------------------
#
# A loop is resolved from its base and end configurations and a summary of
# the segment between them, both ends included: the least state, per tape the
# least head and the bounds [visited_lo, visited_hi) of the positions a head
# was stepped from, and acc, the per-cell minima as a tape (acc_ok False where
# those minima would need infinitely many intervals).


def _widen(lo: List[Ordinal], hi: List[Ordinal], configs: Iterable[Configuration]):
    """Widen each tape's visited bounds [lo, hi) to cover its head position in
    each of configs.  A new least position lies below hi, so it is never a
    new greatest one: given newest first, a head that moves right costs one
    compare a configuration."""
    for c in configs:
        for i, h in enumerate(c.heads):
            if compare(h, lo[i]) < 0:
                lo[i] = h
            elif compare(h, hi[i]) >= 0:
                hi[i] = succ(h)


def _visited_bounds(
    configs: Sequence[Configuration],
) -> Tuple[List[Ordinal], List[Ordinal]]:
    """Per tape, the bounds [lo, hi) of its head positions in configs."""
    lo = list(configs[-1].heads)
    hi = [succ(h) for h in lo]
    _widen(lo, hi, configs[-2::-1])
    return lo, hi


class _Summary:
    """The summary of a segment.  A run of successor steps is given as its
    configurations (the run already recorded, or a replay) and their visited
    bounds, and computes acc, min_heads and min_state on first use, so a
    candidate rejected by the window or fill check never pays for them.  A
    segment that ends in a limit has no configurations: _combine_stats sets
    those fields from the summaries of its parts."""

    def __init__(
        self,
        configs: Sequence[Configuration],
        visited_lo: List[Ordinal],
        visited_hi: List[Ordinal],
    ):
        self._configs = configs
        self.visited_lo = visited_lo
        self.visited_hi = visited_hi
        self.acc_ok: List[bool] = [True] * len(visited_lo)

    @classmethod
    def of(cls, configs: Sequence[Configuration]) -> "_Summary":
        return cls(configs, *_visited_bounds(configs[:-1]))

    def within(self, i: int, lo: Ordinal, hi: Ordinal) -> bool:
        """Whether every position head i was stepped from lies in [lo, hi).
        It reads only the visited bounds, so it costs two compares whatever
        the segment's length."""
        return (
            compare(self.visited_lo[i], lo) >= 0
            and compare(self.visited_hi[i], hi) <= 0
        )

    @cached_property
    def min_state(self) -> int:
        return min(c.state for c in self._configs)

    @cached_property
    def min_heads(self) -> List[Ordinal]:
        end = self._configs[-1]
        return [min(lo, h) for lo, h in zip(self.visited_lo, end.heads)]

    @cached_property
    def acc(self) -> List[Tape]:
        configs = self._configs
        acc = list(configs[0].tapes)
        for before, c in zip(configs, configs[1:]):
            # a step that leaves a tape alone keeps its Tape object
            acc = [
                a if t is old else a.intersect(t)
                for a, t, old in zip(acc, c.tapes, before.tapes)
            ]
        return acc


def _combine_stats(parts: Sequence[_Summary]) -> _Summary:
    first = parts[0]
    out = _Summary((), list(first.visited_lo), list(first.visited_hi))
    out.acc = list(first.acc)
    out.acc_ok = list(first.acc_ok)
    out.min_heads = list(first.min_heads)
    out.min_state = first.min_state
    for part in parts[1:]:
        for i in range(len(out.acc)):
            out.acc[i] = out.acc[i].intersect(part.acc[i])
            out.acc_ok[i] = out.acc_ok[i] and part.acc_ok[i]
            if compare(part.min_heads[i], out.min_heads[i]) < 0:
                out.min_heads[i] = part.min_heads[i]
            if compare(part.visited_lo[i], out.visited_lo[i]) < 0:
                out.visited_lo[i] = part.visited_lo[i]
            if compare(part.visited_hi[i], out.visited_hi[i]) > 0:
                out.visited_hi[i] = part.visited_hi[i]
        out.min_state = min(out.min_state, part.min_state)
    return out


# -- the loop rule -----------------------------------------------------------------
#
# _resolve_loop checks that the segment base..end, summarised by unit, repeats
# with its strides, raising MalformedCertificate otherwise, and returns the
# configuration at the limit of the repetitions together with the summary of
# the run from end up to that limit.


def _strides(base: Configuration, end: Configuration) -> Optional[Tuple[Ordinal, ...]]:
    """The per-tape head translations from base to end when both share their
    state and no head moves left; otherwise None."""
    if base.state != end.state:
        return None
    strides = []
    for hb, he in zip(base.heads, end.heads):
        c = compare(hb, he)
        if c > 0:
            return None
        strides.append(ZERO if c == 0 else sub_left(he, hb))
    return tuple(strides)


def _blocked_tapes(
    base: Configuration,
    before: Optional[Configuration] = None,
    known: Optional[Tuple[int, ...]] = None,
) -> Tuple[int, ...]:
    """The tapes base blocks: those not constant on [h, h+w) from their head
    h, each read with one Tape.constant_ahead.  A sweep from base with stride
    d >= 1 has its limit h + d*w at or beyond h + w, so it is never constant
    ahead of a blocked tape's sweep.

    With before, the configuration one step before base, and known, the
    tapes before blocks, a tape whose Tape object and head base shares with
    before keeps before's verdict: only the tapes the step changed are read."""
    blocked = []
    for i, (tape, h) in enumerate(zip(base.tapes, base.heads)):
        if known is not None and tape is before.tapes[i] and h is before.heads[i]:
            if i in known:
                blocked.append(i)
        elif tape.constant_ahead(h) is None:
            blocked.append(i)
    return tuple(blocked)


def _limit_time(base: Configuration, end: Configuration) -> Ordinal:
    return add(base.time, mul(sub_left(end.time, base.time), OMEGA))


def _resolve_loop(
    base: Configuration,
    end: Configuration,
    strides: Sequence[Ordinal],
    unit: _Summary,
) -> Tuple[Configuration, _Summary]:
    if all(d.is_zero for d in strides) and end.key() != base.key():
        raise MalformedCertificate("configuration does not recur at the period")
    if end.state != base.state:
        raise MalformedCertificate("sweep period changes the state")
    # every check runs before any part of the limit is built, so a rejected
    # candidate costs no tape intersections
    sweeps: List[Optional[Tuple[Ordinal, Ordinal, Ordinal, int]]] = []
    for i, d in enumerate(strides):
        h0, h1 = base.heads[i], end.heads[i]
        if add(h0, d) != h1:
            raise MalformedCertificate(f"head {i} does not translate by its stride")
        if d.is_zero:
            if end.tapes[i] != base.tapes[i]:
                raise MalformedCertificate(f"stationary tape {i} changed content")
            if not unit.acc_ok[i]:
                raise MalformedCertificate(
                    f"stationary tape {i} minima would need infinitely many intervals"
                )
            sweeps.append(None)
            continue
        if not unit.within(i, h0, h1):
            raise MalformedCertificate(f"tape {i} leaves its sweep window")
        lam = add(h0, mul(d, OMEGA))
        if base.tapes[i].constant_on(h0, lam) is None:
            raise MalformedCertificate(
                f"tape {i} has non-constant content ahead of the sweep"
            )
        fill = end.tapes[i].constant_on(h0, h1)
        if fill is None:
            raise MalformedCertificate(
                f"tape {i} sweep pattern is not constant; the limit tape "
                "would need infinitely many intervals"
            )
        sweeps.append((h0, h1, lam, fill))
    # a stationary tape repeats the period's minima from end to the limit
    tail = _combine_stats([unit])
    heads = list(unit.min_heads)
    tapes = list(unit.acc)
    for i, sweep in enumerate(sweeps):
        if sweep is None:
            continue
        h0, h1, lam, fill = sweep
        heads[i] = lam
        tapes[i] = base.tapes[i].fill(h0, lam, fill)
        # each cell of [h1, lam) lives through the window's history once, so
        # its least value is the window's minimum at the same offset; a window
        # whose minima are not constant makes the tail's minima periodic (a
        # tape's acc is only used where its acc_ok holds)
        low = unit.acc[i].constant_on(h0, h1) if unit.acc_ok[i] else None
        tail.acc[i] = end.tapes[i] if low is None else end.tapes[i].fill(h1, lam, low)
        tail.acc_ok[i] = low is not None
        tail.min_heads[i] = h1
        tail.visited_lo[i], tail.visited_hi[i] = h1, lam
    limit = Configuration(
        unit.min_state, tuple(heads), tuple(tapes), _limit_time(base, end)
    )
    return limit, tail


def resolve_limit(program: Program, certificate: LoopCertificate) -> Configuration:
    """Validate a certificate by replay and return the configuration at the
    least limit ordinal above the loop.  Raises MalformedCertificate when the
    replay contradicts the certified shape.

    The replay takes plain successor steps, without an oracle.  Only
    successor-level certificates are validated: the period counts
    successor steps from the base.  A certificate of a loop of limits (see
    Diverges) counts limit jumps instead, so no replay checks that loop."""
    if certificate.period < 1:
        raise MalformedCertificate("period must be positive")
    configs = _replay_period(program, certificate.base, certificate.period)
    if len(certificate.strides) != program.n_tapes:
        raise MalformedCertificate(
            f"certificate has {len(certificate.strides)} strides for "
            f"{program.n_tapes} tapes"
        )
    limit, _ = _resolve_loop(
        configs[0], configs[-1], certificate.strides, _Summary.of(configs)
    )
    return limit


# -- run outcomes -----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Halted:
    final: Configuration

    kind = "halted"


@dataclass(frozen=True, slots=True)
class Diverges:
    """The run reached limit_behavior, a limit configuration that equals the
    base of the certified loop (time aside), so it repeats that loop forever.

    A loop of successor steps has a certificate resolve_limit replays to
    limit_behavior.  A loop of limits has LoopCertificate(base, 1, strides):
    base is the recurring limit and the period counts limit jumps, not
    successor steps, so it names the loop without a replay resolve_limit
    accepts.  Every stride is 0: a sweep's limit never equals its base."""

    certificate: LoopCertificate
    limit_behavior: Configuration

    kind = "diverges"


@dataclass(frozen=True, slots=True)
class Unresolved:
    last: Configuration
    reason: str

    kind = "unresolved"


RunOutcome = Union[Halted, Diverges, Unresolved]


# -- the runner --------------------------------------------------------------------


def initial_configuration(
    program: Program, input_tape: Tape = EMPTY_TAPE
) -> Configuration:
    tapes = tuple(input_tape if r == "in" else EMPTY_TAPE for r in program.tape_roles)
    heads = tuple(ZERO for _ in range(program.n_tapes))
    return Configuration(program.start_state, heads, tapes, ZERO)


def _position(program: Program, config: Configuration) -> dict:
    """A configuration's time, state name and head positions as text: the
    fields a trace's step record shares with describe()."""
    return {
        "time": format_ordinal(config.time),
        "state": program.state_name(config.state),
        "heads": [format_ordinal(h) for h in config.heads],
    }


def describe(program: Program, config: Configuration) -> dict:
    """A configuration as text: its time, state name, head positions and, by
    tape role, the tape's 1-intervals.  The trace's limit, halt and
    unresolved records and `otmlab run --json` all carry this shape."""
    return {
        **_position(program, config),
        "tapes": {
            role: list(t.interval_strings())
            for role, t in zip(program.tape_roles, config.tapes)
        },
    }


# the longest period _detect tries as a sweep, and how many earlier limits
# _detect_limit_level tries as the base of a loop of limits
_SWEEP_MAX_PERIOD = 24
_LEVEL_LOOKBACK = 16


class _Runner:
    """One run and the budgets it has spent.  Each segment of successor steps
    (from the start, or from the limit the last one jumped to) starts at the
    top of run's loop; _record builds every limit, halt and unresolved record
    of the trace, and _emit_step every step record."""

    def __init__(
        self,
        program: Program,
        budget: RunBudget,
        hook: Optional[MiracleHook],
        trace: Optional[Callable[[dict], None]],
        trace_steps: bool,
    ):
        self.program = program
        self.budget = budget
        self.hook = hook
        self.trace = trace
        self.trace_steps = trace_steps
        self.steps = 0
        self.jumps = 0

    # .. trace helpers ..

    def _emit_step(self, before: Configuration, after: Configuration):
        writes = []
        for i, (old, new) in enumerate(zip(before.tapes, after.tapes)):
            if old is not new and old != new:
                cell = before.heads[i]
                writes.append(
                    [
                        self.program.tape_roles[i],
                        format_ordinal(cell),
                        new.read(cell),
                    ]
                )
        self.trace(
            {"event": "step", **_position(self.program, after), "writes": writes}
        )

    def _record(
        self, event: str, config: Configuration, kind: str = "", reason: str = ""
    ):
        """Trace a limit record (with its kind), a halt record or an
        unresolved record (with its reason): event, kind, the describe()
        fields of config, then reason."""
        if self.trace is not None:
            head = {"event": event, "kind": kind} if kind else {"event": event}
            tail = {"reason": reason} if reason else {}
            self.trace({**head, **describe(self.program, config), **tail})

    # .. detection ..

    def _detect(
        self, history: List[Configuration], index: Dict[tuple, int]
    ) -> Optional[Tuple[str, LoopCertificate, Configuration, _Summary]]:
        """The first loop the recorded run certifies, as (kind, certificate,
        limit, tail): an exact recurrence first, then sweeps from the bases
        in the end's state, by increasing period.  None when there is none.
        The end's configuration key is hashed once: index maps it to the
        end's position unless an earlier configuration holds it.

        Each check of _resolve_loop that reads no segment summary runs here
        first.  The screen skips a base whose blocked tapes (recorded by run
        beside it) include one whose head the end moved, by identity tests
        alone: a head moves right at most one cell a step, so every stride
        here is finite, every sweep limit is h0 + w, and a swept tape is
        constant ahead of its sweep exactly when base does not block it.
        Then _strides must find a translation and each stationary tape keep
        its content.  The visited head bounds grow with the period, so each
        candidate that passes widens them by the positions the one before
        it did not cover."""
        end = history[-1]
        n = len(history) - 1
        i = index.setdefault(end.key(), n)
        if i != n:
            base = history[i]
            strides = (ZERO,) * len(end.heads)
            limit, tail = _resolve_loop(base, end, strides, _Summary.of(history[i:]))
            cert = LoopCertificate(base, n - i, strides)
            return "cycle", cert, limit, tail
        end_heads, end_tapes = end.heads, end.tapes
        blocked = self._blocked
        # the visited bounds of history[folded:n], once a candidate needs them
        lo = hi = None
        folded = n
        for b in reversed(self._by_state.get(end.state, ())):
            period = n - b
            if period > _SWEEP_MAX_PERIOD:
                break
            base = history[b]
            base_heads = base.heads
            moved = False
            for t in blocked[b]:
                if end_heads[t] is not base_heads[t]:
                    moved = True
                    break
            if moved:
                continue
            strides = _strides(base, end)
            for t, d in enumerate(strides or ()):
                tape = base.tapes[t]
                if d.is_zero and tape is not end_tapes[t] and tape != end_tapes[t]:
                    strides = None
                    break
            if strides is None:
                continue
            if lo is None:
                lo, hi = _visited_bounds(history[b:n])
            else:
                _widen(lo, hi, reversed(history[b:folded]))
            folded = b
            unit = _Summary(history[b:], lo, hi)
            try:
                limit, tail = _resolve_loop(base, end, strides, unit)
            except MalformedCertificate:
                continue
            cert = LoopCertificate(base, period, strides)
            return "sweep", cert, limit, tail
        return None

    def _detect_limit_level(
        self, entries: List[Tuple[Configuration, _Summary]]
    ) -> Optional[Tuple[str, LoopCertificate, Configuration, _Summary]]:
        """The loop of earlier limits that the newest limit closes, as in
        _detect; its certificate only names the base limit.  entries: the
        limit configurations so far, each with the summary of the segment
        that ends in it."""
        j = len(entries) - 1
        end = entries[j][0]
        lo = max(0, j - _LEVEL_LOOKBACK)
        for i in range(j - 1, lo - 1, -1):
            base = entries[i][0]
            strides = _strides(base, end)
            if strides is None:
                continue
            unit = _combine_stats([s for _, s in entries[i + 1 : j + 1]])
            try:
                limit, tail = _resolve_loop(base, end, strides, unit)
            except MalformedCertificate:
                continue
            kind = "limit-cycle" if all(d.is_zero for d in strides) else "limit-sweep"
            return kind, LoopCertificate(base, 1, strides), limit, tail
        return None

    # .. main loop ..

    def run(self, config: Configuration) -> RunOutcome:
        program = self.program
        config = _apply_hook(program, config, self.hook)
        # decided once per run: whether a successor step can meet the hook,
        # and whether it is traced
        has_hook = self.hook is not None and program.miracle_state is not None
        traces_steps = self.trace is not None and self.trace_steps
        entries: List[Tuple[Configuration, _Summary]] = []

        while True:
            # the segment's run, the tapes each of its configurations blocks,
            # each configuration's index in it, and the indices of each state
            history: List[Configuration] = [config]
            blocked = self._blocked = [_blocked_tapes(config)]
            index: Dict[tuple, int] = {config.key(): 0}
            self._by_state: Dict[int, List[int]] = defaultdict(list)
            self._by_state[config.state].append(0)

            while True:
                if config.state in program.halt_states:
                    self._record("halt", config)
                    return Halted(config)
                if self.steps >= self.budget.max_successor_steps:
                    reason = "successor step budget exhausted"
                    self._record("unresolved", config, reason=reason)
                    return Unresolved(config, reason)

                before = config
                config = step(program, before)
                if has_hook:
                    config = _apply_hook(program, config, self.hook)
                self.steps += 1
                if traces_steps:
                    self._emit_step(before, config)
                history.append(config)
                blocked.append(_blocked_tapes(config, before, blocked[-1]))

                found = self._detect(history, index)
                if found is not None:
                    break
                self._by_state[config.state].append(len(history) - 1)
            kind, cert, limit, tail = found
            # the segment's summary is read off the run it recorded
            stats = _combine_stats([_Summary.of(history), tail])

            # jump to the loop's limit; a new limit may close a loop of limits
            while True:
                if self.jumps >= self.budget.max_limit_jumps:
                    reason = "limit jump budget exhausted"
                    self._record("unresolved", config, reason=reason)
                    return Unresolved(config, reason)
                self.jumps += 1
                hooked = _apply_hook(program, limit, self.hook)
                if hooked is not limit:
                    # the hook rewrites only the miracle tape: stats already
                    # hold the limit's heads and state
                    for i, t in enumerate(hooked.tapes):
                        stats.acc[i] = stats.acc[i].intersect(t)
                    limit = hooked
                if limit.key() == cert.base.key():
                    self._record("limit", limit, "diverges")
                    return Diverges(cert, limit)
                self._record("limit", limit, kind)
                entries.append((limit, stats))
                config = limit
                found = self._detect_limit_level(entries)
                if found is None:
                    break
                kind, cert, limit, stats = found


def run(
    program: Program,
    input_tape: Tape = EMPTY_TAPE,
    budget: RunBudget = RunBudget(),
    *,
    miracle_hook: Optional[MiracleHook] = None,
    trace: Optional[Callable[[dict], None]] = None,
    trace_steps: bool = False,
) -> RunOutcome:
    """Execute from the standard start: start state, heads at 0, given input,
    all other tapes empty.

    trace, if given, receives a dict per event, each limit, halt and
    unresolved one built in one place with its fields in one order: `event`,
    a limit's `kind`, the describe() fields (`time`, `state`, `heads`,
    `tapes`), and an unresolved run's `reason`.  A `limit` record comes at
    each limit jump (kind `diverges` at the limit that repeats its loop), a
    `halt` record gives the final configuration, and an `unresolved` record
    the last one when a budget runs out.  With trace_steps a `step` record
    follows each successor step: `event`, `time`, `state`, `heads` and its
    `writes`, each flipped cell as [role, cell, bit]."""
    config = initial_configuration(program, input_tape)
    return _Runner(program, budget, miracle_hook, trace, trace_steps).run(config)
