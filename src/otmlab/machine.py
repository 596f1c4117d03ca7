"""Transfinite executor: successor steps, head reset, limit resolution.

At successor times the machine behaves classically (with the leftward reset
rule at limit-indexed cells).  Limit stages cannot be reached by stepping, so
the executor detects certified loop shapes and jumps:

  * exact repetition - the configuration recurs; at the next limit every
    cell/head/state history is periodic, so the inferior limit is a cycle
    minimum (tape intersection, least head, least state).
  * monotone sweep - the configuration recurs up to a uniform rightward head
    translation, with all activity confined to the swept window and constant
    virgin tape ahead; swept cells stabilize to the translated window
    pattern, heads go to the window supremum.

A loop candidate is checked against the run already recorded since the last
limit: a limit configuration is the inferior limit of the run before it, so
the recorded period holds everything its certificate needs, and the executor
never re-executes a candidate.  resolve_limit, which is given a certificate
without the run behind it, replays the period from the certificate's base and
stays an independent check of the same shapes.

The same two shapes are detected between limit configurations (with ordinal
strides), which yields jumps to w*2, w^2, w^3, ... Budgets bound both the
successor steps and the number of limit jumps; anything uncertified is
reported Unresolved, and a limit configuration that re-enters its own loop is
a proof of divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import MalformedCertificate
from .ordinals import OMEGA, ONE, ZERO, Ordinal, add, compare, mul, sub_left
from .programs import Configuration, Program
from .tapes import Tape

__all__ = [
    "RunBudget",
    "MiracleHook",
    "step",
    "ExactLoopCertificate",
    "SweepLoopCertificate",
    "resolve_limit",
    "Halted",
    "Diverges",
    "Unresolved",
    "RunOutcome",
    "run",
    "initial_configuration",
]

# a hook receives the miracle-tape content on every arrival in the miracle
# state and returns the replacement content (None: leave the tape alone)
MiracleHook = Callable[[Tape], Optional[Tape]]


@dataclass(frozen=True)
class RunBudget:
    max_successor_steps: int = 100_000
    max_limit_jumps: int = 64

    def __post_init__(self):
        if self.max_successor_steps < 1 or self.max_limit_jumps < 1:
            raise ValueError("budgets must be positive")


def _move_head(head: Ordinal, direction: str) -> Ordinal:
    if direction == "S":
        return head
    if direction == "R":
        return add(head, ONE)
    if head.is_zero:
        return head
    if head.is_limit:
        return ZERO  # leftward off a limit cell resets to the tape start
    return head.predecessor()


def step(program: Program, config: Configuration) -> Configuration:
    """One successor step.  The state must not be a halt state."""
    if config.state in program.halt_states:
        raise ValueError(f"cannot step from halt state {config.state}")
    reads = tuple(t.read(h) for t, h in zip(config.tapes, config.heads))
    tr = program.transitions[(config.state, reads)]
    tapes = tuple(
        t.write(h, w) for t, h, w in zip(config.tapes, config.heads, tr.writes)
    )
    heads = tuple(_move_head(h, m) for h, m in zip(config.heads, tr.moves))
    return Configuration(tr.next_state, heads, tapes, add(config.time, ONE))


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
    return config.replace(tapes=tuple(tapes))


def _estep(
    program: Program, config: Configuration, hook: Optional[MiracleHook]
) -> Configuration:
    """Step plus oracle arrival: entering the miracle state fires the hook."""
    return _apply_hook(program, step(program, config), hook)


# -- certificates ---------------------------------------------------------------


@dataclass(frozen=True)
class ExactLoopCertificate:
    base: Configuration
    period: int


@dataclass(frozen=True)
class SweepLoopCertificate:
    base: Configuration
    period: int
    strides: Tuple[Ordinal, ...]  # per-tape head translation over one period


LoopCertificate = Union[ExactLoopCertificate, SweepLoopCertificate]


class _PeriodTrace:
    """Everything one replayed period reveals about the loop."""

    __slots__ = ("states", "visited", "cell_min", "snapshots", "end")

    def __init__(self, n_tapes: int):
        self.states: List[int] = []
        self.visited: List[List[Ordinal]] = [[] for _ in range(n_tapes)]
        self.cell_min: List[Dict[Ordinal, int]] = [{} for _ in range(n_tapes)]
        self.snapshots: List[Tuple[Tape, ...]] = []
        self.end: Optional[Configuration] = None


def _replay_period(
    program: Program,
    base: Configuration,
    period: int,
    hook: Optional[MiracleHook],
) -> _PeriodTrace:
    trace = _PeriodTrace(program.n_tapes)
    config = base
    trace.snapshots.append(config.tapes)
    for _ in range(period):
        if config.state in program.halt_states:
            raise MalformedCertificate("loop passes through a halt state")
        trace.states.append(config.state)
        reads = tuple(t.read(h) for t, h in zip(config.tapes, config.heads))
        tr = program.transitions[(config.state, reads)]
        for i, (h, before, written) in enumerate(
            zip(config.heads, reads, tr.writes)
        ):
            trace.visited[i].append(h)
            low = min(before, written)
            if low < trace.cell_min[i].get(h, 1):
                trace.cell_min[i][h] = low
        config = _apply_hook(program, step(program, config), hook)
        trace.snapshots.append(config.tapes)
    trace.end = config
    return trace


class _RecordedPeriod:
    """The fields of a _PeriodTrace, read off the configurations base, ...,
    end that the run already passed through, in place of a replay (which stays
    the reference for them).  Each is computed on first use, so a candidate
    rejected by an early check never pays for the later ones."""

    def __init__(self, program: Program, configs: Sequence[Configuration]):
        self._program = program
        self._configs = configs
        self.end: Configuration = configs[-1]

    @cached_property
    def states(self) -> List[int]:
        return [c.state for c in self._configs[:-1]]

    @cached_property
    def visited(self) -> List[List[Ordinal]]:
        steps = self._configs[:-1]
        return [[c.heads[i] for c in steps] for i in range(self._program.n_tapes)]

    @cached_property
    def snapshots(self) -> List[Tuple[Tape, ...]]:
        return [c.tapes for c in self._configs]

    @cached_property
    def cell_min(self) -> List[Dict[Ordinal, int]]:
        # what a step writes comes from its transition: the configuration
        # after it may already carry the miracle hook's replacement tape
        program = self._program
        cell_min: List[Dict[Ordinal, int]] = [{} for _ in range(program.n_tapes)]
        for c in self._configs[:-1]:
            reads = tuple(t.read(h) for t, h in zip(c.tapes, c.heads))
            tr = program.transitions[(c.state, reads)]
            for i, (h, before, written) in enumerate(zip(c.heads, reads, tr.writes)):
                low = min(before, written)
                if low < cell_min[i].get(h, 1):
                    cell_min[i][h] = low
        return cell_min


_AnyTrace = Union[_PeriodTrace, _RecordedPeriod]


def _min_ordinal(values: Sequence[Ordinal]) -> Ordinal:
    low = values[0]
    for v in values[1:]:
        if compare(v, low) < 0:
            low = v
    return low


@dataclass
class _TailEffect:
    """Per-tape summary of the omega-tail a resolution skips over."""

    fill_lo: Optional[Ordinal] = None
    fill_hi: Optional[Ordinal] = None
    min_bit: Optional[int] = None


def _resolve_exact(
    program: Program,
    cert: ExactLoopCertificate,
    trace: _AnyTrace,
) -> Tuple[Configuration, List[_TailEffect]]:
    end = trace.end
    if end.key() != cert.base.key():
        raise MalformedCertificate("configuration does not recur at the period")
    state = min(trace.states)
    heads = tuple(_min_ordinal(trace.visited[i]) for i in range(program.n_tapes))
    tapes = []
    for i in range(program.n_tapes):
        acc = trace.snapshots[0][i]
        for snap in trace.snapshots[1:]:
            acc = acc.intersect(snap[i])
        tapes.append(acc)
    time = add(cert.base.time, OMEGA)
    limit = Configuration(state, heads, tuple(tapes), time)
    return limit, [_TailEffect() for _ in range(program.n_tapes)]


def _resolve_sweep(
    program: Program,
    cert: SweepLoopCertificate,
    trace: _AnyTrace,
) -> Tuple[Configuration, List[_TailEffect]]:
    base, end = cert.base, trace.end
    if len(cert.strides) != program.n_tapes:
        raise MalformedCertificate(
            f"certificate has {len(cert.strides)} strides for "
            f"{program.n_tapes} tapes"
        )
    if end.state != base.state:
        raise MalformedCertificate("sweep period changes the state")
    if all(d.is_zero for d in cert.strides):
        raise MalformedCertificate("sweep must move at least one head")
    # every check runs before any part of the limit is built, so a rejected
    # candidate costs no tape intersections or cell minima
    sweeps: List[Optional[Tuple[Ordinal, int, int]]] = []
    for i in range(program.n_tapes):
        d = cert.strides[i]
        h0 = base.heads[i]
        if add(h0, d) != end.heads[i]:
            raise MalformedCertificate(f"head {i} does not translate by its stride")
        if d.is_zero:
            if end.tapes[i] != base.tapes[i]:
                raise MalformedCertificate(f"stationary tape {i} changed content")
            sweeps.append(None)
            continue
        h1 = end.heads[i]
        lam = add(h0, mul(d, OMEGA))
        for pos in trace.visited[i]:
            if compare(pos, h0) < 0 or compare(pos, h1) >= 0:
                raise MalformedCertificate(
                    f"tape {i} leaves its sweep window at {pos}"
                )
        virgin = base.tapes[i].constant_on(h0, lam)
        if virgin is None:
            raise MalformedCertificate(
                f"tape {i} has non-constant content ahead of the sweep"
            )
        fill = end.tapes[i].constant_on(h0, h1)
        if fill is None:
            raise MalformedCertificate(
                f"tape {i} sweep pattern is not constant; the limit tape "
                "would need infinitely many intervals"
            )
        sweeps.append((lam, virgin, fill))
    state = min(trace.states)
    heads: List[Ordinal] = []
    tapes: List[Tape] = []
    tails: List[_TailEffect] = []
    for i, sweep in enumerate(sweeps):
        if sweep is None:
            heads.append(_min_ordinal(trace.visited[i]))
            acc = trace.snapshots[0][i]
            for snap in trace.snapshots[1:]:
                acc = acc.intersect(snap[i])
            tapes.append(acc)
            tails.append(_TailEffect())
            continue
        lam, virgin, fill = sweep
        # minimum a swept cell ever holds: virgin value, every written value,
        # and the stabilized fill
        min_bit = min(virgin, fill)
        if min_bit:
            for pos, low in trace.cell_min[i].items():
                if low == 0:
                    min_bit = 0
                    break
        heads.append(lam)
        tapes.append(base.tapes[i].fill(base.heads[i], lam, fill))
        tails.append(_TailEffect(fill_lo=end.heads[i], fill_hi=lam, min_bit=min_bit))
    time = add(base.time, OMEGA)
    limit = Configuration(state, tuple(heads), tuple(tapes), time)
    return limit, tails


def resolve_limit(
    program: Program,
    certificate: LoopCertificate,
    miracle_hook: Optional[MiracleHook] = None,
) -> Configuration:
    """Validate a certificate by replay and return the configuration at the
    least limit ordinal above the loop.  Raises MalformedCertificate when the
    replay contradicts the certified shape."""
    if certificate.period < 1:
        raise MalformedCertificate("period must be positive")
    trace = _replay_period(program, certificate.base, certificate.period, miracle_hook)
    if isinstance(certificate, ExactLoopCertificate):
        limit, _ = _resolve_exact(program, certificate, trace)
    else:
        limit, _ = _resolve_sweep(program, certificate, trace)
    return limit


# -- run outcomes -----------------------------------------------------------------


@dataclass(frozen=True)
class Halted:
    final: Configuration

    kind = "halted"


@dataclass(frozen=True)
class Diverges:
    certificate: LoopCertificate
    limit_behavior: Configuration

    kind = "diverges"


@dataclass(frozen=True)
class Unresolved:
    last: Configuration
    reason: str

    kind = "unresolved"


RunOutcome = Union[Halted, Diverges, Unresolved]


# -- segment statistics (between consecutive limit events) -------------------------


class _SegmentStats:
    """Per-cell minima, least heads/state and visited bounds over a segment."""

    __slots__ = (
        "acc",
        "acc_ok",
        "min_heads",
        "min_state",
        "visited_lo",
        "visited_hi",
        "start_time",
        "end_time",
    )

    def __init__(self, start: Configuration):
        self.acc: List[Tape] = list(start.tapes)
        self.acc_ok: List[bool] = [True] * len(start.tapes)
        self.min_heads: List[Ordinal] = list(start.heads)
        self.min_state: int = start.state
        self.visited_lo: List[Optional[Ordinal]] = [None] * len(start.tapes)
        self.visited_hi: List[Optional[Ordinal]] = [None] * len(start.tapes)
        self.start_time: Ordinal = start.time
        self.end_time: Ordinal = start.time

    def fold_visited(self, heads: Tuple[Ordinal, ...]):
        for i, h in enumerate(heads):
            if self.visited_lo[i] is None or compare(h, self.visited_lo[i]) < 0:
                self.visited_lo[i] = h
            top = add(h, ONE)
            if self.visited_hi[i] is None or compare(top, self.visited_hi[i]) > 0:
                self.visited_hi[i] = top

    def fold_config(self, config: Configuration):
        for i, t in enumerate(config.tapes):
            self.acc[i] = self.acc[i].intersect(t)
            if compare(config.heads[i], self.min_heads[i]) < 0:
                self.min_heads[i] = config.heads[i]
        self.min_state = min(self.min_state, config.state)
        self.end_time = config.time

    def fold_tail(self, tails: List[_TailEffect]):
        for i, tail in enumerate(tails):
            if tail.fill_lo is None:
                continue
            if tail.min_bit == 0:
                self.acc[i] = self.acc[i].fill(tail.fill_lo, tail.fill_hi, 0)
            # extend visited through the swept tail
            if self.visited_lo[i] is None or compare(tail.fill_lo, self.visited_lo[i]) < 0:
                self.visited_lo[i] = tail.fill_lo
            if self.visited_hi[i] is None or compare(tail.fill_hi, self.visited_hi[i]) > 0:
                self.visited_hi[i] = tail.fill_hi


def _combine_stats(parts: Sequence[_SegmentStats]) -> _SegmentStats:
    first = parts[0]
    out = object.__new__(_SegmentStats)
    out.acc = list(first.acc)
    out.acc_ok = list(first.acc_ok)
    out.min_heads = list(first.min_heads)
    out.min_state = first.min_state
    out.visited_lo = list(first.visited_lo)
    out.visited_hi = list(first.visited_hi)
    out.start_time = first.start_time
    out.end_time = first.end_time
    for part in parts[1:]:
        for i in range(len(out.acc)):
            out.acc[i] = out.acc[i].intersect(part.acc[i])
            out.acc_ok[i] = out.acc_ok[i] and part.acc_ok[i]
            if compare(part.min_heads[i], out.min_heads[i]) < 0:
                out.min_heads[i] = part.min_heads[i]
            if part.visited_lo[i] is not None and (
                out.visited_lo[i] is None
                or compare(part.visited_lo[i], out.visited_lo[i]) < 0
            ):
                out.visited_lo[i] = part.visited_lo[i]
            if part.visited_hi[i] is not None and (
                out.visited_hi[i] is None
                or compare(part.visited_hi[i], out.visited_hi[i]) > 0
            ):
                out.visited_hi[i] = part.visited_hi[i]
        out.min_state = min(out.min_state, part.min_state)
        out.end_time = part.end_time
    return out


# -- the runner --------------------------------------------------------------------


def initial_configuration(
    program: Program,
    input_tape: Tape = Tape(),
    oracle_tape: Optional[Tape] = None,
) -> Configuration:
    tapes = []
    for role in program.tape_roles:
        if role == "in":
            tapes.append(input_tape)
        elif role == "oracle" and oracle_tape is not None:
            tapes.append(oracle_tape)
        else:
            tapes.append(Tape())
    heads = tuple(ZERO for _ in range(program.n_tapes))
    return Configuration(program.start_state, heads, tuple(tapes), ZERO)


class _Runner:
    def __init__(
        self,
        program: Program,
        budget: RunBudget,
        hook: Optional[MiracleHook],
        trace: Optional[Callable[[dict], None]],
        trace_steps: bool,
        sweep_max_period: int,
        level_lookback: int,
    ):
        self.program = program
        self.budget = budget
        self.hook = hook
        self.trace = trace
        self.trace_steps = trace_steps
        self.sweep_max_period = sweep_max_period
        self.level_lookback = level_lookback
        self.steps = 0
        self.jumps = 0

    # .. trace helpers ..

    def _emit(self, record: dict):
        if self.trace is not None:
            self.trace(record)

    def _emit_step(self, before: Configuration, after: Configuration):
        if self.trace is None or not self.trace_steps:
            return
        from . import ordinals

        writes = []
        for i, (old, new) in enumerate(zip(before.tapes, after.tapes)):
            if old is not new and old != new:
                cell = before.heads[i]
                writes.append(
                    [
                        self.program.tape_roles[i],
                        ordinals.format_ordinal(cell),
                        new.read(cell),
                    ]
                )
        self._emit(
            {
                "event": "step",
                "time": ordinals.format_ordinal(after.time),
                "state": self.program.state_name(after.state),
                "heads": [ordinals.format_ordinal(h) for h in after.heads],
                "writes": writes,
            }
        )

    def _emit_limit(self, config: Configuration, kind: str):
        if self.trace is None:
            return
        from . import ordinals

        self._emit(
            {
                "event": "limit",
                "kind": kind,
                "time": ordinals.format_ordinal(config.time),
                "state": self.program.state_name(config.state),
                "heads": [ordinals.format_ordinal(h) for h in config.heads],
                "tapes": {
                    role: list(t.interval_strings())
                    for role, t in zip(self.program.tape_roles, config.tapes)
                },
            }
        )

    # .. level-0 detection ..

    def _detect_exact(self, history, index) -> Optional[ExactLoopCertificate]:
        key = history[-1].key()
        i = index.get(key)
        if i is None or i == len(history) - 1:
            return None
        return ExactLoopCertificate(base=history[i], period=len(history) - 1 - i)

    def _detect_sweep(
        self, history
    ) -> Optional[Tuple[SweepLoopCertificate, Configuration, List[_TailEffect]]]:
        """The first period whose recorded run certifies a sweep, as
        (certificate, limit, tails), or None."""
        cur = history[-1]
        top = min(self.sweep_max_period, len(history) - 1)
        for period in range(1, top + 1):
            base = history[-1 - period]
            if base.state != cur.state:
                continue
            strides = []
            ok = True
            moving = False
            for hb, hc in zip(base.heads, cur.heads):
                c = compare(hb, hc)
                if c > 0:
                    ok = False
                    break
                if c == 0:
                    strides.append(ZERO)
                    continue
                d = sub_left(hc, hb)
                if not d.is_natural:
                    ok = False
                    break
                strides.append(d)
                moving = True
            if not ok or not moving:
                continue
            cert = SweepLoopCertificate(
                base=base, period=period, strides=tuple(strides)
            )
            trace = _RecordedPeriod(self.program, history[-1 - period :])
            try:
                limit, tails = _resolve_sweep(self.program, cert, trace)
            except MalformedCertificate:
                continue
            return cert, limit, tails
        return None

    # .. limit-level detection ..

    def _detect_limit_level(self, entries):
        """entries: list of (config, stats).  Returns (base_index, kind,
        limit_config, new_stats) or None."""
        j = len(entries) - 1
        config_j, _ = entries[j]
        lo = max(0, j - self.level_lookback)
        for i in range(j - 1, lo - 1, -1):
            config_i, _ = entries[i]
            combined = _combine_stats([s for _, s in entries[i + 1 : j + 1]])
            result = self._try_limit_exact(config_i, config_j, combined)
            if result is None:
                result = self._try_limit_translation(config_i, config_j, combined)
            if result is not None:
                kind, limit, stats = result
                return i, kind, limit, stats
        return None

    def _try_limit_exact(self, config_i, config_j, combined):
        if config_i.key() != config_j.key():
            return None
        if not all(combined.acc_ok):
            return None
        seg_len = sub_left(config_j.time, config_i.time)
        time = add(config_i.time, mul(seg_len, OMEGA))
        limit = Configuration(
            combined.min_state,
            tuple(combined.min_heads),
            tuple(combined.acc),
            time,
        )
        stats = _combine_stats([combined])
        stats.start_time = config_j.time
        stats.end_time = time
        return "limit-cycle", limit, stats

    def _try_limit_translation(self, config_i, config_j, combined):
        if config_i.state != config_j.state:
            return None
        n = self.program.n_tapes
        strides: List[Ordinal] = []
        moving = False
        for i in range(n):
            c = compare(config_i.heads[i], config_j.heads[i])
            if c > 0:
                return None
            if c == 0:
                strides.append(ZERO)
            else:
                strides.append(sub_left(config_j.heads[i], config_i.heads[i]))
                moving = True
        if not moving:
            return None
        heads: List[Ordinal] = []
        tapes: List[Tape] = []
        new_acc: List[Tape] = []
        new_acc_ok: List[bool] = []
        new_vlo: List[Optional[Ordinal]] = []
        new_vhi: List[Optional[Ordinal]] = []
        for i in range(n):
            d = strides[i]
            if d.is_zero:
                if config_i.tapes[i] != config_j.tapes[i]:
                    return None
                if not combined.acc_ok[i]:
                    return None
                heads.append(combined.min_heads[i])
                tapes.append(combined.acc[i])
                new_acc.append(combined.acc[i])
                new_acc_ok.append(True)
                new_vlo.append(combined.visited_lo[i])
                new_vhi.append(combined.visited_hi[i])
                continue
            h_i, h_j = config_i.heads[i], config_j.heads[i]
            lam = add(h_i, mul(d, OMEGA))
            vlo, vhi = combined.visited_lo[i], combined.visited_hi[i]
            if vlo is not None and compare(vlo, h_i) < 0:
                return None
            if vhi is not None and compare(vhi, h_j) > 0:
                return None
            virgin = config_i.tapes[i].constant_on(h_i, lam)
            if virgin is None:
                return None
            fill = config_j.tapes[i].constant_on(h_i, h_j)
            if fill is None:
                return None
            limit_tape = config_i.tapes[i].fill(h_i, lam, fill)
            heads.append(lam)
            tapes.append(limit_tape)
            # minima over the tail windows: the combined acc restricted to the
            # window, which must be constant to stay representable
            m_const = combined.acc[i].constant_on(h_i, h_j) if combined.acc_ok[i] else None
            acc_new = limit_tape.intersect(config_j.tapes[i])
            if m_const is None:
                new_acc_ok.append(False)
                new_acc.append(acc_new)
            else:
                if m_const == 0:
                    acc_new = acc_new.fill(h_j, lam, 0)
                new_acc_ok.append(True)
                new_acc.append(acc_new)
            new_vlo.append(h_j)
            new_vhi.append(lam)
        seg_len = sub_left(config_j.time, config_i.time)
        time = add(config_i.time, mul(seg_len, OMEGA))
        limit = Configuration(combined.min_state, tuple(heads), tuple(tapes), time)
        stats = object.__new__(_SegmentStats)
        stats.acc = new_acc
        stats.acc_ok = new_acc_ok
        stats.min_heads = [
            h_j if not strides[i].is_zero else combined.min_heads[i]
            for i, h_j in enumerate(config_j.heads)
        ]
        stats.min_state = combined.min_state
        stats.visited_lo = new_vlo
        stats.visited_hi = new_vhi
        stats.start_time = config_j.time
        stats.end_time = time
        return "limit-sweep", limit, stats

    # .. main loop ..

    def run(self, config: Configuration) -> RunOutcome:
        program = self.program
        config = _apply_hook(program, config, self.hook)
        seg = _SegmentStats(config)
        history: List[Configuration] = [config]
        index: Dict[tuple, int] = {config.key(): 0}
        entries: List[Tuple[Configuration, _SegmentStats]] = []

        while True:
            if config.state in program.halt_states:
                self._emit(
                    {
                        "event": "halt",
                        "time": _fmt_time(config),
                        "state": program.state_name(config.state),
                    }
                )
                return Halted(config)
            if self.steps >= self.budget.max_successor_steps:
                return Unresolved(config, "successor step budget exhausted")

            before = config
            seg.fold_visited(before.heads)
            config = _estep(program, before, self.hook)
            self.steps += 1
            seg.fold_config(config)
            self._emit_step(before, config)
            history.append(config)

            cert = self._detect_exact(history, index)
            if cert is not None:
                trace = _RecordedPeriod(program, history[-1 - cert.period :])
                limit, tails = _resolve_exact(program, cert, trace)
                kind = "cycle"
            else:
                found = self._detect_sweep(history)
                if found is None:
                    index[config.key()] = len(history) - 1
                    continue
                cert, limit, tails = found
                kind = "sweep"

            # jump to the loop's limit, then cascade limit-level detection
            if self.jumps >= self.budget.max_limit_jumps:
                return Unresolved(config, "limit jump budget exhausted")
            self.jumps += 1
            seg.fold_tail(tails)
            limit = _apply_hook(program, limit, self.hook)
            seg.fold_config(limit)
            if limit.key() == cert.base.key():
                self._emit_limit(limit, "diverges")
                return Diverges(cert, limit)
            self._emit_limit(limit, kind)
            entries.append((limit, seg))
            config = limit

            while True:
                found = self._detect_limit_level(entries)
                if found is None:
                    break
                i, lkind, llimit, lstats = found
                if self.jumps >= self.budget.max_limit_jumps:
                    return Unresolved(config, "limit jump budget exhausted")
                self.jumps += 1
                llimit = _apply_hook(program, llimit, self.hook)
                if llimit.key() == entries[i][0].key():
                    self._emit_limit(llimit, "diverges")
                    return Diverges(
                        ExactLoopCertificate(base=entries[i][0], period=1), llimit
                    )
                self._emit_limit(llimit, lkind)
                entries.append((llimit, lstats))
                config = llimit

            seg = _SegmentStats(config)
            history = [config]
            index = {config.key(): 0}


def _fmt_time(config: Configuration) -> str:
    from . import ordinals

    return ordinals.format_ordinal(config.time)


def run(
    program: Program,
    input_tape: Tape = Tape(),
    budget: RunBudget = RunBudget(),
    *,
    oracle_tape: Optional[Tape] = None,
    miracle_hook: Optional[MiracleHook] = None,
    trace: Optional[Callable[[dict], None]] = None,
    trace_steps: bool = False,
    sweep_max_period: int = 24,
    level_lookback: int = 16,
) -> RunOutcome:
    """Execute from the standard start: start state, heads at 0, given input,
    all other tapes empty."""
    config = initial_configuration(program, input_tape, oracle_tape)
    runner = _Runner(
        program,
        budget,
        miracle_hook,
        trace,
        trace_steps,
        sweep_max_period,
        level_lookback,
    )
    return runner.run(config)
