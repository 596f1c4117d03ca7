"""Randomized limit-rule soundness: whenever the executor resolves a limit at
time w, the limit configuration must agree with inferior limits recomputed
directly from a long recorded prefix of the run."""

import collections
import itertools
import random
import sys
from pathlib import Path

import oracles
from otmlab import codes, hfsets, machine, ordinals
from otmlab.asm import parse_program
from otmlab.errors import MalformedCertificate
from otmlab.machine import (
    Diverges,
    LoopCertificate,
    RunBudget,
    initial_configuration,
    resolve_limit,
    run,
    step,
)
from otmlab.ordinals import OMEGA, ZERO, add, from_int, mul, parse_ordinal
from otmlab.programs import Configuration, Program, Transition
from otmlab.tapes import Tape
from test_machine import EVERY_CELL_DIPS, RESTARTING_RUN, random_program

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PREFIX_STEPS = 1200
TAIL = 500
SAMPLE_CELLS = 50
TRIALS = 30


def sweepish_program(rng):
    """Small machines biased toward rightward sweeps on the work tape."""
    n_states = rng.randint(1, 3)
    names = tuple(f"s{i}" for i in range(n_states))
    roles = ("in", "work", "out")
    transitions = {}
    for state in range(n_states):
        for reads in itertools.product((0, 1), repeat=3):
            writes = tuple(rng.randint(0, 1) for _ in roles)
            moves = (
                rng.choice("SSR"),
                rng.choice("RRRS"),
                rng.choice("SSR"),
            )
            transitions[(state, reads)] = Transition(
                writes, moves, rng.randrange(n_states)
            )
    return Program(
        state_names=names,
        tape_roles=roles,
        start_state=0,
        halt_states=frozenset(),
        transitions=transitions,
    )


def random_input(rng):
    intervals = []
    cursor = 0
    for _ in range(rng.randint(0, 3)):
        cursor += rng.randint(0, 6)
        length = rng.randint(1, 5)
        intervals.append((from_int(cursor), from_int(cursor + length)))
        cursor += length
    return Tape(intervals)


def _first_limit_matches_liminfs(program, input_tape):
    """Run to the first limit; when it lies at w, check it against inferior
    limits recomputed from a recorded prefix of plain successor steps and
    return its kind (None when the run reaches no limit at w)."""
    limits = []
    run(
        program,
        input_tape,
        RunBudget(400, 1),
        trace=lambda r: limits.append(r) if r["event"] == "limit" else None,
    )
    if not limits or limits[0]["time"] != "w":
        return None

    # record the genuine prefix with plain successor steps; tapes are
    # immutable so snapshots are free
    config = initial_configuration(program, input_tape)
    snapshots, state_hist, head_hist = [], [], []
    wi = program.tape_index("work")
    for _ in range(PREFIX_STEPS):
        config = step(program, config)
        snapshots.append(config.tapes[wi])
        state_hist.append(config.state)
        head_hist.append(config.heads[wi])

    record = limits[0]
    # state: least state occurring cofinally
    tail_states = state_hist[-TAIL:]
    assert record["state"] == program.state_name(min(set(tail_states)))
    # sampled work cells: min over the recurring tail values
    limit_work = Tape(tuple(_parse_interval(s) for s in record["tapes"]["work"]))
    tail_snaps = snapshots[-TAIL:]
    for c in range(SAMPLE_CELLS):
        cell = from_int(c)
        want = min(snap.read(cell) for snap in tail_snaps)
        assert limit_work.read(cell) == want, f"cell {c}"
    # work head: the supremum for escaping heads, the least recurring
    # position for periodic ones
    tail_heads = head_hist[-TAIL:]
    if record["heads"][wi] == "w":
        assert tail_heads[-1].to_int() > 100
        assert tail_heads[-1] > tail_heads[0]
    else:
        low = tail_heads[0]
        for h in tail_heads:
            if h < low:
                low = h
        assert parse_ordinal(record["heads"][wi]) == low
    return record["kind"]


def test_resolved_limits_match_recomputed_liminfs(monkeypatch):
    """The limit at w agrees with the inferior limits of the run below it, on
    sweep-biased programs, whose heads never move left, and on random_program
    runs, which move them both ways and so also reach w by exact repetition:
    the rule with all strides zero."""
    monkeypatch.setattr(machine, "_SWEEP_MAX_PERIOD", 8)
    rng = random.Random(20260809)
    sweepish = collections.Counter(
        _first_limit_matches_liminfs(sweepish_program(rng), random_input(rng))
        for _ in range(TRIALS)
    )
    rng = random.Random(2)
    left = collections.Counter(
        _first_limit_matches_liminfs(random_program(rng), random_input(rng))
        for _ in range(40)
    )
    # the generators must actually exercise the limit machinery
    assert TRIALS - sweepish[None] >= 10, sweepish
    assert 40 - left[None] >= 15 and left["cycle"] >= 1, left


def _parse_interval(text):
    lo, hi = text[1:-1].split(",")
    return parse_ordinal(lo), parse_ordinal(hi)


W2 = parse_ordinal("w^2")
# segments w*k..w*(k+1) late enough that the run below w^2 has settled into
# the pattern the level-1 jump certified
LATE_SEGMENTS = range(4, 8)
SEGMENT_STEPS = 300


def _partial_program(names, rules):
    """A program on (in, work, out) whose last state halts and whose other
    (state, reads) pairs without a rule go there.  rules maps (state, reads)
    to (writes, moves, next state)."""
    halt = len(names) - 1
    transitions = {}
    for state in range(halt):
        for reads in itertools.product((0, 1), repeat=3):
            writes, moves, target = rules.get(
                (names[state], reads), (reads, "SSS", names[halt])
            )
            transitions[(state, reads)] = Transition(
                writes, tuple(moves), names.index(target)
            )
    return Program(
        state_names=names,
        tape_roles=("in", "work", "out"),
        start_state=0,
        halt_states=frozenset((halt,)),
        transitions=transitions,
    )


# The work head parks at 0 (cell 0 toggles), sweeps to w (the out cell
# toggles), falls back to 0 from w and sweeps again (the in cell toggles),
# then falls back and parks again.  The limits at w and w*3 differ only by
# the work head's translation 0 -> w, but at w*2 the head is stepped from w,
# outside the window [0, w): no limit-level sweep may be certified there.
# The limits repeat at w*4, so the work head at w^2 is 0.
PARK_SWEEP_RESTART = _partial_program(
    ("a1", "a2", "b1", "p1", "h"),
    {
        # reads and writes are (in, work, out)
        ("a1", (0, 0, 1)): ((0, 0, 0), "SRS", "a2"),
        ("a2", (0, 0, 0)): ((0, 0, 1), "SSS", "a1"),
        ("a1", (0, 0, 0)): ((0, 1, 1), "SLS", "b1"),
        ("b1", (0, 0, 1)): ((1, 0, 1), "SSS", "a1"),
        ("a1", (1, 0, 1)): ((0, 0, 1), "SRS", "b1"),
        ("a1", (0, 1, 1)): ((0, 0, 1), "SLS", "p1"),
        ("p1", (0, 0, 1)): ((0, 1, 1), "SSS", "a1"),
        ("b1", (0, 1, 1)): ((0, 1, 1), "SSS", "a1"),
    },
)


def _limit_configuration(program, record):
    """The configuration a trace's limit record describes."""
    return Configuration(
        program.state_names.index(record["state"]),
        tuple(parse_ordinal(h) for h in record["heads"]),
        tuple(
            Tape(tuple(_parse_interval(s) for s in record["tapes"][role]))
            for role in program.tape_roles
        ),
        parse_ordinal(record["time"]),
    )


def _segment_minima(program, config, cells):
    """Least state, least head positions and least value of each sampled
    cell over a limit configuration and the successor steps after it."""
    state, heads = config.state, list(config.heads)
    lows = [{c: t.read(c) for c in cells} for t in config.tapes]
    for _ in range(SEGMENT_STEPS):
        before, config = config, step(program, config)
        state = min(state, config.state)
        for i, tape in enumerate(config.tapes):
            heads[i] = min(heads[i], config.heads[i])
            cell = before.heads[i]
            if cell in lows[i]:
                lows[i][cell] = min(lows[i][cell], tape.read(cell))
    return state, heads, lows


def test_limit_level_jumps_match_liminfs_of_level0_segments(monkeypatch):
    """The configuration at w^2 is the inferior limit of the run below it.
    Rebuild it without limit-level detection: rerun with a
    _detect_limit_level that finds no loop of limits, so every limit w*k
    comes from the level-0 resolver, and take the minima over late segments
    w*k..w*(k+1) of the state, each head and cells the run has left behind
    (naturals and cells below w*3)."""
    monkeypatch.setattr(machine, "_SWEEP_MAX_PERIOD", 8)
    rng = random.Random(20261018)
    cases = [(f"seeded {i}", sweepish_program(rng), random_input(rng)) for i in range(30)]
    cases.append(("park-sweep-restart", PARK_SWEEP_RESTART, Tape()))
    cells = [from_int(c) for c in range(30)] + [
        add(mul(OMEGA, from_int(m)), from_int(c)) for m in (1, 2) for c in range(15)
    ]
    checked = []
    for name, program, input_tape in cases:
        limits = []
        keep = lambda r: limits.append(r) if r["event"] == "limit" else None
        run(program, input_tape, RunBudget(400, 5), trace=keep)
        jump = next((r for r in limits if r["time"] == "w^2"), None)
        if jump is None:
            continue
        limits.clear()
        with monkeypatch.context() as m:
            m.setattr(machine._Runner, "_detect_limit_level", lambda self, entries: None)
            run(program, input_tape, RunBudget(4000, LATE_SEGMENTS.stop), trace=keep)
        times = [parse_ordinal(r["time"]) for r in limits]
        assert times == [mul(OMEGA, from_int(k)) for k in range(1, LATE_SEGMENTS.stop + 1)]
        segments = [
            _segment_minima(program, _limit_configuration(program, limits[k - 1]), cells)
            for k in LATE_SEGMENTS
        ]
        assert jump["state"] == program.state_name(min(s for s, _, _ in segments)), name
        for i, role in enumerate(program.tape_roles):
            lows = [heads[i] for _, heads, _ in segments]
            if all(low == lows[0] for low in lows):
                want = lows[0]
            else:
                # a head that never returns below its segment's start escapes
                # to the supremum
                assert all(
                    low >= mul(OMEGA, from_int(k)) for k, low in zip(LATE_SEGMENTS, lows)
                ), f"{name}: {role} head neither settles nor escapes"
                want = W2
            assert parse_ordinal(jump["heads"][i]) == want, f"{name}: {role} head"
            tape = Tape(tuple(_parse_interval(s) for s in jump["tapes"][role]))
            for c in cells:
                want = min(seg_lows[i][c] for _, _, seg_lows in segments)
                assert tape.read(c) == want, f"{name}: {role} cell {c}"
        checked.append(name)
    assert "park-sweep-restart" in checked
    assert len(checked) >= 15, f"only {len(checked)} programs reached w^2"


def test_multi_jump_runs_are_deterministic_and_robust(monkeypatch):
    """Random machines driven through several limit levels: no crashes, and
    identical reruns."""
    monkeypatch.setattr(machine, "_SWEEP_MAX_PERIOD", 6)
    rng = random.Random(7)
    seen_multi = 0
    for _ in range(12):
        program = sweepish_program(rng)
        input_tape = random_input(rng)
        first = run(program, input_tape, RunBudget(200, 3))
        second = run(program, input_tape, RunBudget(200, 3))
        assert first == second
        last = getattr(first, "final", None) or getattr(first, "last", None) \
            or first.limit_behavior
        if last.time >= add(OMEGA, OMEGA):
            seen_multi += 1
    assert seen_multi >= 2, "generator never reached a second limit"


# both tapes sweep; the hook below clears the miracle tape on every arrival in
# qm, so the 1 that b writes there is gone from the configuration after the
# step: what a step writes differs from what the tape holds after it
REWRITTEN_MIRACLE = """
tapes in work out miracle;
state a;
state b;
state qm miracle;
rule a -> write miracle=1 goto b;
rule b -> write miracle=1, work=1 move work=R, miracle=R goto qm;
rule qm -> goto a;
"""


def test_recorded_periods_match_replays(monkeypatch):
    """At every step, every candidate period read off the recorded run must
    equal a re-execution of that period from its base.  The loop rule reads
    a period only through this list of configurations."""
    checked = {"sweep": 0, "cycle": 0}
    detect = machine._Runner._detect

    def check_period(runner, history, period, kind):
        replayed = [history[-1 - period]]
        for _ in range(period):
            stepped = machine.step(runner.program, replayed[-1])
            replayed.append(machine._apply_hook(runner.program, stepped, runner.hook))
        assert history[-1 - period :] == replayed
        checked[kind] += 1

    def checked_detect(self, history, index):
        i = index.get(history[-1].key())
        if i is not None:
            check_period(self, history, len(history) - 1 - i, "cycle")
        for period in range(1, min(machine._SWEEP_MAX_PERIOD, len(history) - 1) + 1):
            check_period(self, history, period, "sweep")
        return detect(self, history, index)

    monkeypatch.setattr(machine._Runner, "_detect", checked_detect)
    monkeypatch.setattr(machine, "_SWEEP_MAX_PERIOD", 8)

    rng = random.Random(20261017)
    for _ in range(12):
        program = sweepish_program(rng)
        run(program, random_input(rng), RunBudget(120, 3))
    run(
        parse_program(REWRITTEN_MIRACLE),
        budget=RunBudget(60, 2),
        miracle_hook=lambda tape: Tape(),
    )
    assert checked["sweep"] > 1000
    assert checked["cycle"] > 0


def test_divergence_certificates_replay_or_name_the_recurring_limit(monkeypatch):
    """Every Diverges either carries a certificate that resolve_limit replays
    to its limit behaviour, or one of a loop of limits, whose base is the
    recurring limit itself."""
    monkeypatch.setattr(machine, "_SWEEP_MAX_PERIOD", 8)
    rng = random.Random(7)
    cases = [
        (sweepish_program(rng), random_input(rng), RunBudget(200, 3))
        for _ in range(40)
    ]
    cases.append(
        (parse_program(RESTARTING_RUN), Tape([(ZERO, OMEGA)]), RunBudget(1000, 16))
    )
    seen = {"replays": 0, "limit level": 0}
    for program, input_tape, budget in cases:
        out = run(program, input_tape, budget)
        if not isinstance(out, Diverges):
            continue
        cert = out.certificate
        # a sweep's limit moves a head, so only a recurrence returns to base
        assert all(d.is_zero for d in cert.strides)
        try:
            replayed = resolve_limit(program, cert)
        except MalformedCertificate:
            assert isinstance(cert, LoopCertificate) and cert.period == 1
            assert cert.base.time.is_limit
            assert cert.base.key() == out.limit_behavior.key()
            seen["limit level"] += 1
        else:
            assert replayed == out.limit_behavior
            seen["replays"] += 1
    assert seen["replays"] >= 2 and seen["limit level"] == 1


def _naive_bounds(positions):
    low = high = positions[0]
    for h in positions[1:]:
        if h < low:
            low = h
        if h > high:
            high = h
    return low, add(high, from_int(1))


def test_folded_summaries_match_the_recorded_run(monkeypatch):
    """At every step, the segment summary read off the recorded run
    (_Summary.of(history), as the runner builds it at a jump) equals the fold
    of every configuration since the segment start, and every candidate
    period's visited bounds, extended lazily as _detect extends them, equal a
    scan of every position a head was stepped from.  At every level-0 jump,
    the summary the runner combines with the loop's tail is that fold."""
    naive = {"history": None, "n": 0, "acc": None}
    checked = {"steps": 0, "jumps": 0, "windows": 0, "skipped": 0}
    detect = machine._Runner._detect
    combine = machine._combine_stats

    def assert_naive_fold(seg, history):
        assert seg.acc == naive["acc"]
        assert seg.min_state == min(c.state for c in history)
        for i in range(len(history[0].tapes)):
            assert seg.min_heads[i] == min(c.heads[i] for c in history)
            lo_hi = _naive_bounds([c.heads[i] for c in history[:-1]])
            assert (seg.visited_lo[i], seg.visited_hi[i]) == lo_hi

    def checked_combine(parts):
        # the runner's level-0 jump combines [segment, tail], the segment read
        # off the recorded run; every other call combines limit-level
        # summaries or a single period
        if len(parts) == 2 and parts[0]._configs is naive["history"]:
            assert_naive_fold(parts[0], naive["history"])
            checked["jumps"] += 1
        return combine(parts)

    def checked_detect(self, history, index):
        if naive["history"] is not history:
            naive.update(history=history, n=1, acc=list(history[0].tapes))
        for c in history[naive["n"] :]:
            naive["acc"] = [a.intersect(t) for a, t in zip(naive["acc"], c.tapes)]
        naive["n"] = len(history)
        assert_naive_fold(machine._Summary.of(history), history)
        checked["steps"] += 1
        n_tapes = len(history[0].tapes)

        end = history[-1]
        every = machine._HeadBounds(history)
        lazy = machine._HeadBounds(history)
        last = 0
        for period in range(1, min(machine._SWEEP_MAX_PERIOD, len(history) - 1) + 1):
            base = history[-1 - period]
            units = [machine._Summary(history[-1 - period :], *every.upto(period))]
            if machine._strides(base, end) is not None:
                checked["skipped"] += period - last > 1
                last = period
                units.append(
                    machine._Summary(history[-1 - period :], *lazy.upto(period))
                )
            for i in range(n_tapes):
                positions = [c.heads[i] for c in history[-1 - period : -1]]
                lo, hi = base.heads[i], end.heads[i]
                want = all(lo <= h < hi for h in positions)
                for unit in units:
                    assert unit.within(i, lo, hi) == want
                    bounds = (unit.visited_lo[i], unit.visited_hi[i])
                    assert bounds == _naive_bounds(positions)
                checked["windows"] += 1
        return detect(self, history, index)

    monkeypatch.setattr(machine._Runner, "_detect", checked_detect)
    monkeypatch.setattr(machine, "_combine_stats", checked_combine)

    rng = random.Random(20261018)
    with monkeypatch.context() as m:
        m.setattr(machine, "_SWEEP_MAX_PERIOD", 8)
        for _ in range(12):
            program = sweepish_program(rng)
            run(program, random_input(rng), RunBudget(200, 3))
        run(
            parse_program(REWRITTEN_MIRACLE),
            budget=RunBudget(60, 2),
            miracle_hook=lambda tape: Tape(),
        )
    run(parse_program(RESTARTING_RUN), Tape([(ZERO, OMEGA)]), RunBudget(300, 6))
    assert checked["steps"] > 1200
    assert checked["jumps"] > 10
    assert checked["windows"] > 20000
    assert checked["skipped"] > 1000


def test_combined_summary_is_the_naive_fold_of_its_parts():
    """_combine_stats, which folds later parts into a copy of the first,
    equals a fold of all its parts field by field: the intersection of their
    tapes, the conjunction of acc_ok, the least head, the least state, the
    least visited_lo and the greatest visited_hi.  The parts are periods of
    random configurations and, as at the limit level, earlier combinations."""
    rng = random.Random(20261020)
    positions = [ZERO, from_int(1), from_int(3), OMEGA, add(OMEGA, from_int(2))]
    n_tapes = 2

    def random_period():
        configs = [
            Configuration(
                rng.randrange(3),
                tuple(rng.choice(positions) for _ in range(n_tapes)),
                tuple(random_input(rng) for _ in range(n_tapes)),
                ZERO,
            )
            for _ in range(rng.randint(2, 4))
        ]
        part = machine._Summary.of(configs)
        part.acc_ok = [rng.random() < 0.8 for _ in range(n_tapes)]
        return part

    beyond_first = collections.Counter()
    for _ in range(300):
        parts = [random_period() for _ in range(rng.randint(1, 4))]
        if len(parts) > 2 and rng.random() < 0.5:
            parts = [machine._combine_stats(parts[:2])] + parts[2:]
        out = machine._combine_stats(parts)
        first, later = parts[0], parts[1:]
        assert out.min_state == min(p.min_state for p in parts)
        beyond_first["state"] += any(p.min_state < first.min_state for p in later)
        for i in range(n_tapes):
            acc = first.acc[i]
            for p in later:
                acc = acc.intersect(p.acc[i])
            assert out.acc[i] == acc
            assert out.acc_ok[i] == all(p.acc_ok[i] for p in parts)
            assert out.min_heads[i] == min(p.min_heads[i] for p in parts)
            assert out.visited_lo[i] == min(p.visited_lo[i] for p in parts)
            assert out.visited_hi[i] == max(p.visited_hi[i] for p in parts)
            for field in ("min_heads", "visited_lo"):
                low = getattr(first, field)[i]
                beyond_first[field] += any(getattr(p, field)[i] < low for p in later)
            beyond_first["visited_hi"] += any(
                p.visited_hi[i] > first.visited_hi[i] for p in later
            )
    assert min(beyond_first.values()) >= 30, beyond_first


def test_accepted_sweeps_give_each_swept_tail_its_window(monkeypatch):
    """For every sweep _resolve_loop accepts, the summary of the run from
    the end h1 of each swept head's window up to the sweep limit lam has
    visited bounds [h1, lam) and least head h1, and the tail's least state
    is the period's, which is the limit's state.  The runs are the test
    generators' programs: sweep-biased ones, and random_program runs whose
    heads also move left."""
    resolve = machine._resolve_loop
    seen = collections.Counter()

    def checked_resolve(base, end, strides, unit):
        limit, tail = resolve(base, end, strides, unit)
        assert tail.min_state == unit.min_state == limit.state
        for i, d in enumerate(strides):
            if d.is_zero:
                continue
            h1, lam = end.heads[i], limit.heads[i]
            assert (tail.visited_lo[i], tail.visited_hi[i]) == (h1, lam)
            assert tail.min_heads[i] == h1
            seen["swept tapes"] += 1
        return limit, tail

    monkeypatch.setattr(machine, "_resolve_loop", checked_resolve)
    rng = random.Random(20261021)
    for _ in range(20):
        run(sweepish_program(rng), random_input(rng), RunBudget(200, 4))
    rng = random.Random(2)
    for _ in range(40):
        run(random_program(rng), random_input(rng), RunBudget(60, 4))
    assert seen["swept tapes"] >= 50, seen


_TAIL_FIELDS = ("acc", "acc_ok", "min_heads", "min_state", "visited_lo", "visited_hi")


def _decision(found):
    """What a detection decides: the loop's kind, certificate and limit, and
    every field of the summary of the run from its end to the limit."""
    if found is None:
        return None
    kind, cert, limit, tail = found
    return kind, cert, limit, [getattr(tail, f) for f in _TAIL_FIELDS]


def test_detection_matches_the_unfiltered_scan(monkeypatch):
    """At every step, _Runner._detect, which tries only bases in the end's
    state and rejects most of them before building a summary, decides what
    the unfiltered scan of oracles.reference_detect decides.  The runs
    include programs that move heads left, hand-written limit-level loops,
    a miracle hook that rewrites its tape and the shipped .otm stages, whose
    bases block a tape, so the blocked-head screen rejects almost all of
    their candidates."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import stages as bench_stages

    detect = machine._Runner._detect
    seen = collections.Counter()

    def compared(self, history, index):
        # the reference reads index as it was before the step; _detect adds
        # the end to it
        want = oracles.reference_detect(history, index, machine._SWEEP_MAX_PERIOD)
        found = detect(self, history, index)
        assert _decision(found) == _decision(want)
        seen[found[0] if found else "none"] += 1
        return found

    monkeypatch.setattr(machine._Runner, "_detect", compared)

    rng = random.Random(20261019)
    for _ in range(10):
        run(sweepish_program(rng), random_input(rng), RunBudget(200, 3))
    # after each of its first three limits the input head is still below w,
    # so a base index and sweep limit of one segment recur in the next with
    # other tape ahead of the sweep
    rng = random.Random(294)
    run(sweepish_program(rng), random_input(rng), RunBudget(100, 6))
    seeded = seen.copy()
    # random_program moves heads left, so heads reset at limits
    rng = random.Random(2)
    for _ in range(40):
        run(random_program(rng), random_input(rng), RunBudget(60, 4))
    left = seen - seeded
    full_input = Tape([(ZERO, OMEGA)])
    run(parse_program(EVERY_CELL_DIPS), full_input, RunBudget(400, 8))
    run(parse_program(RESTARTING_RUN), full_input, RunBudget(300, 6))
    with monkeypatch.context() as m:
        m.setattr(machine, "_SWEEP_MAX_PERIOD", 8)
        run(PARK_SWEEP_RESTART, Tape(), RunBudget(400, 5))
        run(
            parse_program(REWRITTEN_MIRACLE),
            budget=RunBudget(60, 2),
            miracle_hook=lambda tape: Tape(),
        )
    hand = seen.copy()
    sets = [x for x in hfsets.universe_rank_le(2) if len(x)]
    for _, program, x, _ in bench_stages.stage_runs(sets):
        run(program, codes.code_to_tape(codes.encode(x)))
    staged = seen - hand
    assert seeded["sweep"] >= 5 and seeded["none"] >= 1000, seeded
    assert left["sweep"] >= 20 and left["cycle"] >= 10, left
    assert hand["sweep"] >= seeded["sweep"] + left["sweep"] + 6, hand
    assert staged["sweep"] >= 3 and staged["none"] >= 400, staged


def test_detection_resolves_only_candidates_its_prefilter_cannot_reject(monkeypatch):
    """On the shipped .otm stages, the benchmark's limit fixtures and seeded
    sweep-biased programs, every candidate that reaches _resolve_loop shares
    the end's state, and none fails the stationary-tape or the ahead-of-sweep
    check: _detect decides those before it builds a segment summary.  So each
    call from _detect certifies an exact recurrence or a sweep, or fails the
    window or fill check."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import limits as bench_limits
    import stages as bench_stages

    resolve = machine._resolve_loop
    detect = machine._Runner._detect
    prefiltered = ("changed content", "ahead of the sweep")
    counts = collections.Counter()
    in_detect = []

    def counted_resolve(base, end, strides, unit):
        assert base.state == end.state
        where = "detect" if in_detect else "limit level"
        counts[where] += 1
        try:
            found = resolve(base, end, strides, unit)
        except MalformedCertificate as exc:
            reason = str(exc)
            assert not any(r in reason for r in prefiltered), reason
            if in_detect and "leaves its sweep window" in reason:
                counts["window"] += 1
            elif in_detect and "pattern is not constant" in reason:
                counts["fill"] += 1
            raise
        counts["certified " + where] += 1
        return found

    def flagged_detect(self, history, index):
        in_detect.append(True)
        try:
            return detect(self, history, index)
        finally:
            in_detect.pop()

    monkeypatch.setattr(machine, "_resolve_loop", counted_resolve)
    monkeypatch.setattr(machine._Runner, "_detect", flagged_detect)

    sets = [x for x in hfsets.universe_rank_le(3) if len(x)]
    for _, program, x, _ in bench_stages.stage_runs(sets):
        run(program, codes.code_to_tape(codes.encode(x)))
    for text, budget, _ in bench_limits.FIXTURES.values():
        run(parse_program(text), Tape(), budget)
    rng = random.Random(bench_limits.POOL_SEED)
    for _ in range(20):
        run(sweepish_program(rng), random_input(rng), bench_limits.BUDGET)
    resolved = counts["certified detect"] + counts["window"] + counts["fill"]
    assert counts["detect"] <= resolved, counts
    assert counts["certified detect"] >= 30 and counts["limit level"] >= 20, counts
    assert counts["window"] and counts["fill"], counts


def test_no_sweep_candidate_moves_the_head_of_a_tape_its_base_blocks(monkeypatch):
    """A base blocks the tapes that are not constant on the w cells from
    their head.  On the shipped .otm stages, seeded sweep-biased programs and
    left-moving random_program runs, no candidate that reaches _strides from
    _detect moves the head of a tape its base blocks: _detect rejects those
    by head identity before _strides runs."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import limits as bench_limits
    import stages as bench_stages

    strides = machine._strides
    blocked_tapes = machine._blocked_tapes
    detect = machine._Runner._detect
    in_detect = []
    seen = collections.Counter()

    def checked_strides(base, end):
        if in_detect:
            seen["candidates"] += 1
            for i, (tape, h0) in enumerate(zip(base.tapes, base.heads)):
                if end.heads[i] is not h0:
                    assert tape.constant_on(h0, add(h0, OMEGA)) is not None, i
                    seen["moved"] += 1
        return strides(base, end)

    def flagged_detect(self, history, index):
        in_detect.append(True)
        try:
            return detect(self, history, index)
        finally:
            in_detect.pop()

    def counted_blocked(base):
        blocked = blocked_tapes(base)
        seen["bases"] += 1
        seen["blocking bases"] += bool(blocked)
        return blocked

    monkeypatch.setattr(machine, "_strides", checked_strides)
    monkeypatch.setattr(machine, "_blocked_tapes", counted_blocked)
    monkeypatch.setattr(machine._Runner, "_detect", flagged_detect)

    sets = [x for x in hfsets.universe_rank_le(3) if len(x)]
    for _, program, x, _ in bench_stages.stage_runs(sets):
        run(program, codes.code_to_tape(codes.encode(x)))
    stages_seen = seen.copy()
    rng = random.Random(bench_limits.POOL_SEED)
    for _ in range(20):
        run(sweepish_program(rng), random_input(rng), bench_limits.BUDGET)
    rng = random.Random(2)
    for _ in range(40):
        run(random_program(rng), random_input(rng), RunBudget(60, 4))
    # every stage base blocks a tape, so few stage candidates reach _strides
    assert stages_seen["bases"] >= 1000 and stages_seen["candidates"] >= 10, stages_seen
    assert seen["candidates"] >= 1000 and seen["moved"] >= 2000, seen
    assert seen["blocking bases"] < seen["bases"], seen


def test_step_matches_the_reference_step(monkeypatch):
    """At every successor step of left-moving random_program runs and of the
    shipped .otm stages on every nonempty set of rank <= 2, step builds the
    configuration of oracles.reference_step, which writes every tape, moves
    every head and adds 1 afresh."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import stages as bench_stages

    fast = machine.step
    seen = collections.Counter()

    def compared(program, config):
        got = fast(program, config)
        assert got == oracles.reference_step(program, config)
        seen["steps"] += 1
        seen["kept tapes"] += sum(t is u for t, u in zip(got.tapes, config.tapes))
        seen["resets"] += any(
            h.is_limit and g.is_zero for h, g in zip(config.heads, got.heads)
        )
        return got

    monkeypatch.setattr(machine, "step", compared)
    rng = random.Random(2)
    for _ in range(40):
        run(random_program(rng), random_input(rng), RunBudget(200, 8))
    left = seen.copy()
    full_input = Tape([(ZERO, OMEGA)])
    run(parse_program(EVERY_CELL_DIPS), full_input, RunBudget(400, 8))
    run(parse_program(RESTARTING_RUN), full_input, RunBudget(300, 6))
    hand = seen.copy()
    sets = [x for x in hfsets.universe_rank_le(2) if len(x)]
    for _, program, x, _ in bench_stages.stage_runs(sets):
        run(program, codes.code_to_tape(codes.encode(x)))
    assert left["steps"] >= 5000 and left["resets"] >= 5, left
    assert hand["resets"] - left["resets"] >= 2, hand
    assert seen["steps"] - hand["steps"] >= 400, seen
    assert seen["kept tapes"] >= seen["steps"], seen


def test_step_writes_only_flipping_cells_and_computes_each_successor_once(
    monkeypatch,
):
    """On the shipped .otm stages over every nonempty set of rank <= 3, every
    Tape.write call flips its cell (step keeps a tape whose head cell already
    holds the written bit), and ordinals.succ computes each distinct
    ordinal's successor at most once; every later call reads the cache."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import stages as bench_stages

    sets = [x for x in hfsets.universe_rank_le(3) if len(x)]
    runs = [
        (program, codes.code_to_tape(codes.encode(x)))
        for _, program, x, _ in bench_stages.stage_runs(sets)
    ]
    write, add, succ_code = Tape.write, ordinals.add, ordinals.succ.__code__
    counts = collections.Counter()
    computed = collections.Counter()

    def counted_write(self, cell, bit):
        out = write(self, cell, bit)
        assert out is not self and out.read(cell) == bit, (self, cell, bit)
        counts["writes"] += 1
        return out

    def counted_add(a, b):
        if sys._getframe(1).f_code is succ_code:
            computed[a] += 1
        return add(a, b)

    def counted_step(program, config):
        counts["steps"] += 1
        return step(program, config)

    # start from empty caches, so every successor the runs need is computed
    for a in ordinals.Ordinal._intern.values():
        object.__setattr__(a, "_succ", None)
    monkeypatch.setattr(Tape, "write", counted_write)
    monkeypatch.setattr(ordinals, "add", counted_add)
    monkeypatch.setattr(machine, "step", counted_step)
    for program, tape in runs:
        run(program, tape)
    assert counts["steps"] >= 3000 and counts["writes"] >= 1000, counts
    assert computed and max(computed.values()) == 1, computed.most_common(3)
    assert sum(computed.values()) < counts["steps"], (len(computed), counts)
