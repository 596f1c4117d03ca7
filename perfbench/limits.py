"""Workload `limits`: `machine.run` on transfinite programs.

A pass runs four hand-derived fixtures and 120 random sweep-biased programs
drawn by the seed from a fixed pool, all with the public loop-detection
defaults and a small budget.  The pool is generated the way
tests/test_limit_soundness.py generates programs, from that test's seed, and
each pool entry's outcome at the recording commit is stored in
expected.json.  The seed draws 24 programs that certify their loops and 96
that exhaust the step budget, so the mix, and with it the meaning of the
median and the 90th percentile, is the same for every seed.  Within each
class the pool is sorted by the recorded number of `ordinals.compare` calls
(a deterministic cost that includes loop-candidate replays and follows run
time more closely than the number of steps) and cut into as many bands as
programs are drawn; the seed picks one program per band, so every draw spans
the same range of costs.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import time

from otmlab import asm, machine, ordinals
from otmlab.programs import Program, Transition
from otmlab.tapes import Tape

from common import (RefClock, SpeedSampler, Tally, digest, median, outcome_summary,
                    percentile, self_peak_rss_mb)
from tracer import Tracer

BUDGET = machine.RunBudget(32, 4)
POOL_SEED = 20260809
POOL_SIZE = 800
DRAW = {"certify": 24, "grind": 96}
TINY_DRAW = {"certify": 2, "grind": 2}
# the plain-step oracle for a first limit at w, as in the soundness test
PREFIX_STEPS = 1200
TAIL = 500
SAMPLE_CELLS = 50

RIGHT_SWEEP = """
tapes in work out;
state qs; state qa; state qb; state qc; state qd; state done halt;
rule qs -> write in=1 goto qa;
rule qa in=1 -> goto qb;
rule qa in=0 -> goto qd;
rule qb -> write in=0 goto qc;
rule qc -> write in=1, work=1 move work=R goto qa;
rule qd -> goto done;
"""
TWO_PHASE = """
tapes in work out;
state qs; state qa; state qb; state qc; state qs2; state pa; state pb;
state pc; state qd; state done halt;
rule qs -> write in=1 goto qa;
rule qa in=1 -> goto qb;
rule qa in=0 -> goto qs2;
rule qb -> write in=0 goto qc;
rule qc -> write in=1, work=1 move work=R goto qa;
rule qs2 -> write in=1 goto pa;
rule pa in=1 -> goto pb;
rule pa in=0 -> goto qd;
rule pb -> write in=0 goto pc;
rule pc -> write in=1, out=1 move out=R goto pa;
rule qd -> goto done;
"""
PURE_SWEEP = """
tapes in work out;
state q0;
rule q0 -> write work=1 move work=R goto q0;
"""
TOGGLE = """
tapes in work out;
state q3; state q5;
rule q3 -> goto q5;
rule q5 -> goto q3;
"""

# name -> (program text, budget, hand-derived outcome).  The flag in cell 0 of
# the input tape is rewritten 1, 0, 1 in every loop round, so its inferior
# limit is 0 and the loop exits exactly at the limit; a rightward writer
# leaves [0, limit) behind with its head at the limit; the pure sweeper's
# limit configurations translate, giving one jump per level of the tower.
FIXTURES = {
    "right_sweep": (RIGHT_SWEEP, machine.RunBudget(2000, 2), {
        "kind": "halted", "time": "w+2", "state": "done",
        "heads": ["0", "w", "0"],
        "tapes": {"in": [], "work": ["[0,w)"], "out": []},
        "limits": ["w"]}),
    "two_phase": (TWO_PHASE, machine.RunBudget(4000, 3), {
        "kind": "halted", "time": "w*2+2", "state": "done",
        "heads": ["0", "w", "w"],
        "tapes": {"in": [], "work": ["[0,w)"], "out": ["[0,w)"]},
        "limits": ["w", "w*2"]}),
    "tower": (PURE_SWEEP, machine.RunBudget(1000, 4), {
        "kind": "unresolved", "time": "w^3", "state": "q0",
        "heads": ["0", "w^3", "0"],
        "tapes": {"in": [], "work": ["[0,w^3)"], "out": []},
        "limits": ["w", "w*2", "w^2", "w^3"]}),
    "toggle": (TOGGLE, machine.RunBudget(100, 4), {
        "kind": "diverges", "time": "w", "state": "q3",
        "heads": ["0", "0", "0"],
        "tapes": {"in": [], "work": [], "out": []},
        "limits": ["w"]}),
}


# -- the generator of tests/test_limit_soundness.py --------------------------------


def sweepish_program(rng):
    """Small machines biased toward rightward sweeps on the work tape."""
    n_states = rng.randint(1, 3)
    names = tuple(f"s{i}" for i in range(n_states))
    roles = ("in", "work", "out")
    transitions = {}
    for state in range(n_states):
        for reads in itertools.product((0, 1), repeat=3):
            writes = tuple(rng.randint(0, 1) for _ in roles)
            moves = (rng.choice("SSR"), rng.choice("RRRS"), rng.choice("SSR"))
            transitions[(state, reads)] = Transition(writes, moves, rng.randrange(n_states))
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
        intervals.append((ordinals.from_int(cursor), ordinals.from_int(cursor + length)))
        cursor += length
    return Tape(intervals)


def pool():
    rng = random.Random(POOL_SEED)
    return [(sweepish_program(rng), random_input(rng)) for _ in range(POOL_SIZE)]


# -- inputs, passes, metrics ------------------------------------------------------


def make_inputs(seed: int, tiny: bool = False, recorded=None):
    """Fixtures first, then the seed's draw from the pool in a seeded order."""
    entries = recorded["pool"]
    programs = pool()
    rng = random.Random(seed)
    chosen = []
    for cls, count in (TINY_DRAW if tiny else DRAW).items():
        members = sorted((entries[i][1], i) for i in range(len(entries))
                         if entries[i][0] == cls)
        for band in range(count):
            lo = band * len(members) // count
            hi = (band + 1) * len(members) // count
            chosen.append(rng.choice(members[lo:hi])[1])
    rng.shuffle(chosen)
    runs = [(name, asm.parse_program(text), Tape(), budget)
            for name, (text, budget, _) in FIXTURES.items()]
    runs += [(f"pool[{i}]", programs[i][0], programs[i][1], BUDGET) for i in chosen]
    return runs


def run_pass(inputs, traced: bool = False):
    """Run every program once.  A trace callback keeps the limit events for
    the correctness gates; it is called only at limits, not at steps.  An
    exception is kept as the outcome and fails that operation's gate."""
    tracer = Tracer() if traced else None
    clock = RefClock()
    outcomes, limits = [], []
    with tracer or contextlib.nullcontext(), SpeedSampler(enabled=not traced) as sampler:
        for _, program, tape, budget in inputs:
            records = []
            keep = records.append
            t0 = time.perf_counter()
            try:
                outcome = machine.run(
                    program, tape, budget,
                    trace=lambda r: keep(r) if r["event"] == "limit" else None,
                )
            except Exception as exc:
                outcome = exc
            t1 = time.perf_counter()
            clock.record(t1 - t0, sampler.during(t0, t1))
            outcomes.append(outcome)
            limits.append(records)
    return {
        "wall_s": clock.wall_s(),
        "ref_s": clock.ref_s(),
        "times": clock.times,
        "outcomes": outcomes,
        "limits": limits,
        "peak_rss_mb": self_peak_rss_mb(),
        "trace": tracer.snapshot() if tracer else None,
    }


def op_times(result):
    """Wall time of each machine.run."""
    return result["times"]


def peak_rss_mb(passes):
    return max(p["peak_rss_mb"] for p in passes)


def details(inputs, passes):
    per_run = [median(ts) * 1e3 for ts in zip(*(p["times"] for p in passes))]
    return {
        "limits.run_p50_ms": (median(per_run), "ms"),
        "limits.run_p90_ms": (percentile(per_run, 90), "ms"),
        "limits.peak_rss_mb": (peak_rss_mb(passes), "MB"),
    }


# -- correctness ----------------------------------------------------------------


def classify(summary: dict) -> str:
    exhausted = summary["reason"] == "successor step budget exhausted"
    return "grind" if exhausted else "certify"


def expectations(inputs, recorded) -> dict:
    """Hand-derived fixture outcomes and recorded pool digests, by run name."""
    expect = {name: {"summary": want} for name, (_, _, want) in FIXTURES.items()}
    for name, *_ in inputs:
        if name.startswith("pool["):
            index = int(name[5:-1])
            expect[name] = {"digest": recorded["pool"][index][2]}
    return expect


def check(inputs, passes, expect) -> Tally:
    tally = Tally()
    for i, (name, program, tape, _) in enumerate(inputs):
        want = expect[name]
        raised = [p["outcomes"][i] for p in passes if isinstance(p["outcomes"][i], Exception)]
        if raised:
            tally.record(name, [f"machine.run raised {raised[0]!r}"])
            continue
        summaries = [outcome_summary(program, p["outcomes"][i]) for p in passes]
        records = passes[0]["limits"][i]
        problems = []
        if any(s != summaries[0] for s in summaries[1:]) or any(
            p["limits"][i] != records for p in passes[1:]
        ):
            problems.append("outcome differs between identical runs")
        got = summaries[0]
        if "summary" in want:
            got = dict(got, limits=[r["time"] for r in records])
            got.pop("reason")
            if got != want["summary"]:
                problems.append(f"got {got}, hand-derived {want['summary']}")
        else:
            if digest(got) != want["digest"]:
                problems.append(f"outcome {got['kind']} at {got['time']} differs "
                                "from the recorded one")
            if records and records[0]["time"] == "w":
                problems += check_first_limit(records[0], limit_reference(program, tape))
        tally.record(name, problems)
    return tally


def limit_reference(program, tape) -> dict:
    """State, work-head history and sampled work cells over the last TAIL
    steps of a PREFIX_STEPS plain-step prefix."""
    config = machine.initial_configuration(program, tape)
    wi = program.tape_index("work")
    states, heads, cells = [], [], [1] * SAMPLE_CELLS
    for t in range(PREFIX_STEPS):
        config = machine.step(program, config)
        if t < PREFIX_STEPS - TAIL:
            continue
        states.append(config.state)
        heads.append(config.heads[wi].to_int())
        ones = set()
        for lo, hi in config.tapes[wi].ones:
            ones.update(range(lo.to_int(), min(hi.to_int(), SAMPLE_CELLS)))
        cells = [c if c == 0 else int(k in ones) for k, c in enumerate(cells)]
    return {"state": program.state_names[min(states)], "work": wi,
            "heads": heads, "cells": cells}


def _record_cells(intervals) -> list:
    bits = [0] * SAMPLE_CELLS
    for text in intervals:
        lo, hi = text[1:-1].split(",")
        if not lo.isdigit():
            continue
        top = int(hi) if hi.isdigit() else SAMPLE_CELLS
        for k in range(int(lo), min(top, SAMPLE_CELLS)):
            bits[k] = 1
    return bits


def check_first_limit(record, reference) -> list:
    """The executor's limit at w against the recomputed inferior limits."""
    problems = []
    if record["state"] != reference["state"]:
        problems.append(f"limit state {record['state']} != {reference['state']}")
    if _record_cells(record["tapes"]["work"]) != reference["cells"]:
        problems.append("limit work cells differ from the recomputed liminf")
    head = record["heads"][reference["work"]]
    tail = reference["heads"]
    if head == "w":
        if not (tail[-1] > 100 and tail[-1] > tail[0]):
            problems.append("limit work head is w but the head does not escape")
    elif head != str(min(tail)):
        problems.append(f"limit work head {head} != {min(tail)}")
    return problems
