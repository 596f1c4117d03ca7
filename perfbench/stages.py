"""Workload `stages`: the shipped .otm witness stages run directly.

`pp_le_zl_pre.otm`/`_post.otm` and `zero_le_pp2_pre.otm`/`_post.otm` run
through `machine.run` with its public defaults and no memo, on the code tape
of every nonempty set of rank <= 3 and of three seeded rank-4 sets.  The
pp_le_zl post stage runs on the pre stage's answer q = (x, {}), whose code
tape is the largest.  Stage time grows with the code's size, so the seed
draws each rank-4 set from a fixed pool of one shape (|tc(x)| and the number
of memberships in the code); every seed then runs tapes of the same sizes.
The pool's outcomes at the recording commit are stored in expected.json.
"""

from __future__ import annotations

import contextlib
import random
import time

from otmlab import asm, codes, hfsets, machine

from common import (WITNESSES, RefClock, SpeedSampler, Tally, digest, median,
                    outcome_summary, self_peak_rss_mb)
from tracer import Tracer

POOL_SEED = 4
RANK4_SHAPES = ((5, 10), (6, 13), (7, 16))  # (|tc(x)|, memberships coded)
POOL_PER_SHAPE = 6
PROGRAMS = ("pp_le_zl_pre", "pp_le_zl_post", "zero_le_pp2_pre", "zero_le_pp2_post")


def rank4_pool():
    """POOL_PER_SHAPE distinct rank-4 sets of each shape."""
    rng = random.Random(POOL_SEED)
    found = {shape: [] for shape in RANK4_SHAPES}
    while any(len(v) < POOL_PER_SHAPE for v in found.values()):
        x = hfsets.ack_enumerate(rng.randrange(16, 65536))
        shape = (len(hfsets.tc(x)), len(codes.encode(x).pairs))
        bucket = found.get(shape)
        if bucket is not None and len(bucket) < POOL_PER_SHAPE and x not in bucket:
            bucket.append(x)
    return found


def make_inputs(seed: int, tiny: bool = False, recorded=None):
    """(program name, program, input) for every stage run of a pass."""
    if tiny:
        sets = [hfsets.hf([hfsets.EMPTY])]
    else:
        sets = [x for x in hfsets.universe_rank_le(3) if len(x)]
        rng = random.Random(seed)
        sets += [rng.choice(bucket) for bucket in rank4_pool().values()]
    return stage_runs(sets)


def stage_runs(sets):
    """Each input's round trip is one operation: both stages of pp_le_zl and
    of zero_le_pp2, the post stages on an answer the target allows."""
    programs = {name: asm.load_program(WITNESSES / f"{name}.otm") for name in PROGRAMS}
    runs = []
    for op, x in enumerate(sets):
        runs.append(("pp_le_zl_pre", x, op))
        runs.append(("pp_le_zl_post", hfsets.kpair(x, hfsets.EMPTY), op))
        runs.append(("zero_le_pp2_pre", x, op))
        runs.append(("zero_le_pp2_post", hfsets.EMPTY, op))
    return [(name, programs[name], x, op) for name, x, op in runs]


def run_pass(inputs, traced: bool = False):
    """Run every stage once, decoding the output tape of a halted run.  An
    exception is kept as the outcome and fails that operation's gate."""
    tracer = Tracer() if traced else None
    clock = RefClock()
    outputs = []
    with tracer or contextlib.nullcontext(), SpeedSampler(enabled=not traced) as sampler:
        for _, program, x, _ in inputs:
            t0 = time.perf_counter()
            out = None
            try:
                outcome = machine.run(program, codes.code_to_tape(codes.encode(x)))
                if outcome.kind == "halted":
                    tape = outcome.final.tapes[program.tape_index("out")]
                    out = codes.decode(codes.tape_to_code(tape))
            except Exception as exc:
                outcome = exc
            t1 = time.perf_counter()
            clock.record(t1 - t0, sampler.during(t0, t1))
            outputs.append((outcome, out))
    return {
        "wall_s": clock.wall_s(),
        "ref_s": clock.ref_s(),
        "inputs": inputs,
        "times": clock.times,
        "outputs": outputs,
        "peak_rss_mb": self_peak_rss_mb(),
        "trace": tracer.snapshot() if tracer else None,
    }


def op_times(result):
    """Wall time of each input's round trip through the stages."""
    totals = {}
    for (_, _, _, op), t in zip(result["inputs"], result["times"]):
        totals[op] = totals.get(op, 0.0) + t
    return [totals[op] for op in sorted(totals)]


def peak_rss_mb(passes):
    return max(p["peak_rss_mb"] for p in passes)


def stage_ms(inputs, passes, name: str):
    """Per-run median time in ms over the passes, for one stage program."""
    return [median([p["times"][i] for p in passes]) * 1e3
            for i, run in enumerate(inputs) if run[0] == name]


def details(inputs, passes):
    return {
        "stages.pre_p50_ms": (median(stage_ms(inputs, passes, "pp_le_zl_pre")), "ms"),
        "stages.post_p50_ms": (median(stage_ms(inputs, passes, "pp_le_zl_post")), "ms"),
        "stages.wall_s": (median([p["wall_s"] for p in passes]), "s"),
        "stages.peak_rss_mb": (peak_rss_mb(passes), "MB"),
    }


# -- correctness ----------------------------------------------------------------


def run_key(name: str, x) -> str:
    return f"{name} {hfsets.format_set(x)}"


def expectations(inputs, recorded) -> dict:
    """Outputs built with hfsets, and recorded digests of the final configurations."""
    pair = hfsets.hf([hfsets.EMPTY, hfsets.hf([hfsets.EMPTY])])
    expect = {}
    for name, _, x, _ in inputs:
        if name == "pp_le_zl_pre":
            output = hfsets.kpair(x, hfsets.EMPTY)
        elif name == "pp_le_zl_post":
            output = x
        elif name == "zero_le_pp2_pre":
            output = pair
        else:
            output = hfsets.EMPTY
        key = run_key(name, x)
        expect[key] = {"output": output, "digest": recorded["runs"][key]}
    return expect


def check(inputs, passes, expect) -> Tally:
    tally = Tally()
    for result in passes:
        for (name, program, x, _), (outcome, out) in zip(inputs, result["outputs"]):
            key = run_key(name, x)
            want = expect[key]
            if isinstance(outcome, Exception):
                tally.record(key, [f"stage raised {outcome!r}"])
                continue
            problems = []
            if outcome.kind != "halted":
                problems.append(f"stage did not halt ({outcome.kind})")
            elif out is not want["output"]:
                problems.append(f"output {hfsets.format_set(out)} != "
                                f"{hfsets.format_set(want['output'])}")
            if digest(outcome_summary(program, outcome)) != want["digest"]:
                problems.append("final configuration differs from the recorded one")
            tally.record(key, problems)
    return tally
