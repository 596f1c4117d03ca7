"""otmlab benchmark.

    python3 perfbench/run.py --workload {catalog,limits,stages} --seed N
                             --seconds S --trace {0,1}

Run from the root of a checkout; otmlab is imported from its src/.  The
seed chooses the inputs (the same seed gives the same inputs).  Whole passes
over the inputs repeat until S seconds of measurement have passed, at least
one.  Every output is checked against a reference that does not come from
the code under test, outside the timed region.  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones of a traced pass (see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

from common import RefClock, load_expected, median, run_child, use_checkout_source

WORKLOADS = ("catalog", "limits", "stages")
SETUP_REPEATS = 11


def measure_setup(traced: bool = False):
    """Fresh interpreters that import the CLI, assemble the shipped .otm
    programs and build rank:3: the median of their times at the reference
    speed and of their wall times; traced: one run's totals."""
    argv = ["perfbench/probe.py", "setup", "--trace" if traced else "--speed"]
    clock, totals = RefClock(), None
    for _ in range(1 if traced else SETUP_REPEATS):
        wall, proc = run_child(argv)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2 or lines[0].split() != ["4", "16"]:
            raise SystemExit(f"perfbench: set-up probe failed: {proc.stderr[-1000:]}")
        if traced:
            totals = json.loads(lines[-1])
        else:
            clock.record(wall, json.loads(lines[-1])["chunks"])
    return median(clock.scaled() or [0.0]), median(clock.times or [0.0]), totals


def layer_metrics(totals: dict, report_counts: dict) -> dict:
    from tracer import COUNTERS, TRACED, metric_prefix

    calls, self_s, counters = totals["calls"], totals["self_s"], totals["counters"]
    out = {}
    for layer, _, path in TRACED:
        name = metric_prefix(layer, path)
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in COUNTERS:
        if name not in ("tapes.intervals_at_access.sum", "tapes.accesses"):
            out[name] = (counters.get(name, 0), "bytes" if name == "cli.output_bytes" else "count")
    accesses = counters.get("tapes.accesses", 0)
    mean = counters.get("tapes.intervals_at_access.sum", 0) / accesses if accesses else 0.0
    out["tapes.intervals_at_access.mean"] = (mean, "intervals")
    out["tapes.intervals_at_access.max"] = (counters.get("tapes.intervals_at_access.max", 0),
                                            "intervals")
    steps = calls.get("machine.step", 0)
    useful = counters.get("machine.successor_steps", 0)
    out["machine.step_useful_ratio"] = (useful / steps if steps else 0.0, "ratio")
    for name in ("relations.canonifications", "reductions.cases",
                 "reductions.failures_recorded"):
        out[name] = (report_counts.get(name, 0), "count")
    return out


def merged(*parts):
    from tracer import merge

    total = {}
    for part in parts:
        merge(total, part)
    return total


def end_to_end(module, passes, setup_s: float) -> dict:
    """The metrics every workload reports and BENCHMARK.json bounds."""
    return {
        "setup_s": (setup_s, "s"),
        "pass_ref_s": (median([p["ref_s"] for p in passes]), "s"),
        "peak_rss_mb": (module.peak_rss_mb(passes), "MB"),
    }


def details(module, inputs, passes) -> dict:
    """Printed, not bounded: the raw wall time of a pass (its operations'
    times, without the speed samples between them); the median operation
    latency, where an operation is one `otmlab check` command, one
    machine.run, or one input's round trip through the stages; and the
    workload's own named metrics."""
    ops = [median(ts) * 1e3 for ts in zip(*(module.op_times(p) for p in passes))]
    return {"pass_wall_s": (median([p["wall_s"] for p in passes]), "s"),
            "op_p50_ms": (median(ops), "ms"), **module.details(inputs, passes)}


def measure(module, inputs, seconds: float):
    """Whole passes until `seconds` have passed, and at least MIN_PASSES."""
    passes = []
    start = time.perf_counter()
    min_passes = getattr(module, "MIN_PASSES", 1)
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(module.run_pass(inputs))
    return passes


def traced_run(module, inputs):
    """One untraced pass, then one traced pass; the difference is the
    tracing overhead."""
    _, _, setup_totals = measure_setup(traced=True)
    plain = module.run_pass(inputs)
    traced = module.run_pass(inputs, traced=True)
    # only the catalog's CLI reports state cases and canonifications
    counts = module.report_counts(traced) if hasattr(module, "report_counts") else {}
    metrics = layer_metrics(merged(setup_totals, traced["trace"]), counts)
    metrics["trace.untraced_pass_s"] = (plain["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return [plain, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_source()
    module = importlib.import_module(args.workload)
    recorded = load_expected()[args.workload]
    inputs = module.make_inputs(args.seed, recorded=recorded)
    expect = module.expectations(inputs, recorded)

    if args.trace:
        passes, metrics = traced_run(module, inputs)
    else:
        setup_s, setup_wall_s, _ = measure_setup()
        passes = measure(module, inputs, args.seconds)
        metrics = end_to_end(module, passes, setup_s)
        printed = {"setup_wall_s": (setup_wall_s, "s"), **details(module, inputs, passes)}
        for name, (value, unit) in printed.items():
            print(f"{name} {value:.6g} {unit}")
    tally = module.check(inputs, passes, expect)

    for problem in tally.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
