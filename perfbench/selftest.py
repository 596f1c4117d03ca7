"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload on a tiny input, untraced and traced, and checks that
the run passes its gates, that it reports every metric BENCHMARK.json names,
and that every gate fails when one expected value is mutated.  Exits 0 when
all of that holds.  Takes a few seconds.
"""

from __future__ import annotations

import importlib
import json
import sys

from common import ROOT, load_expected, use_checkout_source

SEED = 1
failures = []


def expect_ok(what, tally):
    if tally.attempted == 0 or tally.failed:
        failures.append(f"{what}: {tally.failed}/{tally.attempted} failed {tally.problems[:3]}")


def expect_caught(what, tally):
    if tally.failed == 0:
        failures.append(f"{what}: the gate did not fail on a mutated expected value")


def mutated(expect, path, value):
    """A copy of expect with expect[path[0]][path[1]]... set to value; the
    dictionaries along the path are copied, everything else is shared."""
    head, rest = path[0], path[1:]
    return {**expect, head: mutated(expect[head], rest, value) if rest else value}


def gates_catalog(module, inputs, passes, expect):
    accept = next(iter(expect["accept"]))
    cases = [
        ("accept exit code", ("accept", accept, "exit"), 1),
        ("accept verdict", ("accept", accept, "ok"), False),
        ("accept witness list", ("accept", accept, "witnesses"), []),
        ("accept digest", ("accept", accept, "digest"), "0" * 16),
        ("reject exit code", ("reject", "broken_pp_le_ac", "exit"), 0),
        ("reject verdict", ("reject", "broken_pp_le_ac", "ok"), True),
        ("reject counterexample domain", ("reject", "broken_zl_le_pp", "source"), "AC"),
        ("reject sweep mode", ("reject", "broken_pp_otm_wo", "mode"), "exhaustive"),
        ("reject digest", ("reject", "broken_pp_le_ac", "digest"), "0" * 16),
    ]
    for what, path, value in cases:
        expect_caught(f"catalog {what}", module.check(inputs, passes, mutated(expect, path, value)))


def gates_limits(module, inputs, passes, expect):
    pool_run = next(name for name, *_ in inputs if name.startswith("pool["))
    expect_caught("limits fixture outcome", module.check(
        inputs, passes, mutated(expect, ("right_sweep", "summary", "time"), "w+3")))
    expect_caught("limits recorded outcome", module.check(
        inputs, passes, mutated(expect, (pool_run, "digest"), "0" * 16)))
    changed = dict(passes[-1], limits=[[]] + passes[-1]["limits"][1:])
    expect_caught("limits repeatability", module.check(inputs, passes + [changed], expect))
    raised = dict(passes[-1], outcomes=[RuntimeError("injected")] + passes[-1]["outcomes"][1:])
    expect_caught("limits exception", module.check(inputs, [raised], expect))
    # the plain-step reference for a first limit at w
    for i, (name, program, tape, _) in enumerate(inputs):
        records = passes[0]["limits"][i]
        if name.startswith("pool[") and records and records[0]["time"] == "w":
            reference = module.limit_reference(program, tape)
            if module.check_first_limit(records[0], reference):
                failures.append(f"limits first-limit reference rejects {name}")
            flipped = [1 - bit for bit in reference["cells"]]
            for key, value in (("state", "none"), ("cells", flipped)):
                if not module.check_first_limit(records[0], dict(reference, **{key: value})):
                    failures.append(f"limits first-limit {key}: the gate did not fail")
            break
    else:
        failures.append("limits: the tiny draw has no program with a first limit at w")


def gates_stages(module, inputs, passes, expect):
    from otmlab import hfsets

    key = next(iter(expect))
    other = hfsets.singleton(expect[key]["output"])
    expect_caught("stages output", module.check(
        inputs, passes, mutated(expect, (key, "output"), other)))
    expect_caught("stages recorded outcome", module.check(
        inputs, passes, mutated(expect, (key, "digest"), "0" * 16)))
    raised = dict(passes[0], outputs=[(RuntimeError("injected"), None)] + passes[0]["outputs"][1:])
    expect_caught("stages exception", module.check(inputs, [raised], expect))


GATES = {"catalog": gates_catalog, "limits": gates_limits, "stages": gates_stages}


def main() -> int:
    use_checkout_source()
    import run

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    recorded = load_expected()

    for name in run.WORKLOADS:
        module = importlib.import_module(name)
        inputs = module.make_inputs(SEED, tiny=True, recorded=recorded[name])
        expect = module.expectations(inputs, recorded[name])
        passes = [module.run_pass(inputs), module.run_pass(inputs)]
        expect_ok(f"{name} tiny run", module.check(inputs, passes, expect))
        reported = set(run.end_to_end(module, passes, 1.0))
        if reported != end_to_end:
            failures.append(f"{name}: end-to-end metrics {sorted(reported ^ end_to_end)} "
                            "differ from BENCHMARK.json")
        run.details(module, inputs, passes)
        traced_passes, layers = run.traced_run(module, inputs)
        expect_ok(f"{name} traced run", module.check(inputs, traced_passes, expect))
        if set(layers) != per_layer:
            failures.append(f"{name}: per-layer metrics {sorted(set(layers) ^ per_layer)} "
                            "differ from BENCHMARK.json")
        GATES[name](module, inputs, passes, expect)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
