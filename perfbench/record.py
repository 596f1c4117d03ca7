"""Record the reference outcomes in perfbench/expected.json.

    python3 perfbench/record.py

Run once at the commit whose behaviour is the reference; every later run of
the benchmark compares its outcomes against this file.  Recording runs the
whole limits pool, every stage run over the rank-4 pool, and the catalog
commands with two sampling seeds, checking that what is recorded does not
depend on the seed.
"""

from __future__ import annotations

import json
import sys

from common import EXPECTED, digest, outcome_summary, use_checkout_source


def record_catalog(catalog) -> dict:
    runs = [catalog.run_pass(catalog.make_inputs(seed)) for seed in (1, 2)]
    accept, reject = {}, {}
    for key in runs[0]["accept"]:
        reports = [json.loads(r["accept"][key]["stdout"]) for r in runs]
        if reports[0] != reports[1]:
            raise SystemExit(f"accept {key}: reports depend on the seed")
        accept[key] = {"witnesses": sorted(r["witness"] for r in reports[0]),
                       "digest": digest(reports[0])}
    for key in runs[0]["reject"]:
        summaries = [
            catalog.reject_summary(r["reject"][key]["exit"],
                                   json.loads(r["reject"][key]["stdout"])[0])
            for r in runs
        ]
        if summaries[0] != summaries[1]:
            raise SystemExit(f"reject {key}: summary depends on the seed")
        reject[key] = digest(summaries[0])
    return {"accept": accept, "reject": reject}


def record_limits(limits) -> dict:
    """[class, ordinals.compare calls, outcome digest] for each pool program.
    The count is the draw's cost: over the pool it follows a program's run
    time with a correlation of 0.98, machine.step calls with 0.93."""
    from otmlab import machine

    from tracer import Tracer

    entries = []
    for program, tape in limits.pool():
        with Tracer() as tracer:
            outcome = machine.run(program, tape, limits.BUDGET)
        summary = outcome_summary(program, outcome)
        compares = tracer.snapshot()["calls"].get("ordinals.compare", 0)
        entries.append([limits.classify(summary), compares, digest(summary)])
    return {"pool": entries}


def record_stages(stages) -> dict:
    from otmlab import hfsets

    sets = [x for x in hfsets.universe_rank_le(3) if len(x)]
    for bucket in stages.rank4_pool().values():
        sets += bucket
    inputs = stages.stage_runs(sets)
    result = stages.run_pass(inputs)
    runs = {}
    for (name, program, x, _), (outcome, _) in zip(inputs, result["outputs"]):
        runs[stages.run_key(name, x)] = digest(outcome_summary(program, outcome))
    return {"runs": runs}


def main() -> int:
    use_checkout_source()
    import catalog
    import limits
    import stages

    expected = {
        "catalog": record_catalog(catalog),
        "limits": record_limits(limits),
        "stages": record_stages(stages),
    }
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    counts = {c: sum(1 for entry in expected["limits"]["pool"] if entry[0] == c)
              for c in ("certify", "grind")}
    print(f"recorded {EXPECTED.name}: limits pool {counts}, "
          f"{len(expected['stages']['runs'])} stage runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
