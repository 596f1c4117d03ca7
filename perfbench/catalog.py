"""Workload `catalog`: `otmlab check` as CLI users run it.

Every command runs in a fresh interpreter, because CLI users pay the import
cost and the interning warm-up on each invocation.  The accept set is the
whole shipped catalog plus the two assembly manifests; the reject set is the
broken witnesses under perfbench/reject/, each of which must fail with a
counterexample inside its source relation's domain.
"""

from __future__ import annotations

import json

from common import (BENCH, ROOT, RefClock, Tally, children_peak_rss_mb, digest, median,
                    run_child)
from tracer import merge

REJECT_DIR = BENCH / "reject"
# one pass lasts about 20-30 s, mostly in two long commands; two passes halve
# the weight of a slow stretch of the machine in the reported median
MIN_PASSES = 2

# (manifest, extra arguments, expected report mode or None).  The mis-declared
# OTM witness runs with a tiny --cap so the sweep leaves its exhaustive phase
# and re-checks with choice rules; it must still fail there.
REJECT = [
    ("broken_pp_le_zl", [], None),
    ("broken_pp_le_ac", [], None),
    ("broken_zl_le_pp", [], None),
    ("broken_ac_le_wo", [], None),
    ("broken_mpp_le_muc", [], None),
    ("broken_pp_le_zl_tape", [], None),
    ("broken_pp_otm_wo", ["--cap", "1", "--samples", "2"], "sampled"),
]
TINY_ACCEPT = ("zero_le_pp2.json",)
TINY_REJECT = ("broken_pp_le_ac", "broken_zl_le_pp", "broken_pp_otm_wo")


def accept_commands(seed: int, tiny: bool):
    commands = {
        "all": ["check", "--all", "--universe", "rank:3", "--seed", str(seed), "--json"],
        "pp_le_zl.json": ["check", "pp_le_zl.json", "--universe", "rank:3", "--json"],
        "zero_le_pp2.json": ["check", "zero_le_pp2.json", "--universe", "rank:3", "--json"],
    }
    return {k: v for k, v in commands.items() if not tiny or k in TINY_ACCEPT}


def reject_commands(seed: int, tiny: bool):
    out = {}
    for name, extra, _ in REJECT:
        if tiny and name not in TINY_REJECT:
            continue
        path = (REJECT_DIR / f"{name}.json").relative_to(ROOT)
        out[name] = ["check", str(path), "--universe", "rank:3",
                     "--seed", str(seed), "--json"] + extra
    return out


def make_inputs(seed: int, tiny: bool = False, recorded=None):
    return {"accept": accept_commands(seed, tiny), "reject": reject_commands(seed, tiny)}


def _run_set(commands, traced: bool, totals: dict):
    results = {}
    clock = RefClock()
    for key, argv in commands.items():
        if traced:
            wall, proc = run_child(["perfbench/probe.py", "cli", "--trace"] + argv)
            body, _, stats = proc.stdout.rstrip("\n").rpartition("\n")
            if proc.returncode in (0, 1) and stats.startswith("{"):
                merge(totals, json.loads(stats))
            else:
                body = proc.stdout
            chunks = []
        else:
            wall, proc = run_child(["perfbench/probe.py", "cli", "--speed"] + argv)
            body, _, last = proc.stdout.rstrip("\n").rpartition("\n")
            if last.startswith('{"chunks"'):
                chunks = json.loads(last)["chunks"]
            else:
                body, chunks = proc.stdout, []
        clock.record(wall, chunks)
        results[key] = {"wall": clock.times[-1], "exit": proc.returncode, "stdout": body,
                        "stderr": proc.stderr[-2000:]}
    return clock, results


def run_pass(inputs, traced: bool = False):
    """One accept-set pass, then one reject-set pass."""
    totals = {}
    accept_clock, accept = _run_set(inputs["accept"], traced, totals)
    reject_clock, reject = _run_set(inputs["reject"], traced, totals)
    return {
        "accept_s": accept_clock.wall_s(),
        "reject_s": reject_clock.wall_s(),
        "wall_s": accept_clock.wall_s() + reject_clock.wall_s(),
        "ref_s": accept_clock.ref_s() + reject_clock.ref_s(),
        "accept": accept,
        "reject": reject,
        "trace": totals or None,
    }


def op_times(result):
    """Wall time of each `otmlab check` command."""
    return [run["wall"] for group in ("accept", "reject") for run in result[group].values()]


def peak_rss_mb(passes):
    return children_peak_rss_mb()


def details(inputs, passes):
    return {
        "catalog.accept_s": (median([p["accept_s"] for p in passes]), "s"),
        "catalog.reject_s": (median([p["reject_s"] for p in passes]), "s"),
        "catalog.peak_rss_mb": (children_peak_rss_mb(), "MB"),
    }


def report_counts(result) -> dict:
    """Totals the CLI reports themselves state."""
    counts = {"relations.canonifications": 0, "reductions.cases": 0,
              "reductions.failures_recorded": 0}
    for group in ("accept", "reject"):
        for run in result[group].values():
            for report in _reports(run["stdout"]) or []:
                counts["relations.canonifications"] += report["canonifications"]
                counts["reductions.cases"] += report["cases"]
                counts["reductions.failures_recorded"] += len(report["failures"])
    return counts


# -- correctness ----------------------------------------------------------------


def _reports(stdout: str):
    try:
        data = json.loads(stdout)
    except ValueError:
        return None
    return data if isinstance(data, list) else None


def reject_summary(exit_code: int, report: dict) -> dict:
    """The parts of a reject report that do not depend on the sampling seed."""
    keep = ("witness", "kind", "source", "target", "universe", "instances",
            "mode", "canonifications", "product_size", "cases", "ok")
    summary = {k: report[k] for k in keep}
    summary["exit"] = exit_code
    if report["mode"] == "exhaustive":
        summary["failures"] = len(report["failures"])
    return summary


def expectations(inputs, recorded: dict) -> dict:
    """Expected values: recorded digests plus the hand-known verdicts."""
    accept = {
        key: {"exit": 0, "ok": True,
              "witnesses": recorded["accept"][key]["witnesses"],
              "digest": recorded["accept"][key]["digest"]}
        for key in inputs["accept"]
    }
    reject = {}
    for name, _, mode in REJECT:
        if name in inputs["reject"]:
            with open(REJECT_DIR / f"{name}.json", encoding="utf-8") as fh:
                source = json.load(fh)["source_relation"]
            reject[name] = {"exit": 1, "ok": False, "source": source, "mode": mode,
                            "digest": recorded["reject"][name]}
    return {"accept": accept, "reject": reject}


def check(inputs, passes, expect) -> Tally:
    tally = Tally()
    for result in passes:
        for key, run in result["accept"].items():
            tally.record(f"accept {key}", _check_accept(run, expect["accept"][key]))
        for key, run in result["reject"].items():
            tally.record(f"reject {key}", _check_reject(run, expect["reject"][key]))
    return tally


def _check_accept(run, want) -> list:
    problems = []
    if run["exit"] != want["exit"]:
        problems.append(f"exit {run['exit']} != {want['exit']}: {run['stderr'][-300:]}")
    reports = _reports(run["stdout"])
    if reports is None:
        return problems + ["output is not a JSON report list"]
    for report in reports:
        if report["ok"] is not want["ok"] or (want["ok"] and report["failures"]):
            problems.append(f"{report['witness']}: verdict ok={report['ok']}")
    names = sorted(r["witness"] for r in reports)
    if names != sorted(want["witnesses"]):
        problems.append(f"witnesses {names} != {sorted(want['witnesses'])}")
    if digest(reports) != want["digest"]:
        problems.append("report digest differs from the recorded one")
    return problems


def _check_reject(run, want) -> list:
    problems = []
    if run["exit"] != want["exit"]:
        problems.append(f"exit {run['exit']} != {want['exit']}: {run['stderr'][-300:]}")
    reports = _reports(run["stdout"])
    if not reports or len(reports) != 1:
        return problems + ["output is not a single JSON report"]
    report = reports[0]
    if report["ok"] is not want["ok"] or not report["failures"]:
        problems.append(f"verdict ok={report['ok']} with {len(report['failures'])} failures")
    in_domain = DOMAINS[want["source"]]
    if not any(in_domain(parse_set(f["instance"])) for f in report["failures"]):
        problems.append(f"no counterexample lies in the domain of {want['source']}")
    if want["mode"] is not None and report["mode"] != want["mode"]:
        problems.append(f"mode {report['mode']} != {want['mode']}")
    if digest(reject_summary(run["exit"], report)) != want["digest"]:
        problems.append("report digest differs from the recorded one")
    return problems


# -- an independent model of the sets involved ---------------------------------


def parse_set(text: str) -> frozenset:
    """Parse a printed set such as {{},{{}}} into nested frozensets."""
    stack = [[]]
    for ch in text:
        if ch == "{":
            stack.append([])
        elif ch == "}":
            done = frozenset(stack.pop())
            stack[-1].append(done)
        elif ch not in ", ":
            raise ValueError(f"unexpected {ch!r} in set literal {text!r}")
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError(f"unbalanced set literal {text!r}")
    return stack[0][0]


def _kuratowski(p):
    """(a, b) when p = {{a}, {a, b}}, else None."""
    if not 1 <= len(p) <= 2 or not all(isinstance(m, frozenset) for m in p):
        return None
    members = sorted(p, key=len)
    if len(members[0]) != 1:
        return None
    (a,) = members[0]
    if len(p) == 1:
        return (a, a)
    rest = members[1]
    if len(rest) != 2 or a not in rest:
        return None
    (b,) = rest - {a}
    return (a, b)


def _is_encoded_nonempty_poset(c) -> bool:
    parts = _kuratowski(c)
    if parts is None:
        return False
    field, rel = parts
    pairs = set()
    for p in rel:
        ab = _kuratowski(p)
        if ab is None or ab[0] not in field or ab[1] not in field:
            return False
        pairs.add(ab)
    irreflexive = all(a != b for a, b in pairs)
    asymmetric = all((b, a) not in pairs for a, b in pairs)
    transitive = all((a, d) in pairs for a, b in pairs for c2, d in pairs if b == c2)
    return len(field) > 0 and irreflexive and asymmetric and transitive


def _disjoint_nonempty_family(x) -> bool:
    members = list(x)
    if any(len(m) == 0 for m in members):
        return False
    return all(not (a & b) for i, a in enumerate(members) for b in members[i + 1:])


DOMAINS = {
    "PP": lambda x: len(x) > 0,
    "MPP": lambda x: len(x) > 0,
    "AC": _disjoint_nonempty_family,
    "ZL": _is_encoded_nonempty_poset,
}
