"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each otmlab layer in place: every
module namespace that holds a reference to a function gets the wrapper, and
`Tape` methods are wrapped on the class.  `Relation.holds` and
`Relation.witness_set` are dataclass fields, so they are wrapped on each
relation in `relations.PRINCIPLES`.  `restore()` puts every original back.

Open spans live on an in-memory stack; when a span closes, its duration minus
the time of the spans it caused is added to its function's self time, so
memory stays bounded however many calls a pass makes.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (layer, module, attribute path) for every traced public function
TRACED = [
    ("ordinals", "otmlab.ordinals", "compare"),
    ("ordinals", "otmlab.ordinals", "add"),
    ("ordinals", "otmlab.ordinals", "sub_left"),
    ("ordinals", "otmlab.ordinals", "godel_pair"),
    ("ordinals", "otmlab.ordinals", "godel_unpair"),
    ("tapes", "otmlab.tapes", "Tape.read"),
    ("tapes", "otmlab.tapes", "Tape.write"),
    ("tapes", "otmlab.tapes", "Tape.fill"),
    ("tapes", "otmlab.tapes", "Tape.constant_on"),
    ("tapes", "otmlab.tapes", "Tape.intersect"),
    ("machine", "otmlab.machine", "run"),
    ("machine", "otmlab.machine", "step"),
    ("asm", "otmlab.asm", "load_program"),
    ("codes", "otmlab.codes", "encode"),
    ("codes", "otmlab.codes", "decode"),
    ("codes", "otmlab.codes", "code_to_tape"),
    ("codes", "otmlab.codes", "tape_to_code"),
    ("codes", "otmlab.codes", "is_valid"),
    ("hfsets", "otmlab.hfsets", "hf"),
    ("hfsets", "otmlab.hfsets", "ack_compare"),
    ("hfsets", "otmlab.hfsets", "universe_rank_le"),
    ("relations", "otmlab.relations", "enumerate_canonifications"),
    ("relations", "otmlab.relations", "Relation.holds"),
    ("relations", "otmlab.relations", "Relation.witness_set"),
    ("reductions", "otmlab.reductions", "verify_reduction"),
    ("reductions", "otmlab.reductions", "apply_oW"),
    ("reductions", "otmlab.reductions", "run_with_miracle"),
    ("cli", "otmlab.cli", "main"),
]

LIMIT_KINDS = ("sweep", "cycle", "limit-sweep", "limit-cycle", "diverges")
OUTCOME_KINDS = ("halted", "diverges", "unresolved")
# counters reported next to the call/self-time pairs
COUNTERS = (
    ["machine.successor_steps", "tapes.intervals_at_access.sum",
     "tapes.accesses", "tapes.intervals_at_access.max",
     "reductions.program_runs", "cli.output_bytes"]
    + [f"machine.limit_jumps.{k}" for k in LIMIT_KINDS]
    + [f"machine.outcomes.{k}" for k in OUTCOME_KINDS]
)


def metric_prefix(layer: str, attr: str) -> str:
    """`tapes.read`, `relations.holds`, `ordinals.compare`, ..."""
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self._stats = {}  # name -> [calls, self seconds]
        self.counters = Counter({name: 0 for name in COUNTERS})
        self._stack = []  # child time accumulated by each open span
        self._saved = []  # (setter, owner, attribute, original)
        self._verifying = 0  # open verify_reduction spans

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        # the hot path: one list per function, no dictionary lookups
        stat = self._stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                child = stack.pop()
                stat[0] += 1
                stat[1] += spent - child
                if stack:
                    stack[-1] += spent

        if before is None and after is None:
            traced.__wrapped__ = fn
            return traced

        def hooked(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            result = traced(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        hooked.__wrapped__ = fn
        return hooked

    def _hooks(self, name):
        if name == "tapes.read" or name == "tapes.write":
            return self._count_intervals, None
        if name == "machine.run":
            return self._watch_run, self._count_outcome
        return None, None

    def install(self):
        """Wrap every traced function in every otmlab module that holds it."""
        for _, module_name, _ in TRACED:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "otmlab" or n.startswith("otmlab."))]
        for layer, module_name, path in TRACED:
            name = metric_prefix(layer, path)
            before, after = self._hooks(name)
            home = sys.modules[module_name]
            if path == "Relation.holds" or path == "Relation.witness_set":
                field = path.split(".")[1]
                for relation in home.PRINCIPLES.values():
                    original = getattr(relation, field)
                    self._set(object.__setattr__, relation, field, original,
                              self._wrap(name, original, before, after))
                continue
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._set(setattr, cls, attr, original,
                          self._wrap(name, original, before, after))
                continue
            original = getattr(home, path)
            wrapper = self._wrap(name, original, before, after)
            if name == "reductions.verify_reduction":
                wrapper = self._verifying_scope(wrapper)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(setattr, module, attr, original, wrapper)

    def _set(self, setter, owner, attr, original, wrapper):
        self._saved.append((setter, owner, attr, original))
        setter(owner, attr, wrapper)

    def restore(self):
        for setter, owner, attr, original in reversed(self._saved):
            setter(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- counters ------------------------------------------------------------

    def _count_intervals(self, args, kwargs):
        n = len(args[0].ones)
        counters = self.counters
        counters["tapes.accesses"] += 1
        counters["tapes.intervals_at_access.sum"] += n
        if n > counters["tapes.intervals_at_access.max"]:
            counters["tapes.intervals_at_access.max"] = n
        return args, kwargs

    def _watch_run(self, args, kwargs):
        if self._verifying:
            self.counters["reductions.program_runs"] += 1
        user_trace = kwargs.get("trace")
        wants_steps = kwargs.get("trace_steps", False)
        counters = self.counters

        def trace(record):
            event = record["event"]
            if event == "step":
                counters["machine.successor_steps"] += 1
            elif event == "limit":
                counters[f"machine.limit_jumps.{record['kind']}"] += 1
            if user_trace is not None and (event != "step" or wants_steps):
                user_trace(record)

        kwargs = dict(kwargs, trace=trace, trace_steps=True)
        return args, kwargs

    def _count_outcome(self, outcome):
        self.counters[f"machine.outcomes.{outcome.kind}"] += 1

    def _verifying_scope(self, wrapper):
        """Mark machine runs made inside verify_reduction."""

        def scoped(*args, **kwargs):
            self._verifying += 1
            try:
                return wrapper(*args, **kwargs)
            finally:
                self._verifying -= 1

        return scoped

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain counts and seconds, mergeable across processes."""
        return {
            "calls": {name: stat[0] for name, stat in self._stats.items()},
            "self_s": {name: stat[1] for name, stat in self._stats.items()},
            "counters": dict(self.counters),
        }


def merge(total: dict, part: dict) -> dict:
    for key in ("calls", "self_s", "counters"):
        into = total.setdefault(key, {})
        for name, value in part[key].items():
            if name == "tapes.intervals_at_access.max":
                into[name] = max(into.get(name, 0), value)
            else:
                into[name] = into.get(name, 0) + value
    return total
