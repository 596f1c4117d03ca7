"""Reduction witnesses and their verification.

A witness reduces a relation R to a relation R' in one of three senses:

  soW   post(F'(pre(x)))            single oracle use, no side channel
  oW    post(kpair(F'(pre(x)), x))  single oracle use, original instance kept
  OTM   a procedure that may consult F' any number of times (miracle tape)

Stages are native procedures (Python functions of sets) or machine programs
run on set codes, and one executor runs both.  A pre or post stage reads one
set, an oW post stage kpair(y, x); only an OTM stage may take the oracle, as
a native func(x, oracle) or a program with a miracle state, which a witness
checks when it is built.  Stages are pure, so a sweep memoizes every stage by
(stage, input).  verify_reduction sweeps every canonification of the target
relation over the relevant instances (full product when small, extremal plus
seeded samples otherwise) and reports counterexamples.  A single-use case is
judged by one apply_oW round trip.  It depends on its canonification only
through the answer at pre(x), so the sweep first judges each (instance,
answer) pair once, through one canonification giving it, and walks the
product only to list counterexamples.  An OTM case is one run, whose oracle
answers from a partial choice of answers and stops the run where several
are open.  A tree loop judges every leaf of an instance's choice tree while
it fits the cap; past it, each choice rule is judged once per instance and
keeps one choice across its instances.  In both kinds an oracle query
outside the target's domain fails its case: a realizer of the target may
answer anything there.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from . import machine
from .asm import load_program
from .codes import code_to_tape, decode, encode, tape_to_code
from .errors import (
    EmptyWitnessSet,
    InvalidCode,
    MiracleRangeEscape,
    OracleDomainError,
    WitnessExecutionError,
)
from .hfsets import (
    EMPTY,
    HfSet,
    RANK_CAP,
    format_set,
    hf,
    kpair,
    kpair_parts,
    rank,
    set_difference,
    singleton,
    tc,
)
from .machine import RunBudget
from .programs import Program
from .syntax import parse_json
from .relations import (
    PRINCIPLES,
    Canonification,
    choice_rules,
    decode_linear_order,
    decode_poset,
    encode_order,
    enumerate_canonifications,
    maximal_elements,
)

__all__ = [
    "NativeProcedure",
    "NATIVE_REGISTRY",
    "ReductionWitness",
    "apply_oW",
    "run_with_miracle",
    "verify_reduction",
    "VerificationReport",
    "CaseFailure",
    "builtin_witnesses",
    "load_witness_manifest",
    "witness_path",
]

# a verification sweeps a canonification product (or OTM choice tree) in full
# up to DEFAULT_CAP; past it, it checks DEFAULT_SAMPLES seeded samples
DEFAULT_CAP = 30_000
DEFAULT_SAMPLES = 100

@dataclass(frozen=True)
class NativeProcedure:
    """A named function of sets: func(x), or func(x, oracle) to take the oracle."""

    name: str
    func: Callable
    takes_oracle: bool = field(init=False)

    def __post_init__(self):
        params = inspect.signature(self.func).parameters.values()
        if len(params) not in (1, 2) or any(p.kind > p.POSITIONAL_OR_KEYWORD for p in params):
            raise ValueError(f"native {self.name} must take (x) or (x, oracle)")
        object.__setattr__(self, "takes_oracle", len(params) == 2)

    def __call__(self, *args):
        return self.func(*args)


Stage = Union[NativeProcedure, Program]


@dataclass(frozen=True)
class ReductionWitness:
    name: str
    kind: str  # "oW" | "soW" | "OTM"
    source: str
    target: str
    pre: Optional[Stage] = None
    post: Optional[Stage] = None
    otm: Optional[Stage] = None

    def __post_init__(self):
        for key, relation in (("source_relation", self.source), ("target_relation", self.target)):
            if not isinstance(relation, str) or relation not in PRINCIPLES:
                raise ValueError(f"{key} {relation!r} is not a known relation")
        if self.kind not in ("oW", "soW", "OTM"):
            raise ValueError(f"unknown witness kind {self.kind}")
        runs = ("otm",) if self.kind == "OTM" else ("pre", "post")
        for role in ("pre", "post", "otm"):
            stage = getattr(self, role)
            if (stage is None) == (role in runs):
                need = "need" if role in runs else "take no"
                raise ValueError(f"{self.kind} witnesses {need} stage {role!r}")
        for role in runs:
            stage = getattr(self, role)
            native = isinstance(stage, NativeProcedure)
            takes = stage.takes_oracle if native else stage.miracle_state is not None
            if takes and role != "otm":
                what = stage.name if native else "a program with a miracle state"
                raise ValueError(f"stage {role!r} ({what}) takes the oracle, "
                                 "which only an OTM stage may")
            if native and not takes and role == "otm":
                raise ValueError(f"stage 'otm' ({stage.name}) takes no oracle; "
                                 "a native OTM stage is func(x, oracle)")

    def post_input(self, y: HfSet, x: HfSet) -> HfSet:
        """The post stage's input for answer y: kpair(y, x) for oW, y for soW."""
        return kpair(y, x) if self.kind == "oW" else y


# -- stage execution ---------------------------------------------------------------


def _execute(
    stage: Stage,
    value: HfSet,
    budget: RunBudget,
    oracle: Optional[Callable[[HfSet], HfSet]] = None,
) -> HfSet:
    """stage(value), consulting oracle (if given) by the miracle protocol.

    A native stage gets func(value), or func(value, oracle).  A program runs
    on a code of value and its out tape is decoded; given the oracle, each
    arrival in the miracle state reads the miracle tape, and a valid set code
    there is replaced by a code of its oracle image (anything else is left
    alone and the run simply continues).
    """
    if isinstance(stage, NativeProcedure):
        return stage.func(value) if oracle is None else stage.func(value, oracle)

    def hook(tape):
        try:
            s = decode(tape_to_code(tape))
        except InvalidCode:
            return None
        return code_to_tape(encode(oracle(s)))

    outcome = machine.run(stage, code_to_tape(encode(value)), budget,
                          miracle_hook=hook if oracle else None)
    if outcome.kind != "halted":
        raise WitnessExecutionError(
            f"program did not halt ({outcome.kind}: "
            f"{getattr(outcome, 'reason', 'divergent')})"
        )
    try:
        return decode(tape_to_code(outcome.final.tapes[stage.tape_index("out")]))
    except InvalidCode as exc:
        raise WitnessExecutionError(f"program output is not a set code: {exc}")


class _StageRunner:
    """Executes stages, memoizing each by (stage, input).

    Native procedures and programs are both pure in their input, so a sweep
    runs a stage once per distinct input however many canonifications reuse
    it.  A stage that fails is remembered too and raises the same error again.
    """

    def __init__(self, budget: RunBudget):
        self.budget = budget
        self._memo: Dict[tuple, Tuple[bool, object]] = {}

    def apply(self, stage: Stage, value: HfSet) -> HfSet:
        """stage(value).  A pre or post stage reads one set (an oW post stage
        reads kpair(y, x))."""
        # keyed on id: a Program holds a dict, so it cannot be hashed
        key = (id(stage), value)
        hit = self._memo.get(key)
        if hit is None:
            try:
                hit = (True, _execute(stage, value, self.budget))
            except Exception as exc:
                hit = (False, exc)
            self._memo[key] = hit
        ok, result = hit
        if not ok:
            raise result.with_traceback(None)
        return result


def apply_oW(
    witness: ReductionWitness,
    canon: Canonification,
    x: HfSet,
    budget: RunBudget = RunBudget(),
    *,
    runner: Optional[_StageRunner] = None,
) -> HfSet:
    """One round trip through a single-use witness.

    oW: post(kpair(F'(q), x)) with q = pre(x); soW: post(F'(q)).  The
    canonification must be defined at q (OracleDomainError otherwise).
    """
    if witness.kind not in ("oW", "soW"):
        raise ValueError("apply_oW is for oW/soW witnesses")
    runner = runner or _StageRunner(budget)
    answer = canon(runner.apply(witness.pre, x))
    return runner.apply(witness.post, witness.post_input(answer, x))


def run_with_miracle(
    witness: ReductionWitness,
    oracle: Callable[[HfSet], HfSet],
    x: HfSet,
    budget: RunBudget = RunBudget(),
) -> Tuple[HfSet, int]:
    """Execute an OTM-kind witness against an oracle function, through the
    miracle protocol of _execute; returns the result and the number of oracle
    calls."""
    if witness.kind != "OTM":
        raise ValueError("run_with_miracle is for OTM witnesses")
    calls = 0

    def call(s: HfSet) -> HfSet:
        nonlocal calls
        calls += 1
        y = oracle(s)
        if rank(y) > RANK_CAP:
            raise MiracleRangeEscape(
                f"oracle image has rank {rank(y)} > cap {RANK_CAP}"
            )
        return y

    return _execute(witness.otm, x, budget, call), calls


# -- verification -------------------------------------------------------------------


@dataclass
class CaseFailure:
    instance: HfSet
    canonification: str
    reason: str

    def to_json(self):
        return {
            "instance": format_set(self.instance),
            "canonification": self.canonification,
            "reason": self.reason,
        }


@dataclass
class VerificationReport:
    witness: str
    kind: str
    source: str
    target: str
    universe_size: int
    instance_count: int
    mode: str = "exhaustive"
    canonification_count: int = 0
    product_size: int = 0
    cases: int = 0
    failures: List[CaseFailure] = field(default_factory=list)
    miracle_calls: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "witness": self.witness,
            "kind": self.kind,
            "source": self.source,
            "target": self.target,
            "universe": self.universe_size,
            "instances": self.instance_count,
            "mode": self.mode,
            "canonifications": self.canonification_count,
            "product_size": self.product_size,
            "cases": self.cases,
            "ok": self.ok,
            "failures": [f.to_json() for f in self.failures],
            "miracle_calls": self.miracle_calls,
        }

    def summary(self) -> str:
        status = "OK" if self.ok else f"FAIL ({len(self.failures)} counterexamples)"
        return (
            f"{self.witness}: {status} {self.mode} "
            f"({self.instance_count} instances x {self.canonification_count} "
            f"canonifications, {self.cases} cases)"
        )


class _NeedInstance(Exception):
    """A run asked an oracle instance with several answers to try."""

    def __init__(self, instance, options):
        self.instance = instance
        self.options = options


def verify_reduction(
    witness: ReductionWitness,
    universe: Sequence[HfSet],
    *,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
    budget: RunBudget = RunBudget(),
    sample_size: int = DEFAULT_SAMPLES,
) -> VerificationReport:
    """Check the witness against every (or cap-sampled) canonification of
    PRINCIPLES[witness.target] over the instances the pre-stage produces.

    An oW/soW sweep judges each case by apply_oW.  It first judges each
    instance x with each answer y' a canonification gives at pre(x), through
    one canonification giving y'; when all pass, every (canonification,
    instance) case passes and is counted without running.  Otherwise it
    walks the product to list counterexamples, in product order.  Execution
    errors, an oracle query outside the target's domain among them, are
    recorded as failures for their case.  The sweep is deterministic for a
    fixed (witness, universe, cap, seed).
    """
    instances = [x for x in universe if PRINCIPLES[witness.source].domain(x)]
    report = VerificationReport(
        witness=witness.name,
        kind=witness.kind,
        source=witness.source,
        target=witness.target,
        universe_size=len(universe),
        instance_count=len(instances),
    )
    verify = _verify_otm if witness.kind == "OTM" else _verify_single_use
    verify(witness, instances, cap, seed, budget, report, sample_size)
    return report


def _verify_single_use(witness, instances, cap, seed, budget, report, sample_size):
    source, target = PRINCIPLES[witness.source], PRINCIPLES[witness.target]
    runner = _StageRunner(budget)
    posed = []  # (x, pre(x)) for each x whose pre stage succeeded
    for x in instances:
        try:
            posed.append((x, runner.apply(witness.pre, x)))
        except Exception as exc:
            report.failures.append(CaseFailure(x, "-", f"pre stage failed: {exc}"))
    targets = list(dict.fromkeys(q for _, q in posed))
    try:
        mode, canons, product = enumerate_canonifications(
            target, targets, cap, seed, sample_size
        )
    except EmptyWitnessSet as exc:
        report.mode = "aborted"
        report.failures.append(
            CaseFailure(exc.instance, "-", "target instance has no witness")
        )
        return
    report.mode = mode
    report.canonification_count = len(canons)
    report.product_size = product
    report.cases = len(canons) * len(posed)

    def failure(canon, x):
        """Why the case (canon, x) fails, or None when it passes."""
        try:
            y = apply_oW(witness, canon, x, budget, runner=runner)
        except Exception as exc:
            return str(exc)
        if not source.holds(x, y):
            return f"result {y} fails {source.name}"
        return None

    @lru_cache(maxsize=None)
    def representatives(q):
        """One canonification per answer (or None: undefined) given at q."""
        return {canon.mapping.get(q): canon for canon in canons}.values()

    if all(failure(canon, x) is None for x, q in posed for canon in representatives(q)):
        return
    for canon in canons:
        for x, _ in posed:
            reason = failure(canon, x)
            if reason is not None:
                report.failures.append(CaseFailure(x, canon.label, reason))


def _verify_otm(witness, instances, cap, seed, budget, report, sample_size):
    """Adaptive sweep: each instance's choice tree is judged leaf by leaf
    while it fits the cap, and past the cap once per choice rule."""
    source, target = PRINCIPLES[witness.source], PRINCIPLES[witness.target]
    answers = lru_cache(maxsize=None)(target.answers)

    def judge(x, partial, pick, label=None):
        """Make one run on x and record its case.  The oracle answers from
        `partial`; at a new in-domain instance s it adds the one answer
        pick(s) lists, and raises _NeedInstance where pick(s) lists several."""

        def oracle(s):
            if s not in partial:
                # a realizer of the target may answer anything off its domain
                if not target.domain(s):
                    raise OracleDomainError(
                        f"oracle instance {s} is outside the domain of {target.name}")
                options = pick(s)
                if len(options) > 1:
                    raise _NeedInstance(s, options)
                partial[s] = options[0]
            return partial[s]

        try:
            y, calls = run_with_miracle(witness, oracle, x, budget)
        except _NeedInstance:
            raise
        except EmptyWitnessSet as exc:
            report.failures.append(CaseFailure(
                x, "-", f"no witness for oracle instance {exc.instance}"))
            return
        except Exception as exc:
            reason = str(exc)
        else:
            # keep the most oracle calls any run of x made
            name = format_set(x)
            report.miracle_calls[name] = max(calls, report.miracle_calls.get(name, 0))
            reason = None if source.holds(x, y) else f"result {y} fails {source.name}"
        report.cases += 1
        if reason is not None:
            report.failures.append(CaseFailure(x, label or _label(partial), reason))

    def tree(x):
        """Judge every leaf of x's choice tree, trying every answer at each
        oracle instance.  Returns (leaves, stayed within cap)."""
        stack = [{}]
        leaves = 0
        while stack:
            partial = stack.pop()
            try:
                judge(x, partial, answers)
            except _NeedInstance as need:
                if len(stack) + len(need.options) > cap:
                    return leaves, False
                stack.extend({**partial, need.instance: opt} for opt in reversed(need.options))
                continue
            leaves += 1
            if leaves > cap:
                return leaves, False
        return leaves, True

    for x in instances:
        leaves, exhaustive = tree(x)
        report.canonification_count += leaves
        if not exhaustive:
            break
    else:
        report.product_size = report.canonification_count
        return
    # fall back to the choice rules of a sampled sweep, each fixing its
    # answer at an oracle instance the first time any run asks there.
    # Counterexamples the exhaustive phase already found stay: a report must
    # not say OK after one has been seen.
    report.mode = "sampled"
    report.cases = 0
    report.miracle_calls.clear()
    rules = choice_rules(sample_size, seed)
    report.canonification_count = len(rules)
    report.product_size = -1
    for label, choose in rules:
        chosen: Dict[HfSet, HfSet] = {}
        for x in instances:
            judge(x, chosen, lambda s: [choose(answers(s))], label)


def _label(partial: Dict[HfSet, HfSet]) -> str:
    if not partial:
        return "(no oracle use)"
    return ",".join(
        f"{format_set(k)}->{format_set(v)}" for k, v in list(partial.items())[:4]
    )


# -- native procedure registry -------------------------------------------------------


def _decode_wo(w: HfSet) -> Tuple[List[HfSet], HfSet]:
    """(field in order, top element) of an order answer over downclose(x).

    The top is the one field element that belongs to no other field element:
    the instance x itself."""
    parts: List[HfSet] = []
    for p in w.elements:
        ab = kpair_parts(p)
        if ab is None:
            raise WitnessExecutionError("order value is not a set of pairs")
        parts.extend(ab)
    f = hf(parts)
    ordered = decode_linear_order(w, f)
    if ordered is None:
        raise WitnessExecutionError("oracle answer is not a linear order")
    tops = [u for u in f.elements if not any(u in v for v in f.elements)]
    if len(tops) != 1:
        raise WitnessExecutionError(f"no unique top in {f}")
    return ordered, tops[0]


def _least_in(ordered: List[HfSet], members: HfSet) -> HfSet:
    for e in ordered:
        if e in members:
            return e
    raise WitnessExecutionError("order does not reach the requested set")


def _decode_wo_poset(w: HfSet):
    ordered, top = _decode_wo(w)
    decoded = decode_poset(top)
    if decoded is None:
        raise WitnessExecutionError("top element is not an encoded poset")
    return ordered, decoded


def _pp_from_wo(w: HfSet) -> HfSet:
    if len(w) == 0:
        raise WitnessExecutionError("empty order cannot locate an element")
    ordered, top = _decode_wo(w)
    return _least_in(ordered, top)


def _ac_from_wo(w: HfSet) -> HfSet:
    if len(w) == 0:
        return EMPTY  # the empty family's transversal
    ordered, top = _decode_wo(w)
    return hf(_least_in(ordered, z) for z in top.elements)


def _acp_from_wo(w: HfSet) -> HfSet:
    if len(w) == 0:
        return EMPTY
    ordered, top = _decode_wo(w)
    return hf(kpair(z, _least_in(ordered, z)) for z in top.elements)


def _mpp_from_wo(w: HfSet) -> HfSet:
    return singleton(_pp_from_wo(w))


def _zl_from_wo(w: HfSet) -> HfSet:
    ordered, (f, order) = _decode_wo_poset(w)
    maxima = maximal_elements(f, order)
    for e in ordered:
        if e in maxima:
            return e
    raise WitnessExecutionError("no maximal element found in the order")


def _hmp_from_wo(w: HfSet) -> HfSet:
    ordered, (f, order) = _decode_wo_poset(w)
    chain: List[HfSet] = []
    for e in ordered:
        if e not in f:
            continue
        if all((e, c) in order or (c, e) in order for c in chain):
            chain.append(e)
    return hf(chain)


def _wo_from_pp_iterative(x: HfSet, miracle: Callable[[HfSet], HfSet]) -> HfSet:
    remaining = x
    picked: List[HfSet] = []
    while len(remaining) > 0:
        choice = miracle(remaining)
        if choice not in remaining:
            raise WitnessExecutionError(
                f"oracle picked {choice} outside {remaining}"
            )
        picked.append(choice)
        remaining = set_difference(remaining, singleton(choice))
    return encode_order(picked)


def _pp_from_wo_otm(x: HfSet, miracle: Callable[[HfSet], HfSet]) -> HfSet:
    order = miracle(x)
    ordered = decode_linear_order(order, x)
    if ordered is None:
        raise WitnessExecutionError("oracle answer is not a well-order of x")
    return ordered[0]


def _maximal_elements_stage(c: HfSet) -> HfSet:
    decoded = decode_poset(c)
    if decoded is None:
        raise WitnessExecutionError(f"not an encoded poset: {c}")
    return hf(maximal_elements(*decoded))


def _unique_element(y: HfSet) -> HfSet:
    if len(y) != 1:
        raise WitnessExecutionError(f"expected a singleton, got {y}")
    return y.elements[0]


def _untag_subset(y: HfSet) -> HfSet:
    out = []
    for p in y.elements:
        ab = kpair_parts(p)
        if ab is not None:
            out.append(ab[1])
    return hf(out)


def _kpair_range(y: HfSet) -> HfSet:
    out = []
    for p in y.elements:
        ab = kpair_parts(p)
        if ab is None:
            raise WitnessExecutionError("choice function value is not a pair set")
        out.append(ab[1])
    return hf(out)


def _disjointify(x: HfSet) -> HfSet:
    return hf(hf(kpair(z, e) for e in z.elements) for z in x.elements)


_PP2_CONSTANT = hf([EMPTY, singleton(EMPTY)])

NATIVE_REGISTRY: Dict[str, NativeProcedure] = {
    name: NativeProcedure(name, func) for name, func in [
        ("identity", lambda x: x),
        ("const-empty", lambda x: EMPTY),
        ("pp2-instance", lambda x: _PP2_CONSTANT),
        ("singleton-family", singleton),
        ("discrete-poset", lambda x: kpair(x, EMPTY)),
        ("maximal-elements", _maximal_elements_stage),
        ("unique-element", _unique_element),
        ("tag-family", lambda x: singleton(hf(kpair(x, z) for z in x.elements))),
        ("untag-subset", _untag_subset),
        ("kpair-range", _kpair_range),
        ("disjointify", _disjointify),
        ("downclose", lambda x: hf(list(tc(x).elements) + [x])),
        ("pp-from-wo", _pp_from_wo),
        ("mpp-from-wo", _mpp_from_wo),
        ("ac-from-wo", _ac_from_wo),
        ("acp-from-wo", _acp_from_wo),
        ("zl-from-wo", _zl_from_wo),
        ("hmp-from-wo", _hmp_from_wo),
        ("wo-from-pp-iterative", _wo_from_pp_iterative),
        ("pp-from-wo-otm", _pp_from_wo_otm),
    ]
}


def builtin_witnesses() -> Dict[str, ReductionWitness]:
    """The shipped witnesses for the reducibility diagram's positive edges."""
    reg = NATIVE_REGISTRY

    def w(name, kind, source, target, pre=None, post=None, otm=None):
        return ReductionWitness(
            name=name,
            kind=kind,
            source=source,
            target=target,
            pre=reg[pre] if pre else None,
            post=reg[post] if post else None,
            otm=reg[otm] if otm else None,
        )

    catalog = [
        w("zero_le_pp2", "soW", "ZERO", "PP2", "pp2-instance", "const-empty"),
        w("pp2_le_ppfin", "soW", "PP2", "PPfin", "identity", "identity"),
        w("ppfin_le_pp", "soW", "PPfin", "PP", "identity", "identity"),
        w("pp_le_zl", "soW", "PP", "ZL", "discrete-poset", "identity"),
        w("zl_le_pp", "soW", "ZL", "PP", "maximal-elements", "identity"),
        w("pp_le_ac", "soW", "PP", "AC", "singleton-family", "unique-element"),
        w("pp_le_hmp", "soW", "PP", "HMP", "discrete-poset", "unique-element"),
        w("mpp_le_muc", "soW", "MPP", "MuC", "tag-family", "untag-subset"),
        w("muc_le_ac", "soW", "MuC", "AC", "identity", "identity"),
        w("ac_le_acprime", "soW", "AC", "ACprime", "identity", "kpair-range"),
        w("acprime_le_ac", "soW", "ACprime", "AC", "disjointify", "identity"),
        w("zero_le_wo", "soW", "ZERO", "WO", "downclose", "const-empty"),
        w("pp_le_wo", "soW", "PP", "WO", "downclose", "pp-from-wo"),
        w("pp2_le_wo", "soW", "PP2", "WO", "downclose", "pp-from-wo"),
        w("ppfin_le_wo", "soW", "PPfin", "WO", "downclose", "pp-from-wo"),
        w("mpp_le_wo", "soW", "MPP", "WO", "downclose", "mpp-from-wo"),
        w("muc_le_wo", "soW", "MuC", "WO", "downclose", "ac-from-wo"),
        w("ac_le_wo", "soW", "AC", "WO", "downclose", "ac-from-wo"),
        w("acprime_le_wo", "soW", "ACprime", "WO", "downclose", "acp-from-wo"),
        w("zl_le_wo", "soW", "ZL", "WO", "downclose", "zl-from-wo"),
        w("hmp_le_wo", "soW", "HMP", "WO", "downclose", "hmp-from-wo"),
        w("wo_otm_pp", "OTM", "WO", "PP", otm="wo-from-pp-iterative"),
        w("pp_otm_wo", "OTM", "PP", "WO", otm="pp-from-wo-otm"),
    ]
    return {wit.name: wit for wit in catalog}


# -- manifests ---------------------------------------------------------------------


def witness_path(filename: str) -> Path:
    """Path of a shipped witness data file."""
    return Path(__file__).parent / "witnesses" / filename


def _resolve_stage(spec: Optional[str], base: Path) -> Optional[Stage]:
    if spec is None:
        return None
    if spec.startswith("native:"):
        name = spec[len("native:") :]
        if name not in NATIVE_REGISTRY:
            raise ValueError(f"unknown native procedure {name!r}")
        return NATIVE_REGISTRY[name]
    if spec.startswith("file:"):
        return load_program(base / spec[len("file:") :])
    raise ValueError(f"stage spec must be native:NAME or file:PATH, got {spec!r}")


_MANIFEST_KEYS = ("name", "kind", "source_relation", "target_relation", "pre", "post", "otm")


def load_witness_manifest(path) -> ReductionWitness:
    """Witness manifest JSON: {name, kind, source_relation, target_relation,
    pre, post, otm} with stages as native:NAME or file:RELATIVE.otm."""
    path = Path(path)
    data = parse_json(path.read_text(encoding="utf-8"), str(path))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: a witness manifest must be a JSON object")
    for key in data:
        if key not in _MANIFEST_KEYS:
            raise ValueError(f"{path}: witness manifest has unknown key {key!r}")
    for key in ("kind", "source_relation", "target_relation"):
        if key not in data:
            raise ValueError(f"{path}: witness manifest has no {key!r} field")
    for key in ("name", "pre", "post", "otm"):
        if data.get(key) is not None and not isinstance(data[key], str):
            raise ValueError(f"{path}: {key} {data[key]!r} is not a string")
    base = path.parent
    try:
        return ReductionWitness(
            name=data.get("name", path.stem),
            kind=data["kind"],
            source=data["source_relation"],
            target=data["target_relation"],
            pre=_resolve_stage(data.get("pre"), base),
            post=_resolve_stage(data.get("post"), base),
            otm=_resolve_stage(data.get("otm"), base),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
