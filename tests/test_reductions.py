import json
import math
import random
import re
from functools import cmp_to_key
from pathlib import Path

import pytest

import oracles
from otmlab import reductions
from otmlab.asm import parse_program
from otmlab.codes import code_to_tape, encode, tape_to_code, decode
from otmlab.errors import (
    OracleDomainError,
    RepresentationOverflow,
    WitnessExecutionError,
)
from otmlab.hfsets import (
    EMPTY,
    RANK_CAP,
    ack_compare,
    format_set,
    hf,
    kpair,
    kpair_parts,
    rank,
    singleton,
    universe_rank_le,
)
from otmlab.machine import RunBudget, run
from otmlab.ordinals import from_int
from otmlab.relations import (
    PRINCIPLES,
    Canonification,
    Relation,
    encode_order,
    encode_poset,
)
from otmlab.reductions import (
    DEFAULT_CAP,
    NATIVE_REGISTRY,
    NativeProcedure,
    ReductionWitness,
    apply_oW,
    builtin_witnesses,
    load_witness_manifest,
    run_with_miracle,
    verify_reduction,
    witness_path,
)
from otmlab.tapes import Tape

SE = singleton(EMPTY)
SSE = singleton(SE)
PAIR01 = hf([EMPTY, SE])
U2 = universe_rank_le(2)
U3 = universe_rank_le(3)

WITNESSES = builtin_witnesses()
SINGLE_USE = [w for w in WITNESSES.values() if w.kind == "soW"]


def as_oW(witness):
    """The soW witness declared as oW: its post stage reads kpair(y, x) and
    runs the soW post stage on y, ignoring the instance."""
    post = witness.post
    return ReductionWitness(
        name=witness.name + "_as_oW", kind="oW", source=witness.source,
        target=witness.target, pre=witness.pre,
        post=NativeProcedure(post.name, lambda p: post(kpair_parts(p)[0])),
    )


class TestApplyOW:
    def test_pp_le_zl_round_trip(self):
        w = WITNESSES["pp_le_zl"]
        x = PAIR01
        q = w.pre(x)
        assert q is kpair(x, EMPTY)
        canon = Canonification({q: SE})
        assert apply_oW(w, canon, x) is SE

    def test_zl_le_pp_round_trip(self):
        w = WITNESSES["zl_le_pp"]
        chain = kpair(PAIR01, hf([kpair(EMPTY, SE)]))  # {} < {{}}
        maxima = w.pre(chain)
        assert maxima is singleton(SE)
        canon = Canonification({maxima: SE})
        assert apply_oW(w, canon, chain) is SE

    def test_pp_le_ac_round_trip(self):
        w = WITNESSES["pp_le_ac"]
        x = PAIR01
        canon = Canonification({singleton(x): singleton(SE)})
        got = apply_oW(w, canon, x)
        assert got is SE and got in x

    def test_oracle_domain_error(self):
        w = WITNESSES["pp_le_zl"]
        with pytest.raises(OracleDomainError):
            apply_oW(w, Canonification({}), PAIR01)

    @pytest.mark.parametrize("kind", ["soW", "oW"])
    def test_a_post_stage_that_takes_the_oracle_is_refused_when_built(self, kind):
        # a pre stage alike: see TestConstructionRule
        with pytest.raises(ValueError, match=r"^stage 'post' \(pp-from-wo-otm\) takes "
                           "the oracle, which only an OTM stage may$"):
            ReductionWitness(name="otm_post", kind=kind, source="PP", target="PP",
                             pre=NATIVE_REGISTRY["identity"],
                             post=NATIVE_REGISTRY["pp-from-wo-otm"])

    def test_soW_output_depends_only_on_pre_image(self):
        # pre stage is constant for ZERO<=PP2, so every input must agree
        w = WITNESSES["zero_le_pp2"]
        q = w.pre(EMPTY)
        canon = Canonification({q: SE})
        outs = {apply_oW(w, canon, x) for x in U3}
        assert outs == {EMPTY}


class TestVerify:
    @pytest.mark.parametrize("name", sorted(WITNESSES))
    def test_every_shipped_witness_passes_rank3(self, name):
        w = WITNESSES[name]
        report = verify_reduction(w, U3, cap=10_000, seed=7)
        assert report.ok, report.to_json()
        assert report.cases > 0

    def test_strong_witnesses_also_pass_as_oW(self):
        # the side channel is simply unused
        for w in SINGLE_USE:
            report = verify_reduction(as_oW(w), U3, cap=2_000, seed=7)
            assert report.ok, report.to_json()

    def test_deterministic_given_seed(self):
        w = WITNESSES["pp_le_wo"]
        a = verify_reduction(w, U3, cap=50, seed=11)
        b = verify_reduction(w, U3, cap=50, seed=11)
        assert a.to_json() == b.to_json()

    def test_wo_otm_pp_uses_exactly_size_of_x_calls(self):
        w = WITNESSES["wo_otm_pp"]
        report = verify_reduction(w, U3, cap=10_000, seed=0)
        assert report.ok and report.mode == "exhaustive"
        for x in U3:
            assert report.miracle_calls[format_set(x)] == len(x)

    def test_each_stage_runs_once_per_distinct_input(self):
        # stages are pure, so a sweep over many canonifications runs each one
        # once per distinct input; a failing stage is not re-run either
        from collections import Counter

        pre_calls, post_calls = Counter(), Counter()

        def counted_pre(x):
            pre_calls[x] += 1
            return x

        def counted_post(y):
            post_calls[y] += 1
            if y is EMPTY:
                raise WitnessExecutionError("post refuses {}")
            return y

        witness = ReductionWitness(
            name="counted_pp_le_pp", kind="soW", source="PP", target="PP",
            pre=NativeProcedure("counted-pre", counted_pre),
            post=NativeProcedure("counted-post", counted_post),
        )
        pp = PRINCIPLES["PP"]
        report = verify_reduction(witness, U3, cap=10_000, seed=1)
        assert report.canonification_count > 1
        assert set(pre_calls) == {x for x in U3 if pp.domain(x)}
        assert set(pre_calls.values()) == {1}
        assert set(post_calls.values()) == {1}
        assert report.failures
        assert {f.reason for f in report.failures} == {"post refuses {}"}


BROKEN = []


def _broken(name, kind, source, target, pre, post):
    BROKEN.append(
        ReductionWitness(
            name=name, kind=kind, source=source, target=target,
            pre=NATIVE_REGISTRY[pre] if isinstance(pre, str) else pre,
            post=NATIVE_REGISTRY[post] if isinstance(post, str) else post,
        )
    )


# five deliberately broken witnesses
_broken("broken_pp_le_zl", "soW", "PP", "ZL", "discrete-poset", "const-empty")
_broken("broken_pp_le_ac", "soW", "PP", "AC", "identity", "unique-element")
_broken("broken_zl_le_pp", "soW", "ZL", "PP", "identity", "identity")
_broken("broken_ac_le_wo", "soW", "AC", "WO", "identity", "ac-from-wo")
_broken("broken_mpp_le_muc", "soW", "MPP", "MuC", "singleton-family", "untag-subset")


class TestNegativeControls:
    @pytest.mark.parametrize("witness", BROKEN, ids=lambda w: w.name)
    def test_broken_witnesses_rejected_with_counterexamples(self, witness):
        source = PRINCIPLES[witness.source]
        report = verify_reduction(witness, U3, cap=2_000, seed=5)
        assert not report.ok
        assert report.failures
        cex = report.failures[0]
        assert source.domain(cex.instance)

    def test_const_empty_canonification_of_pp_fails_concretely(self):
        report = verify_reduction(BROKEN[0], U3, cap=2_000, seed=5)
        bad_instances = {format_set(f.instance) for f in report.failures}
        assert format_set(SSE) in bad_instances  # {} fails to be in {{{}}}

    def test_invalid_canonifications_rejected(self):
        cases = []
        # 1: PP mapped constantly to {} misses every set not containing {}
        cases.append(("PP", Canonification({x: EMPTY for x in U3 if len(x)})))
        # 2: WO mapped to the empty order on multi-element sets
        cases.append(("WO", Canonification({x: EMPTY for x in U3})))
        # 3: ZL mapped to a non-maximal element
        chain = kpair(PAIR01, hf([kpair(EMPTY, SE)]))
        cases.append(("ZL", Canonification({chain: EMPTY})))
        # 4: AC mapped to a two-element subset of a single member
        fam = singleton(PAIR01)
        cases.append(("AC", Canonification({fam: PAIR01})))
        # 5: HMP mapped to a non-maximal chain
        three = hf([EMPTY, SE, SSE])
        from otmlab.relations import encode_poset

        poset = encode_poset(three, [(EMPTY, SE), (SE, SSE), (EMPTY, SSE)])
        cases.append(("HMP", Canonification({poset: singleton(EMPTY)})))
        assert len(cases) == 5
        for rel_name, canon in cases:
            relation = PRINCIPLES[rel_name]
            universe = list(canon.mapping)
            from otmlab.relations import check_canonification

            ok, cex = check_canonification(canon, relation, universe)
            assert not ok and cex is not None


def matches_product_sweep(witness, universe, **sweep):
    """verify_reduction's report, after checking it equals the reference
    report of the full product walk."""
    got = verify_reduction(witness, universe, **sweep)
    want = oracles.product_sweep(witness, universe, **sweep)
    assert got.to_json() == want.to_json()
    return got


MANIFESTS = [load_witness_manifest(witness_path(name))
             for name in ("zero_le_pp2.json", "pp_le_zl.json")]
# the rank-3 soW builtins whose product walk has 311,040 cases
LARGE_PRODUCTS = {"pp_le_ac", "pp_le_hmp", "pp_le_zl", "ppfin_le_pp"}


def _refusing_pairs(x):
    """Why REFUSE_PAIRS refuses x, or None: it is the identity elsewhere."""
    return f"refuses the pair {format_set(x)}" if len(x) == 2 else None


def _refuse_pairs(x):
    reason = _refusing_pairs(x)
    if reason:
        raise WitnessExecutionError(reason)
    return x


REFUSE_PAIRS = NativeProcedure("refuse-pairs", _refuse_pairs)


class TestPointwiseVerdicts:
    """A sweep decides each (instance, answer) once and walks the product of
    canonifications only to list counterexamples; its report must be the one
    the product walk gives, counts, failures and their order included."""

    @pytest.mark.parametrize(
        "witness", SINGLE_USE + [as_oW(w) for w in SINGLE_USE] + MANIFESTS,
        ids=lambda w: w.name,
    )
    def test_rank2_report_equals_product_sweep(self, witness):
        assert matches_product_sweep(witness, U2, cap=DEFAULT_CAP, seed=1).ok

    @pytest.mark.parametrize(
        "witness", [w for w in SINGLE_USE if w.name not in LARGE_PRODUCTS],
        ids=lambda w: w.name,
    )
    def test_rank3_report_equals_product_sweep(self, witness):
        report = matches_product_sweep(witness, U3, cap=DEFAULT_CAP, seed=1)
        assert report.ok and report.cases <= 2_000

    @pytest.mark.parametrize("witness", BROKEN, ids=lambda w: w.name)
    def test_broken_report_equals_product_sweep(self, witness):
        assert not matches_product_sweep(witness, U3, cap=2_000, seed=5).ok

    @pytest.mark.parametrize("fault", ["raises", "fails PP"])
    def test_one_failing_answer_fails_only_the_cases_that_choose_it(self, fault):
        # {{{}}} is an answer only at `two`, and not its Ackermann-least one:
        # the four canonifications are (a, b) for a in [{}, {{}}] at PAIR01
        # and b in [{{}}, {{{}}}] at `two`
        two = hf([SE, SSE])

        def post(y):
            if y is not SSE:
                return y
            if fault == "raises":
                raise WitnessExecutionError("post refuses {{{}}}")
            return EMPTY

        witness = ReductionWitness(
            name="refuses_one_answer", kind="soW", source="PP", target="PP",
            pre=NATIVE_REGISTRY["identity"],
            post=NativeProcedure("refuse-one-answer", post),
        )
        report = matches_product_sweep(witness, [PAIR01, two], cap=2_000)
        assert (report.mode, report.canonification_count, report.cases) == (
            "exhaustive", 4, 8)
        failed = [(f.instance, f.canonification) for f in report.failures]
        assert failed == [(two, "product[1]"), (two, "product[3]")]

    def test_pre_image_outside_the_target_domain_fails_every_case(self):
        # {} is no PP instance, so no canonification is defined at it
        witness = ReductionWitness(
            name="empty_pp_le_pp", kind="soW", source="PP", target="PP",
            pre=NATIVE_REGISTRY["const-empty"], post=NATIVE_REGISTRY["identity"],
        )
        report = matches_product_sweep(witness, U3, cap=2_000)
        assert report.cases == report.instance_count == len(report.failures)
        assert all(f.reason == "canonification undefined at {}"
                   for f in report.failures)

    @pytest.mark.parametrize("pre, refusal, post", [
        (REFUSE_PAIRS, _refusing_pairs, "identity"),
        (REFUSE_PAIRS, _refusing_pairs, "const-empty"),
    ], ids=["refuse-pairs", "refuse-pairs-then-fail"])
    def test_an_instance_whose_pre_stage_fails_is_in_no_case(self, pre, refusal, post):
        witness = ReductionWitness(
            name="pre_fails", kind="soW", source="PP", target="PP",
            pre=pre, post=NATIVE_REGISTRY[post],
        )
        report = matches_product_sweep(witness, U3, cap=DEFAULT_CAP)
        instances = [x for x in U3 if PRINCIPLES["PP"].domain(x)]
        kept = [x for x in instances if refusal(x) is None]
        refused = [(x, "-", f"pre stage failed: {refusal(x)}")
                   for x in instances if x not in kept]
        failures = [(f.instance, f.canonification, f.reason) for f in report.failures]
        assert failures[:len(refused)] == refused
        # const-empty fails the kept instances without the element {}, so the
        # sweep walks the product and passes over the refused ones there too
        assert (len(failures) > len(refused)) == (post == "const-empty")
        # the refused instances' pre-images are no targets: only the answers
        # at the kept instances, their own pre-images, multiply
        assert report.mode == "exhaustive"
        assert report.product_size == report.canonification_count == math.prod(
            len(x) for x in kept)
        assert report.cases == report.canonification_count * len(kept)

    def test_a_target_instance_without_answers_aborts_the_sweep(self, monkeypatch):
        # PP_HOLE is PP without answers at THREE, a pre-image of the identity
        pp = PRINCIPLES["PP"]
        monkeypatch.setitem(PRINCIPLES, "PP_HOLE", Relation(
            name="PP_HOLE", domain=pp.domain, candidates=pp.candidates,
            holds=lambda x, y: x is not THREE and pp.holds(x, y)))
        witness = ReductionWitness(
            name="into_the_hole", kind="soW", source="PP", target="PP_HOLE",
            pre=NATIVE_REGISTRY["identity"], post=NATIVE_REGISTRY["identity"],
        )
        report = matches_product_sweep(witness, U3, cap=DEFAULT_CAP)
        assert (report.mode, report.canonification_count, report.cases) == (
            "aborted", 0, 0)
        assert [(f.instance, f.canonification, f.reason) for f in report.failures] == [
            (THREE, "-", "target instance has no witness")]


def otm_probe(name, source, target, procedure):
    """An OTM witness whose procedure is the native procedure(x, miracle)."""
    return ReductionWitness(
        name=name, kind="OTM", source=source, target=target,
        otm=NativeProcedure(name.replace("_", "-"), procedure),
    )


def _off_domain_probe(x, miracle):
    # {} is outside PP's domain, where a realizer of PP may answer anything
    miracle(EMPTY)
    return EMPTY


THREE = hf([EMPTY, SE, SSE])


def _wrong_on_second_choice(x, miracle):
    # wrong only on the second Ackermann choice at the 4-element instance; the
    # later choices there consult the oracle again
    y = miracle(x)
    if len(x) == 4:
        options = sorted(PRINCIPLES["PP"].witness_set(x), key=cmp_to_key(ack_compare))
        if y is options[1]:
            return x  # not an element of x
        if y in options[2:]:
            miracle(THREE)
    return y


def _wrong_on_one_leaf(x, miracle):
    # two oracle instances with 2 and 3 answers; one leaf of six is wrong
    pp = PRINCIPLES["PP"]
    a, b = miracle(PAIR01), miracle(THREE)
    if a is pp.answers(PAIR01)[-1] and b is pp.answers(THREE)[1]:
        return x  # not an element of x
    return x.elements[0]


def wrong_on_every_leaf(fault):
    """A PP <= PP probe whose choice tree at PAIR01 has three leaves, every one
    wrong: the first answer there, or the last one followed by either answer
    at {{{}},{{{}}}}.  fault: "raises" or "fails PP"."""
    two = hf([SE, SSE])

    def procedure(x, miracle):
        if miracle(PAIR01) is PRINCIPLES["PP"].answers(PAIR01)[-1]:
            miracle(two)
        if fault == "raises":
            raise WitnessExecutionError("refuses every leaf")
        return x  # not an element of x

    return otm_probe(f"wrong_on_every_leaf_{fault.replace(' ', '_')}", "PP", "PP",
                     procedure)


HALT_NOW = "tapes in work out;\nstate q0 halt;\n"

# .otm probes of the miracle protocol, each a ZERO <= PP witness
MIRACLE_PROBES = {
    # write the code of {{}} (cell 1) on the miracle tape, enter the miracle
    # state, and halt; the oracle image should replace it
    "probe": """
        tapes in work out miracle;
        state m0;
        state m1;
        state qm miracle;
        state done halt;
        rule m0 -> move miracle=R goto m1;
        rule m1 -> write miracle=1 goto qm;
        rule qm -> goto done;
        """,
    # cell 0 = p(0,0) makes node 0 a member of itself: not a set code
    "probe2": """
        tapes in work out miracle;
        state m0;
        state qm miracle;
        state done halt;
        rule m0 -> write miracle=1 goto qm;
        rule qm -> goto done;
        """,
    # halts without entering the miracle state
    "probe3": """
        tapes in work out miracle;
        state m0;
        state qm miracle;
        state done halt;
        rule m0 -> write work=1 goto done;
        rule qm -> goto done;
        """,
    # enters the miracle state with an empty miracle tape, the code of {},
    # which is outside PP's domain, and halts
    "probe4": """
        tapes in work out miracle;
        state m0;
        state qm miracle;
        state done halt;
        rule m0 -> goto qm;
        rule qm -> goto done;
        """,
}


def program_probe(name):
    return ReductionWitness(name=name, kind="OTM", source="ZERO", target="PP",
                            otm=parse_program(MIRACLE_PROBES[name]))


# (witness, universe) of every OTM probe
OTM_PROBES = [
    (otm_probe("offdomain_probe", "ZERO", "PP", _off_domain_probe), U3[:4]),
    (otm_probe("wrong_on_second_choice", "PP", "PP", _wrong_on_second_choice), U3),
    (otm_probe("wrong_on_one_leaf", "PP", "PP", _wrong_on_one_leaf), [PAIR01]),
    (wrong_on_every_leaf("raises"), [PAIR01]),
    (wrong_on_every_leaf("fails PP"), [PAIR01]),
] + [(program_probe(name), U2) for name in MIRACLE_PROBES]
PROBES = {witness.name: witness for witness, _ in OTM_PROBES}


class TestMiracleProtocol:
    def test_native_iterative_well_ordering(self):
        from otmlab.relations import encode_order

        w = WITNESSES["wo_otm_pp"]
        picks = Canonification({x: x.elements[0] for x in U3 if len(x)})
        y, calls = run_with_miracle(w, lambda s: picks(s), PAIR01)
        assert PRINCIPLES["WO"].holds(PAIR01, y)
        # the Ackermann-least pick orders {} before {{}}, in two oracle calls
        assert y is encode_order([EMPTY, SE])
        assert calls == 2

    def test_program_miracle_replaces_valid_code(self):
        witness = program_probe("probe")
        seen = []

        def oracle(s):
            seen.append(s)
            return singleton(s)

        outcome_tape = {}
        y, calls = run_with_miracle(witness, oracle, EMPTY, RunBudget(100, 2))
        assert seen == [SE]
        assert calls == 1
        assert y is EMPTY  # output tape untouched

    def test_program_miracle_ignores_invalid_code(self):
        witness = program_probe("probe2")
        program = witness.otm
        calls = []

        def oracle(s):
            calls.append(s)
            return s

        outcome = run(program, Tape(), RunBudget(100, 2))
        y, count = run_with_miracle(witness, oracle, EMPTY, RunBudget(100, 2))
        assert calls == []  # nothing further happens
        assert count == 0

    def test_miracle_never_entered_matches_plain_run(self):
        witness = program_probe("probe3")
        program = witness.otm
        y, calls = run_with_miracle(witness, lambda s: s, EMPTY, RunBudget(100, 2))
        plain = run(program, code_to_tape(encode(EMPTY)), RunBudget(100, 2))
        assert calls == 0
        assert y is EMPTY
        assert decode(tape_to_code(plain.final.tapes[program.tape_index("out")])) is y
        assert plain.final.tapes[program.tape_index("work")].read(from_int(0)) == 1

    def test_rank_cap_escape(self):
        w = WITNESSES["pp_otm_wo"]

        def deep_oracle(s):
            x = EMPTY
            for _ in range(10):
                x = singleton(x)
            return x

        with pytest.raises(RepresentationOverflow, match="oracle image has rank 10 > cap 6"):
            run_with_miracle(w, deep_oracle, PAIR01)

    @pytest.mark.parametrize("depth", [RANK_CAP, RANK_CAP + 1])
    def test_an_oracle_image_may_reach_the_rank_cap(self, depth):
        """The oracle's answer is handed back at rank RANK_CAP and refused one
        rank above it."""
        chain = EMPTY
        for _ in range(depth):
            chain = singleton(chain)
        assert rank(chain) == depth
        ask = ReductionWitness(name="ask", kind="OTM", source="PP", target="PP",
                               otm=NativeProcedure("ask", lambda x, oracle: oracle(x)))
        if depth <= RANK_CAP:
            assert run_with_miracle(ask, lambda s: chain, EMPTY) == (chain, 1)
            return
        with pytest.raises(RepresentationOverflow,
                           match=f"^oracle image has rank {depth} > cap {RANK_CAP}$"):
            run_with_miracle(ask, lambda s: chain, EMPTY)

    def test_off_domain_oracle_instances_fail_in_both_phases(self):
        # a realizer of PP may answer anything at {}, outside PP's domain, so
        # every run of the probe fails; under cap 0 the first run outgrows the
        # cap and the choice rules of the sampled fallback run it again
        witness = PROBES["offdomain_probe"]
        report = verify_reduction(witness, U3[:4], cap=0, seed=1, sample_size=3)
        assert report.mode == "sampled"
        rules = ["extremal-min", "extremal-max", "sample[0]", "sample[1]", "sample[2]"]
        assert [(f.instance, f.canonification) for f in report.failures] == [
            (U3[0], "(no oracle use)")] + [(x, rule) for rule in rules for x in U3[:4]]
        assert {f.reason for f in report.failures} == {
            "oracle instance {} is outside the domain of PP"}

    def test_each_choice_rule_keeps_one_answer_at_an_oracle_instance(self):
        # every run asks PAIR01; under cap 0 the first run outgrows the cap,
        # and each rule of the fallback answers PAIR01 alike for every
        # instance, also a rule that draws its answer at random
        got = []

        def asks_the_pair(x, miracle):
            got.append(miracle(PAIR01))
            return EMPTY

        witness = otm_probe("asks_the_pair", "ZERO", "PP", asks_the_pair)
        report = verify_reduction(witness, U3, cap=0, seed=1, sample_size=4)
        assert report.mode == "sampled" and report.ok
        per_rule = [got[i:i + len(U3)] for i in range(0, len(got), len(U3))]
        assert [set(answers) for answers in per_rule[:2]] == [{EMPTY}, {SE}]
        assert [len(set(answers)) for answers in per_rule] == [1] * (2 + 4)

    def test_a_program_asking_off_the_target_domain_fails(self):
        # an empty miracle tape codes {}: the oracle is asked outside PP's
        # domain, so no answer it gives there can be relied on
        report = verify_reduction(program_probe("probe4"), U2)
        assert report.cases == len(U2) and len(report.failures) == len(U2)
        assert all("{}" in f.reason for f in report.failures), report.to_json()

    def test_sampled_fallback_keeps_exhaustive_counterexamples(self):
        # the 4-element instance's choice tree outgrows cap=6 after the
        # counterexample is recorded, and neither extremal rule of the
        # fallback makes the wrong choice
        witness = PROBES["wrong_on_second_choice"]
        full = verify_reduction(witness, U3, cap=10_000)
        assert full.mode == "exhaustive" and not full.ok
        capped = verify_reduction(witness, U3, cap=6, seed=1, sample_size=0)
        assert capped.mode == "sampled"
        assert not capped.ok, capped.to_json()
        assert {f.instance for f in capped.failures} == {U3[-1]}

    def test_the_leaf_that_outgrows_the_cap_is_still_judged(self):
        # under cap=4 the fifth leaf of the choice tree is run before the tree
        # is abandoned, and it is the only wrong one; neither extremal rule of
        # the fallback makes its choices
        witness = PROBES["wrong_on_one_leaf"]
        capped = verify_reduction(witness, [PAIR01], cap=4, seed=1, sample_size=0)
        assert capped.mode == "sampled"
        assert not capped.ok, capped.to_json()

    @pytest.mark.parametrize("fault", ["raises", "fails PP"])
    def test_every_judged_leaf_counts_against_the_cap(self, fault):
        # the stack never holds more than two branches of this tree, so under
        # cap=2 only its third leaf outgrows the cap, whether that leaf's run
        # raised or returned a wrong result
        witness = wrong_on_every_leaf(fault)
        full = verify_reduction(witness, [PAIR01], cap=3)
        assert (full.mode, full.canonification_count, full.cases) == ("exhaustive", 3, 3)
        capped = verify_reduction(witness, [PAIR01], cap=2, seed=1, sample_size=0)
        assert (capped.mode, capped.canonification_count, capped.cases) == (
            "sampled", 2, 2)
        assert len(capped.failures) == 3 + 2  # both phases' leaves are wrong

    def test_an_answerless_oracle_instance_is_reported_alike_in_both_phases(
            self, monkeypatch):
        # PP_HOLE is PP without witnesses at `hole`, which the probe asks at
        # every instance; at PAIR01 it first asks PAIR01, whose two answers
        # outgrow cap=1 and send the sweep to its fallback
        pp, hole = PRINCIPLES["PP"], THREE
        monkeypatch.setitem(PRINCIPLES, "PP_HOLE", Relation(
            name="PP_HOLE", domain=pp.domain, candidates=pp.candidates,
            holds=lambda x, y: x is not hole and pp.holds(x, y)))

        def asks_the_hole(x, miracle):
            if x is PAIR01:
                miracle(PAIR01)
            miracle(hole)
            return x.elements[0]

        witness = otm_probe("asks_the_hole", "PP", "PP_HOLE", asks_the_hole)
        instances = [x for x in U2 if pp.domain(x)]
        reason = f"no witness for oracle instance {hole}"
        full = verify_reduction(witness, U2, cap=DEFAULT_CAP)
        sampled = verify_reduction(witness, U2, cap=1, seed=1, sample_size=1)
        assert (full.mode, sampled.mode) == ("exhaustive", "sampled")
        assert full.canonification_count == len(instances) + 1  # 2 leaves at PAIR01
        for report in (full, sampled):
            assert report.cases == 0
            assert {(f.instance, f.canonification, f.reason)
                    for f in report.failures} == {(x, "-", reason) for x in instances}
        assert oracles.otm_tree_sweep(witness, U2) == (
            len(instances) + 1, 0, {(x, reason) for x in instances})


CATALOG_OTM = [
    WITNESSES["wo_otm_pp"],
    WITNESSES["pp_otm_wo"],
    load_witness_manifest(Path(__file__).resolve().parent.parent
                          / "perfbench" / "reject" / "broken_pp_otm_wo.json"),
]


@pytest.mark.parametrize(
    "witness, universe",
    [pytest.param(w, u, id=w.name) for w, u in [(w, U3) for w in CATALOG_OTM] + OTM_PROBES],
)
def test_exhaustive_otm_sweep_equals_recursive_reference(witness, universe):
    """The tree loop's leaves, cases and failing (instance, reason) pairs are
    those of the recursion on answer assignments."""
    report = verify_reduction(witness, universe, cap=DEFAULT_CAP)
    assert report.mode == "exhaustive"
    leaves, cases, failures = oracles.otm_tree_sweep(witness, universe)
    assert (report.canonification_count, report.cases) == (leaves, cases)
    assert {(f.instance, f.reason) for f in report.failures} == failures


class TestNativeRegistry:
    def test_a_native_takes_the_oracle_exactly_when_it_takes_two_arguments(self):
        takers = {name for name, proc in NATIVE_REGISTRY.items() if proc.takes_oracle}
        assert takers == {"wo-from-pp-iterative", "pp-from-wo-otm"}
        for proc in NATIVE_REGISTRY.values():
            assert proc.takes_oracle == (proc.func.__code__.co_argcount == 2)
        assert not NativeProcedure("len", len).takes_oracle

    @pytest.mark.parametrize("func", [
        lambda: EMPTY,
        lambda x, oracle, extra: x,
        lambda *xs: xs[0],
        lambda x, *, oracle: x,
        lambda x, **kw: x,
    ], ids=["no-argument", "three-arguments", "star-args", "keyword-only", "star-kwargs"])
    def test_a_native_of_any_other_arity_is_refused_when_built(self, func):
        with pytest.raises(ValueError, match=r"^native odd must take \(x\) or "
                           r"\(x, oracle\)$"):
            NativeProcedure("odd", func)

    def test_otm_witnesses_take_the_oracle_and_single_use_stages_do_not(self):
        for w in WITNESSES.values():
            stages = [w.otm] if w.kind == "OTM" else [w.pre, w.post]
            assert all(s.takes_oracle == (w.kind == "OTM") for s in stages), w.name

    def test_wo_post_stages_take_what_a_scan_of_the_order_meets_first(self):
        """Each WO post stage, given an order of downclose(x), returns what
        scanning the order as a list gives: the first element of x, of each
        member of x, or of x's maximal poset elements, and the chain that
        keeps each poset element comparable with those kept before it."""
        rng = random.Random(3)
        three = hf([EMPTY, SE, SSE])
        posets = {encode_poset(three, rel): rel for rel in
                  ([], [(EMPTY, SE)], [(EMPTY, SE), (SE, SSE), (EMPTY, SSE)],
                   [(EMPTY, SSE), (SE, SSE)])}
        run = {name: NATIVE_REGISTRY[name] for name in
               ("pp-from-wo", "mpp-from-wo", "ac-from-wo", "acp-from-wo",
                "zl-from-wo", "hmp-from-wo")}
        for x in [x for x in U3 if len(x)] + list(posets):
            field = list(NATIVE_REGISTRY["downclose"](x).elements)
            for _ in range(3):
                rng.shuffle(field)
                w = encode_order(field)
                first = [e for e in field if e in x][0]
                assert run["pp-from-wo"](w) is first
                assert run["mpp-from-wo"](w) is singleton(first)
                if all(len(z) for z in x.elements):
                    picks = {z: [e for e in field if e in z][0] for z in x.elements}
                    assert run["ac-from-wo"](w) is hf(picks.values())
                    assert run["acp-from-wo"](w) is hf(kpair(z, e) for z, e in picks.items())
                if x in posets:
                    r = posets[x]
                    maxima = oracles.poset_maximal(three, r)
                    assert run["zl-from-wo"](w) is [e for e in field if e in maxima][0]
                    chain = []
                    for e in field:
                        if e in three and all((e, c) in r or (c, e) in r for c in chain):
                            chain.append(e)
                    assert run["hmp-from-wo"](w) is hf(chain)

    def test_poset_stages_answer_every_small_poset_as_defined(self):
        """On every strict partial order over a field of 0-4 sets of rank <= 2,
        maximal-elements returns the maximal elements, and on two seeded
        shuffled orders of downclose(c), zl-from-wo the first of them the
        order meets and hmp-from-wo the chain that keeps each field element
        related to every element kept before it, all by the oracle."""
        rng = random.Random(5)
        frozen = oracles.to_frozen
        stage = NATIVE_REGISTRY
        for els, pairs in oracles.strict_partial_orders(U2):
            c = encode_poset(hf(els), pairs)
            field = [frozen(e) for e in els]
            rel = {(frozen(a), frozen(b)) for a, b in pairs}
            maxima = oracles.poset_maximal(field, rel)
            assert frozen(stage["maximal-elements"](c)) == maxima
            order = list(stage["downclose"](c).elements)
            for _ in range(2):
                rng.shuffle(order)
                w = encode_order(order)
                scanned = [frozen(e) for e in order]
                if maxima:
                    first = [e for e in scanned if e in maxima][0]
                    assert frozen(stage["zl-from-wo"](w)) == first
                chain = []
                for e in scanned:
                    if e in field and all((e, d) in rel or (d, e) in rel for d in chain):
                        chain.append(e)
                assert frozen(stage["hmp-from-wo"](w)) == frozenset(chain)

    # (stage, input, oracle, the failure text a report records for it)
    REFUSALS = {
        "order-not-pairs": ("pp-from-wo", SE, None, "order value is not a set of pairs"),
        "order-not-linear": ("ac-from-wo", hf([kpair(EMPTY, SE), kpair(SE, EMPTY)]), None,
                             "oracle answer is not a linear order"),
        # neither 0 nor {{0}} belongs to the other
        "order-two-tops": ("acp-from-wo", encode_order([EMPTY, SSE]), None,
                           "no unique top in {{},{{{}}}}"),
        "order-empty-no-top": ("zl-from-wo", EMPTY, None, "no unique top in {}"),
        "order-top-not-poset": ("hmp-from-wo", encode_order([EMPTY, SE]), None,
                                "top element is not an encoded poset"),
        "order-empty": ("pp-from-wo", EMPTY, None, "empty order cannot locate an element"),
        # the top {{0}} codes the empty poset
        "zl-no-maximal": ("zl-from-wo", encode_order([SE, SSE]), None,
                          "no maximal element found in the order"),
        # the poset's one element 0 lies outside the order's field
        "zl-maximal-outside": ("zl-from-wo", encode_order([SSE, kpair(SE, EMPTY)]), None,
                               "no maximal element found in the order"),
        # the top's member {{0}} holds {0}, which the order's field lacks
        "ac-member-outside": ("ac-from-wo", encode_order([SSE, singleton(SSE)]), None,
                              "order does not reach the requested set"),
        "pp-otm-not-an-order": ("pp-from-wo-otm", PAIR01, lambda s: EMPTY,
                                "oracle answer is not a well-order of x"),
        "maximal-not-poset": ("maximal-elements", EMPTY, None, "not an encoded poset: {}"),
        "kpair-range-not-pairs": ("kpair-range", SE, None,
                                  "choice function value is not a pair set"),
        "program-diverges": ("tapes in work out; state q0; rule q0 -> goto q0;", EMPTY, None,
                             "program did not halt (diverges: divergent)"),
        "program-unresolved": (
            "tapes in work out; state q0; rule q0 -> write work=1 move work=R goto q0;",
            EMPTY, None, "program did not halt (unresolved: limit jump budget exhausted)"),
        "program-out-not-a-code": (
            "tapes in work out; state q0; state h halt; rule q0 -> write out=1 goto h;",
            EMPTY, None, "program output is not a set code: invalid code (ill-founded): "
            "membership cycle through 0"),
    }

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_a_stage_that_cannot_run_says_why(self, case):
        stage, value, oracle, text = self.REFUSALS[case]
        stage = NATIVE_REGISTRY[stage] if stage in NATIVE_REGISTRY else parse_program(stage)
        with pytest.raises(WitnessExecutionError) as err:
            reductions._execute(stage, value, RunBudget(50, 4), oracle)
        assert str(err.value) == text


MIRACLE_PROGRAM = parse_program(MIRACLE_PROBES["probe3"])
PLAIN_PROGRAM = parse_program(HALT_NOW)


class TestConstructionRule:
    """Only an OTM stage may take the oracle, and a witness names relations
    of the catalog: a witness that breaks either rule is refused when it is
    built, naming the stage or the relation."""

    @pytest.mark.parametrize("role", ["pre", "post"])
    @pytest.mark.parametrize("kind", ["soW", "oW"])
    @pytest.mark.parametrize("stage, what", [
        (NATIVE_REGISTRY["wo-from-pp-iterative"], "wo-from-pp-iterative"),
        (MIRACLE_PROGRAM, "a program with a miracle state"),
    ], ids=["native", "program"])
    def test_a_single_use_stage_that_takes_the_oracle(self, stage, what, kind, role):
        stages = {"pre": NATIVE_REGISTRY["identity"], "post": NATIVE_REGISTRY["identity"],
                  role: stage}
        problem = f"stage '{role}' ({what}) takes the oracle, which only an OTM stage may"
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            ReductionWitness(name="w", kind=kind, source="PP", target="PP", **stages)

    def test_a_one_argument_native_as_the_otm_stage(self):
        problem = ("stage 'otm' (identity) takes no oracle; "
                   "a native OTM stage is func(x, oracle)")
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            ReductionWitness(name="w", kind="OTM", source="PP", target="PP",
                             otm=NATIVE_REGISTRY["identity"])

    def test_a_program_without_a_miracle_state_may_be_the_otm_stage(self):
        # it never consults the oracle, which an OTM procedure may do
        assert PLAIN_PROGRAM.miracle_state is None
        ReductionWitness(name="w", kind="OTM", source="ZERO", target="PP",
                         otm=PLAIN_PROGRAM)

    @pytest.mark.parametrize("key, source, target, bad", [
        ("source_relation", "PPX", "PP", "'PPX'"),
        ("target_relation", "PP", "ZLX", "'ZLX'"),
        ("target_relation", "PP", ["ZL"], "['ZL']"),
    ], ids=["source", "target", "unhashable"])
    def test_an_unknown_relation(self, key, source, target, bad):
        problem = f"{key} {bad} is not a known relation"
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            ReductionWitness(name="w", kind="soW", source=source, target=target,
                             pre=NATIVE_REGISTRY["identity"],
                             post=NATIVE_REGISTRY["identity"])


MANIFESTS = sorted(witness_path("").glob("*.json")) + sorted(
    (Path(__file__).resolve().parent.parent / "perfbench" / "reject").glob("*.json"))


@pytest.mark.parametrize("path", MANIFESTS, ids=[p.name for p in MANIFESTS])
def test_every_shipped_and_benchmark_manifest_builds(path):
    witness = load_witness_manifest(path)
    assert witness.name == json.loads(path.read_text()).get("name", path.stem)


class TestManifests:
    def test_shipped_assembly_manifests_load_and_pass(self):
        for name in ("zero_le_pp2.json", "pp_le_zl.json"):
            w = load_witness_manifest(witness_path(name))
            report = verify_reduction(w, U3, cap=2_000, seed=3)
            assert report.ok, report.to_json()

    def test_manifest_roundtrip_via_file(self, tmp_path):
        manifest = {
            "name": "local_pp_le_zl",
            "kind": "soW",
            "source_relation": "PP",
            "target_relation": "ZL",
            "pre": "native:discrete-poset",
            "post": "native:identity",
        }
        path = tmp_path / "w.json"
        path.write_text(json.dumps(manifest))
        w = load_witness_manifest(path)
        assert w.kind == "soW" and w.pre.name == "discrete-poset"

    @pytest.mark.parametrize("kind, stages, problem", [
        ("soW", {"pre": "identity", "post": "identity", "otm": "pp-from-wo-otm"},
         "soW witnesses take no stage 'otm'"),
        ("oW", {"pre": "identity"}, "oW witnesses need stage 'post'"),
        ("OTM", {"pre": "identity", "otm": "pp-from-wo-otm"},
         "OTM witnesses take no stage 'pre'"),
        ("OTM", {}, "OTM witnesses need stage 'otm'"),
    ])
    def test_a_witness_holds_exactly_the_stages_its_kind_runs(self, kind, stages,
                                                              problem):
        stages = {key: NATIVE_REGISTRY[name] for key, name in stages.items()}
        with pytest.raises(ValueError, match=f"^{problem}$"):
            ReductionWitness(name="w", kind=kind, source="PP", target="PP", **stages)

    def test_an_oW_identity_post_stage_reads_the_pair_as_native_and_as_program(
            self, tmp_path):
        # the identity, native or on codes, returns kpair(y, x), which solves
        # no PP instance
        reports = []
        for post in ("native:identity", f"file:{witness_path('pp_le_zl_post.otm')}"):
            path = tmp_path / "identity_post.json"
            path.write_text(json.dumps({
                "kind": "oW", "source_relation": "PP", "target_relation": "ZL",
                "pre": "native:discrete-poset", "post": post,
            }))
            reports.append(verify_reduction(load_witness_manifest(path), U2))
        native, program = reports
        assert native.to_json() == program.to_json()
        assert (native.mode, native.cases, len(native.failures)) == ("exhaustive", 6, 6)
        for f in native.failures:
            assert f.reason in {f"result {kpair(y, f.instance)} fails PP"
                                for y in f.instance.elements}

    def test_unknown_manifest_key_rejected_by_name(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({
            "name": "misspelt", "kind": "soW", "source_relation": "PP",
            "target_relation": "ZL", "pre": "native:discrete-poset",
            "psot": "native:identity",
        }))
        with pytest.raises(ValueError, match="unknown key 'psot'"):
            load_witness_manifest(path)

    def test_unknown_native_rejected(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({
            "name": "bad", "kind": "soW", "source_relation": "PP",
            "target_relation": "ZL", "pre": "native:nope", "post": "native:identity",
        }))
        with pytest.raises(ValueError):
            load_witness_manifest(path)
