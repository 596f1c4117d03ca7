import json
from functools import cmp_to_key

import pytest

import oracles
from otmlab.asm import parse_program
from otmlab.codes import code_to_tape, encode, tape_to_code, decode
from otmlab.errors import (
    MiracleRangeEscape,
    OracleDomainError,
    WitnessExecutionError,
)
from otmlab.hfsets import (
    EMPTY,
    ack_compare,
    format_set,
    hf,
    kpair,
    rank,
    singleton,
    universe_rank_le,
)
from otmlab.machine import RunBudget, run
from otmlab.ordinals import from_int
from otmlab.relations import PRINCIPLES, Canonification
from otmlab.reductions import (
    DEFAULT_CAP,
    NATIVE_REGISTRY,
    PRIMITIVES,
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
    """The soW witness declared as oW: its post stage ignores the instance."""
    return ReductionWitness(
        name=witness.name + "_as_oW", kind="oW", source=witness.source,
        target=witness.target, pre=witness.pre, post=witness.post,
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
            pre=NativeProcedure("counted-pre", 1, counted_pre, ("set-algebra",)),
            post=NativeProcedure("counted-post", 1, counted_post, ("set-algebra",)),
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
            post=NativeProcedure("refuse-one-answer", 1, post, ("set-algebra",)),
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


class TestMiracleProtocol:
    def test_native_iterative_well_ordering(self):
        from otmlab.relations import encode_order

        w = WITNESSES["wo_otm_pp"]
        picks = Canonification({x: x.elements[0] for x in U3 if len(x)})
        y, stats = run_with_miracle(w, lambda s: picks(s), PAIR01)
        assert PRINCIPLES["WO"].holds(PAIR01, y)
        # the Ackermann-least pick orders {} before {{}}, in two oracle calls
        assert y is encode_order([EMPTY, SE])
        assert stats.calls == 2

    def test_program_miracle_replaces_valid_code(self):
        # write the code of {{}} (cell 1) on the miracle tape, enter the
        # miracle state, and halt; the oracle image should replace it
        src = """
        tapes in work out miracle;
        state m0;
        state m1;
        state qm miracle;
        state done halt;
        rule m0 -> move miracle=R goto m1;
        rule m1 -> write miracle=1 goto qm;
        rule qm -> goto done;
        """
        program = parse_program(src)
        witness = ReductionWitness(
            name="probe", kind="OTM", source="ZERO", target="PP",
            otm=program,
        )
        seen = []

        def oracle(s):
            seen.append(s)
            return singleton(s)

        outcome_tape = {}
        y, stats = run_with_miracle(witness, oracle, EMPTY, RunBudget(100, 2))
        assert seen == [SE]
        assert stats.calls == 1
        assert y is EMPTY  # output tape untouched

    def test_program_miracle_ignores_invalid_code(self):
        # cell 0 = p(0,0) makes node 0 a member of itself: not a set code
        src = """
        tapes in work out miracle;
        state m0;
        state qm miracle;
        state done halt;
        rule m0 -> write miracle=1 goto qm;
        rule qm -> goto done;
        """
        program = parse_program(src)
        witness = ReductionWitness(
            name="probe2", kind="OTM", source="ZERO", target="PP", otm=program
        )
        calls = []

        def oracle(s):
            calls.append(s)
            return s

        outcome = run(program, Tape(), RunBudget(100, 2))
        y, stats = run_with_miracle(witness, oracle, EMPTY, RunBudget(100, 2))
        assert calls == []  # nothing further happens
        assert stats.calls == 0
        assert stats.entries == 1

    def test_miracle_never_entered_matches_plain_run(self):
        src = """
        tapes in work out miracle;
        state m0;
        state qm miracle;
        state done halt;
        rule m0 -> write work=1 goto done;
        rule qm -> goto done;
        """
        program = parse_program(src)
        witness = ReductionWitness(
            name="probe3", kind="OTM", source="ZERO", target="PP", otm=program
        )
        y, stats = run_with_miracle(witness, lambda s: s, EMPTY, RunBudget(100, 2))
        plain = run(program, code_to_tape(encode(EMPTY)), RunBudget(100, 2))
        assert stats.entries == 0
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

        with pytest.raises(MiracleRangeEscape):
            run_with_miracle(w, deep_oracle, PAIR01)

    def test_off_domain_oracle_instances_yield_empty_in_sampled_mode(self):
        # a witness that consults the oracle on an off-domain instance (the
        # empty set is outside PP's domain) must see the conventional value
        probe = NATIVE_REGISTRY["identity"]

        def off_domain_probe(x, miracle):
            assert miracle(EMPTY) is EMPTY
            return EMPTY

        witness = ReductionWitness(
            name="offdomain_probe", kind="OTM", source="ZERO", target="PP",
            otm=NativeProcedure("offdomain-probe", 2, off_domain_probe,
                                ("miracle", "set-algebra")),
        )
        # cap 0 forces the sampled fallback path
        report = verify_reduction(witness, U3[:4], cap=0, seed=1, sample_size=3)
        assert report.mode == "sampled"
        assert report.ok, report.to_json()

    def test_sampled_fallback_keeps_exhaustive_counterexamples(self):
        # wrong only on the second Ackermann choice at the 4-element instance;
        # the later choices consult the oracle again, so that instance's
        # choice tree outgrows cap=6 after the counterexample is recorded,
        # and neither extremal rule of the fallback makes the wrong choice
        four = U3[-1]
        three = next(x for x in U3 if len(x) == 3)

        def wrong_on_second_choice(x, miracle):
            y = miracle(x)
            if len(x) == 4:
                options = sorted(PRINCIPLES["PP"].witness_set(x),
                                 key=cmp_to_key(ack_compare))
                if y is options[1]:
                    return x  # not an element of x
                if y in options[2:]:
                    miracle(three)
            return y

        witness = ReductionWitness(
            name="wrong_on_second_choice", kind="OTM", source="PP", target="PP",
            otm=NativeProcedure("wrong-on-second-choice", 2,
                                wrong_on_second_choice, ("miracle",)),
        )
        full = verify_reduction(witness, U3, cap=10_000)
        assert full.mode == "exhaustive" and not full.ok
        capped = verify_reduction(witness, U3, cap=6, seed=1, sample_size=0)
        assert capped.mode == "sampled"
        assert not capped.ok, capped.to_json()
        assert {f.instance for f in capped.failures} == {four}


    def test_the_leaf_that_outgrows_the_cap_is_still_judged(self):
        # two oracle instances with 2 and 3 answers: under cap=4 the fifth
        # leaf of the choice tree is run before the tree is abandoned, and it
        # is the only wrong one; neither extremal rule of the fallback makes
        # its choices
        pp = PRINCIPLES["PP"]
        three = hf([EMPTY, SE, SSE])

        def wrong_on_one_leaf(x, miracle):
            a, b = miracle(PAIR01), miracle(three)
            if a is pp.answers(PAIR01)[-1] and b is pp.answers(three)[1]:
                return x  # not an element of x
            return x.elements[0]

        witness = ReductionWitness(
            name="wrong_on_one_leaf", kind="OTM", source="PP", target="PP",
            otm=NativeProcedure("wrong-on-one-leaf", 2, wrong_on_one_leaf,
                                ("miracle",)),
        )
        capped = verify_reduction(witness, [PAIR01], cap=4, seed=1, sample_size=0)
        assert capped.mode == "sampled"
        assert not capped.ok, capped.to_json()


class TestNativeRegistry:
    def test_all_procedures_use_whitelisted_primitives(self):
        for proc in NATIVE_REGISTRY.values():
            assert proc.uses
            assert set(proc.uses) <= set(PRIMITIVES)

    def test_otm_witnesses_declare_the_miracle_primitive(self):
        for w in WITNESSES.values():
            if w.kind == "OTM":
                assert "miracle" in w.otm.uses


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

    def test_unknown_native_rejected(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({
            "name": "bad", "kind": "soW", "source_relation": "PP",
            "target_relation": "ZL", "pre": "native:nope", "post": "native:identity",
        }))
        with pytest.raises(ValueError):
            load_witness_manifest(path)
