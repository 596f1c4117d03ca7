import itertools
import random

import pytest

from otmlab.errors import EmptyWitnessSet, OracleDomainError
from otmlab.formulas import parse_delta0
from otmlab.hfsets import EMPTY, ack_index, hf, kpair, set_union, singleton, universe_rank_le
from otmlab.reductions import builtin_witnesses
from otmlab.relations import (
    PRINCIPLES,
    Canonification,
    ack_order_on,
    check_canonification,
    choice_rules,
    decode_linear_order,
    decode_poset,
    encode_order,
    encode_poset,
    enumerate_canonifications,
    maximal_elements,
    relation_from_formula,
)

SE = singleton(EMPTY)
SSE = singleton(SE)
PAIR01 = hf([EMPTY, SE])
U3 = universe_rank_le(3)
U2 = universe_rank_le(2)


class TestEncodedStructures:
    def test_poset_roundtrip(self):
        f = PAIR01
        order = [(EMPTY, SE)]
        c = encode_poset(f, order)
        decoded = decode_poset(c)
        assert decoded is not None
        assert decoded[0] is f
        assert decoded[1] == frozenset({(EMPTY, SE)})

    def test_poset_rejects_cycles_and_reflexivity(self):
        assert decode_poset(encode_poset(SE, [(EMPTY, EMPTY)])) is None
        two = PAIR01
        bad = encode_poset(two, [(EMPTY, SE), (SE, EMPTY)])
        assert decode_poset(bad) is None

    def test_poset_requires_transitivity(self):
        three = hf([EMPTY, SE, SSE])
        intransitive = encode_poset(three, [(EMPTY, SE), (SE, SSE)])
        assert decode_poset(intransitive) is None
        chain = encode_poset(three, [(EMPTY, SE), (SE, SSE), (EMPTY, SSE)])
        assert decode_poset(chain) is not None

    def test_linear_order_decode(self):
        elements = [EMPTY, SSE, SE]
        y = encode_order(elements)
        assert decode_linear_order(y, hf(elements)) == elements

    def test_ack_order_is_a_well_order(self):
        for x in U3:
            assert decode_linear_order(ack_order_on(x), x) == list(x.elements)

    def test_maximal_structures(self):
        three = hf([EMPTY, SE, SSE])
        pairs = [(EMPTY, SE)]
        assert set(maximal_elements(three, pairs)) == {SE, SSE}
        chains = PRINCIPLES["HMP"].witness_set(encode_poset(three, pairs))
        assert hf([EMPTY, SE]) in chains and singleton(SSE) in chains
        assert len(chains) == 2


class TestCatalog:
    def test_pp_examples(self):
        PP = PRINCIPLES["PP"]
        good = Canonification({x: x.elements[0] for x in U3 if PP.domain(x)})
        ok, _ = check_canonification(good, PP, U3)
        assert ok
        bad = Canonification({x: EMPTY for x in U3 if PP.domain(x)})
        ok, cex = check_canonification(bad, PP, U3)
        assert not ok and cex is SSE  # {} is not a member of {{{}}}
        # a domain instance the mapping leaves out fails, even where {} would
        # be a witness
        partial = Canonification({x: y for x, y in good.mapping.items() if x is not SE})
        assert check_canonification(partial, PP, U3) == (False, SE)

    def test_a_canonification_is_undefined_off_its_mapping(self):
        with pytest.raises(OracleDomainError, match=r"^canonification undefined at \{\{\}\}$"):
            Canonification({})(SE)

    def test_pp_matrix_matches_predicate(self):
        from otmlab.logic import eval_delta0

        PP = PRINCIPLES["PP"]
        for x in U3:
            for y in universe_rank_le(2):
                assert eval_delta0(PP.matrix, {"x": x, "y": y}) == PP.satisfied(x, y)

    def test_wo_ack_order_canonification(self):
        WO = PRINCIPLES["WO"]
        canon = Canonification({x: ack_order_on(x) for x in U3})
        ok, _ = check_canonification(canon, WO, U3)
        assert ok

    def test_wo_witness_sets_are_the_permutations(self):
        import math

        WO = PRINCIPLES["WO"]
        for x in U3:
            ws = WO.witness_set(x)
            assert len(ws) == math.factorial(len(x))
            for y in ws:
                assert WO.holds(x, y)

    def test_ac_on_the_rank3_families(self):
        AC = PRINCIPLES["AC"]
        families = [x for x in U3 if AC.domain(x)]
        assert len(families) == 5
        for fam in families:
            for y in AC.witness_set(fam):
                assert AC.holds(fam, y)

    def test_zl_discrete_poset(self):
        ZL = PRINCIPLES["ZL"]
        inst = kpair(PAIR01, EMPTY)
        assert ZL.domain(inst)
        assert set(ZL.witness_set(inst)) == {EMPTY, SE}
        assert ZL.holds(inst, SE)
        assert not ZL.holds(inst, SSE)

    def test_zl_two_antichain_has_two_canonifications(self):
        inst = kpair(PAIR01, EMPTY)  # discrete 2-antichain
        mode, canons, size = enumerate_canonifications(
            PRINCIPLES["ZL"], [inst], cap=100, seed=0, sample_size=0
        )
        assert mode == "exhaustive" and size == 2 and len(canons) == 2

    def test_hmp_chain_poset(self):
        HMP = PRINCIPLES["HMP"]
        three = hf([EMPTY, SE, SSE])
        chain = encode_poset(three, [(EMPTY, SE), (SE, SSE), (EMPTY, SSE)])
        ws = HMP.witness_set(chain)
        assert ws == [three]  # the whole chain is the unique maximal chain
        assert HMP.holds(chain, three)
        assert not HMP.holds(chain, hf([EMPTY, SE]))

    def test_muc_accepts_transversals(self):
        MuC, AC = PRINCIPLES["MuC"], PRINCIPLES["AC"]
        for fam in (x for x in U3 if AC.domain(x)):
            for y in AC.witness_set(fam):
                assert MuC.holds(fam, y)

    def test_zero(self):
        Z = PRINCIPLES["ZERO"]
        assert Z.holds(SSE, EMPTY) and not Z.holds(SSE, SE)


def _catalog_instances(name):
    """Domain instances of a principle: the rank-<=3 ones and every pre-image
    a shipped single-use witness hands to it as its target."""
    relation = PRINCIPLES[name]
    found = {x for x in U3 if relation.domain(x)}
    for w in builtin_witnesses().values():
        if w.kind == "OTM" or w.target != name:
            continue
        source = PRINCIPLES[w.source]
        for x in U3:
            if source.domain(x):
                q = w.pre(x)
                if relation.domain(q):
                    found.add(q)
    return found


def _pair_set_answers(name, x):
    """For principles whose answers are sets of Kuratowski pairs: every set of
    candidate pairs, with and without a junk pair from outside the field, on
    instances with at most 4 field elements (none for the other principles)."""
    if name == "WO" and len(x) <= 4:
        pairs = [kpair(a, b) for a in x.elements for b in x.elements if a is not b]
    elif name == "ACprime" and len(x) + len(set_union(x)) <= 4:
        pairs = [kpair(z, e) for z in x.elements for e in set_union(x).elements]
    else:
        return []
    pairs.append(kpair(x, x))
    return [
        hf(combo)
        for r in range(len(pairs) + 1)
        for combo in itertools.combinations(pairs, r)
    ]


@pytest.mark.parametrize("name", sorted(PRINCIPLES))
def test_witness_set_is_exactly_the_solutions(name):
    # A verdict quantifies over witness_set(q) but judges answers with holds:
    # it is exact only if the two agree.  Answers tried: every rank-<=3 set,
    # every witness, and every witness extended by one rank-<=2 set.
    relation = PRINCIPLES[name]
    for x in _catalog_instances(name):
        witnesses = relation.witness_set(x)
        answers = set(U3) | set(witnesses) | set(_pair_set_answers(name, x))
        answers.update(hf(y.elements + (s,)) for y in witnesses for s in U2)
        accepted = {y for y in answers if relation.holds(x, y)}
        assert set(witnesses) == accepted, (name, x)


class TestEnumeration:
    def test_product_counts(self):
        PP = PRINCIPLES["PP"]
        mode, canons, size = enumerate_canonifications(
            PP, [SE, PAIR01], cap=100, seed=0, sample_size=0
        )
        assert mode == "exhaustive" and size == 2 and len(canons) == 2

    def test_empty_instance_set(self):
        mode, canons, size = enumerate_canonifications(
            PRINCIPLES["PP"], [], cap=10, seed=0, sample_size=0
        )
        assert mode == "exhaustive" and len(canons) == 1 and size == 1
        assert canons[0].mapping == {}

    def test_off_domain_instances_skipped(self):
        mode, canons, _ = enumerate_canonifications(
            PRINCIPLES["PP"], [EMPTY, SE], cap=10, seed=0, sample_size=0
        )
        assert len(canons) == 1
        assert canons[0].mapping == {SE: EMPTY}

    def test_sampling_with_extremals(self):
        PP = PRINCIPLES["PP"]
        instances = [x for x in U3 if PP.domain(x)]
        mode, canons, size = enumerate_canonifications(
            PP, instances, cap=10, seed=3, sample_size=7
        )
        assert mode == "sampled"
        assert size > 10
        assert len(canons) == 9
        assert canons[0].label == "extremal-min"
        # deterministic for a fixed seed
        again = enumerate_canonifications(PP, instances, cap=10, seed=3, sample_size=7)
        assert [c.mapping for c in again[1]] == [c.mapping for c in canons]

    def test_empty_witness_set_raises(self):
        never = relation_from_formula(
            "never", parse_delta0("y in x & x in y")
        )
        with pytest.raises(EmptyWitnessSet):
            enumerate_canonifications(never, [SE], cap=10, seed=0, sample_size=0)


class TestAnswers:
    def test_answers_are_the_witness_set_in_ackermann_order(self):
        for relation in PRINCIPLES.values():
            for x in (x for x in U3 if relation.domain(x)):
                ws = relation.witness_set(x)
                assert relation.answers(x) == sorted(set(ws), key=ack_index)

    def test_no_answer_raises(self):
        never = relation_from_formula(
            "never", parse_delta0("y in x & x in y")
        )
        with pytest.raises(EmptyWitnessSet) as err:
            never.answers(SE)
        assert err.value.instance is SE

    def test_choice_rules(self):
        ws = [EMPTY, SE, SSE]
        rules = choice_rules(3, seed=5)
        assert [label for label, _ in rules] == [
            "extremal-min", "extremal-max", "sample[0]", "sample[1]", "sample[2]"
        ]
        assert [choose(ws) for _, choose in rules[:2]] == [EMPTY, SSE]
        # the samples draw from one random.Random(seed), in call order
        rng = random.Random(5)
        assert [choose(ws) for _, choose in rules[2:]] == [rng.choice(ws) for _ in range(3)]

    def test_sampled_canonifications_draw_sample_major_in_instance_order(self):
        PP = PRINCIPLES["PP"]
        instances = [x for x in U3 if PP.domain(x)]
        _, canons, _ = enumerate_canonifications(
            PP, instances, cap=10, seed=3, sample_size=4
        )
        rng = random.Random(3)
        for canon in canons[2:]:
            assert [canon(x) for x in instances] == [
                rng.choice(PP.answers(x)) for x in instances
            ]


class TestFormulaRelations:
    def test_r_psi(self):
        member = relation_from_formula("member", parse_delta0("y in x"))
        assert member.holds(SE, EMPTY)
        assert not member.holds(SE, SE)
        assert member.witness_set(SE) == [EMPTY]
