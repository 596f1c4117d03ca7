import collections
import itertools
import math
import random

import pytest

import oracles
from otmlab.errors import EmptyWitnessSet, OracleDomainError
from otmlab.hfsets import (
    EMPTY,
    ack_enumerate,
    ack_index,
    hf,
    kpair,
    set_union,
    singleton,
    universe_rank_le,
)
from otmlab.reductions import builtin_witnesses
from otmlab.relations import (
    PRINCIPLES,
    Canonification,
    Relation,
    check_canonification,
    choice_rules,
    decode_linear_order,
    decode_poset,
    encode_order,
    encode_poset,
    enumerate_canonifications,
)

SE = singleton(EMPTY)
SSE = singleton(SE)
PAIR01 = hf([EMPTY, SE])
U3 = universe_rank_le(3)
U2 = universe_rank_le(2)
# no answer at any instance
NEVER = Relation("never", domain=lambda x: True, holds=lambda x, y: y in x and x in y,
                 candidates=lambda x: x.elements)


@pytest.fixture(scope="module")
def u4():
    return universe_rank_le(4)


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

    def test_the_decoders_accept_exactly_the_strict_orders(self):
        """On fields of up to 5 sets, a poset code decodes iff its relation is
        a strict partial order, to its own pairs; an order decodes iff it is a
        strict linear order, least first."""
        seen = collections.Counter()
        for n, pairs in oracles.relations_to_check():
            els = [ack_enumerate(k) for k in range(n)]
            f = hf(els)
            rel = {(els[a], els[b]) for a, b in pairs}
            code = hf(kpair(a, b) for a, b in rel)
            poset = decode_poset(kpair(f, code))
            assert (poset is not None) == oracles.is_strict_partial_order(range(n), pairs)
            if poset is not None:
                assert poset == (f, rel)
            ordered = decode_linear_order(code, f)
            assert (ordered is not None) == oracles.is_strict_linear_order(range(n), pairs)
            if ordered is not None:
                assert set(itertools.combinations(ordered, 2)) == rel
            seen[n, poset is not None, ordered is not None] += 1
        assert sum(seen.values()) == 1 + 2 + 16 + 512 + 729 + 1024
        # the labelled strict partial orders on n elements number 1, 1, 3, 19,
        # 219 (every one for n <= 4), and the linear ones n!
        assert [seen[n, True, True] for n in range(6)] == [1, 1, 2, 6, 24, 120]
        assert [seen[n, True, False] for n in range(5)] == [0, 0, 1, 13, 195]
        # a pair that leaves the field, at either end, decodes as neither
        for pair in (kpair(EMPTY, SE), kpair(SE, EMPTY)):
            assert decode_poset(kpair(singleton(EMPTY), hf([pair]))) is None
            assert decode_linear_order(hf([pair]), singleton(EMPTY)) is None

    def test_linear_order_decode(self):
        elements = [EMPTY, SSE, SE]
        y = encode_order(elements)
        assert decode_linear_order(y, hf(elements)) == elements

    def test_ack_order_is_a_well_order(self):
        for x in U3:
            assert decode_linear_order(encode_order(list(x.elements)), x) == list(x.elements)

    def test_maximal_structures(self):
        three = hf([EMPTY, SE, SSE])
        pairs = [(EMPTY, SE)]
        assert decode_poset(encode_poset(three, pairs)).maximal() == [SE, SSE]
        chains = PRINCIPLES["HMP"].witness_set(encode_poset(three, pairs))
        assert hf([EMPTY, SE]) in chains and singleton(SSE) in chains
        assert len(chains) == 2


class TestAgainstDefinitions:
    def test_zl_and_hmp_answer_every_small_poset_as_defined(self):
        """On every strict partial order over a field of 0-4 sets of rank <= 2
        (318 posets), ZL's answers are the maximal elements and HMP's the
        maximal chains, as the oracle finds them by their definitions."""
        ZL, HMP = PRINCIPLES["ZL"], PRINCIPLES["HMP"]
        frozen = oracles.to_frozen
        count = chains = 0
        for els, pairs in oracles.strict_partial_orders(U2):
            c = encode_poset(hf(els), pairs)
            field = [frozen(e) for e in els]
            rel = {(frozen(a), frozen(b)) for a, b in pairs}
            maxima = oracles.poset_maximal(field, rel)
            assert [frozen(e) for e in decode_poset(c).maximal()] == [
                e for e in field if e in maxima]
            assert {frozen(y) for y in ZL.witness_set(c)} == maxima
            answers = HMP.witness_set(c)
            assert len(answers) == len(set(answers))
            assert {frozen(y) for y in answers} == oracles.poset_maximal_chains(field, rel)
            count += 1
            chains += len(answers)
        assert count == 318
        assert chains > count

    def test_acprime_holds_exactly_on_choice_functions(self):
        """Each candidate of each rank <= 3 instance, with a member that is no
        pair added, with one pair dropped, with one pair (z, e') added, and
        with one dropped and one added: AC' holds where the oracle finds a
        choice function on the instance."""
        ACP = PRINCIPLES["ACprime"]
        seen = collections.Counter()
        for x in U3:
            extra = [kpair(z, e) for z in x.elements for e in z.elements]
            for y in ACP.candidates(x):
                members = list(y.elements)
                dropped = [hf(members[:i] + members[i + 1:]) for i in range(len(members))]
                added = [hf(list(v.elements) + [p]) for v in [y] + dropped for p in extra]
                for v in [y, hf(members + [EMPTY])] + dropped + added:
                    holds = ACP.holds(x, v)
                    assert holds == oracles.is_choice_function(
                        oracles.to_frozen(x), oracles.to_frozen(v)), (x, v)
                    seen[holds] += 1
        assert seen == {True: 60, False: 70}

    def test_acprime_answers_are_the_choice_functions(self, u4):
        """On the 8 families of rank <= 3 and the 1,224 of rank 4 with at
        most 8 answers (12 and 7,044 answers), AC''s answers are the choice
        functions the oracle builds.  The bound keeps the test near 1 s: the
        2,832 families with at most 16 answers take about four times as long,
        and all 32,768 rank-4 families have 14.9 million answers."""
        ACP, frozen = PRINCIPLES["ACprime"], oracles.to_frozen
        seen = collections.Counter()
        for x in u4:
            if ACP.domain(x) and math.prod(len(z) for z in x.elements) <= 8:
                answers = {frozen(y) for y in ACP.answers(x)}
                assert answers == oracles.choice_functions(frozen(x)), x
                seen[x in U3, "families"] += 1
                seen[x in U3, "answers"] += len(answers)
        assert seen == {(True, "families"): 8, (True, "answers"): 12,
                        (False, "families"): 1224, (False, "answers"): 7044}

    def test_pp_restrictions_and_acprime_have_the_defined_domains(self, u4):
        """On every set of rank <= 4, read through its Ackermann index k,
        whose 1 bits are the indices of its members, {} being bit 0: PP2 asks
        for exactly two members, PP and PPfin for one, and AC' for no empty
        member."""
        P = PRINCIPLES
        for k, x in enumerate(u4):
            assert P["PP2"].domain(x) == (bin(k).count("1") == 2), x
            assert P["PP"].domain(x) == P["PPfin"].domain(x) == (k != 0), x
            assert P["ACprime"].domain(x) == (k % 2 == 0), x


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

    @pytest.mark.parametrize(
        "name", sorted(n for n, r in PRINCIPLES.items() if r.matrix is not None))
    def test_pp_matrix_matches_predicate(self, name):
        from otmlab.logic import eval_delta0

        relation = PRINCIPLES[name]
        for x in U3:
            for y in U2:
                assert eval_delta0(relation.matrix, {"x": x, "y": y}) == relation.satisfied(x, y)

    def test_wo_ack_order_canonification(self):
        WO = PRINCIPLES["WO"]
        canon = Canonification({x: encode_order(list(x.elements)) for x in U3})
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
    candidate pairs, with and without a junk pair from outside the field (for
    AC', also a pair (w, e) with e in w for a w outside the family), on
    instances with at most 4 field elements (none for the other principles)."""
    if name == "WO" and len(x) <= 4:
        pairs = [kpair(a, b) for a in x.elements for b in x.elements if a is not b]
    elif name == "ACprime" and len(x) + len(set_union(x)) <= 4:
        pairs = [kpair(z, e) for z in x.elements for e in set_union(x).elements]
        pairs.append(kpair(singleton(x), x))
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
        with pytest.raises(EmptyWitnessSet):
            enumerate_canonifications(NEVER, [SE], cap=10, seed=0, sample_size=0)


class TestAnswers:
    def test_answers_are_the_witness_set_in_ackermann_order(self):
        for relation in PRINCIPLES.values():
            for x in (x for x in U3 if relation.domain(x)):
                ws = relation.witness_set(x)
                assert relation.answers(x) == sorted(set(ws), key=ack_index)

    def test_no_answer_raises(self):
        with pytest.raises(EmptyWitnessSet) as err:
            NEVER.answers(SE)
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
