import random

import pytest

from oracles import frozen_pair, frozen_text, to_frozen
from otmlab.codes import decode, encode
from otmlab.errors import ParseError, RepresentationOverflow
from otmlab.hfsets import (
    EMPTY,
    HfSet,
    ack_compare,
    ack_enumerate,
    ack_index,
    ack_sorted,
    format_set,
    hf,
    kpair,
    kpair_parts,
    pairs_of,
    parse_set_literal,
    rank,
    set_difference,
    set_union,
    singleton,
    tc,
    universe_rank_le,
)

SE = singleton(EMPTY)
SSE = singleton(SE)
PAIR01 = hf([EMPTY, SE])


class TestAckermann:
    def test_empty_is_zero(self):
        assert ack_index(EMPTY) == 0

    def test_pair_is_three(self):
        assert ack_index(PAIR01) == 3  # 2**0 + 2**1

    def test_enumerate_inverts_index_rank3(self):
        for x in universe_rank_le(3):
            assert ack_enumerate(ack_index(x)) is x

    def test_enumerate_inverts_index_random_rank4(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randrange(65536)
            assert ack_index(ack_enumerate(n)) == n

    def test_compare_matches_indices(self):
        xs = universe_rank_le(3)
        pairs = [(a, b) for a in xs for b in xs]
        rng = random.Random(13)
        rank4 = [ack_enumerate(rng.randrange(16, 65536)) for _ in range(4000)]
        pairs += zip(rank4[::2], rank4[1::2])
        # rank-5 families that share their largest elements: a base of six
        # rank-4 sets, the base less each one, and the base plus a small set
        rank5 = []
        for _ in range(40):
            base = rng.sample(rank4, 6)
            family = [hf(base), hf(base + [rng.choice(xs)])]
            family += [hf(base[:i] + base[i + 1 :]) for i in range(6)]
            pairs += [(a, b) for a in family for b in family]
            rank5 += family
        assert {rank(x) for x in rank5} == {5}
        pairs += zip(rank5, reversed(rank5))
        for a, b in pairs:
            ia, ib = ack_index(a), ack_index(b)
            assert ack_compare(a, b) == (ia > ib) - (ia < ib)
        mixed = xs + rank4 + rank5
        rng.shuffle(mixed)
        assert ack_sorted(mixed) == sorted(mixed, key=ack_index)

    def test_elements_stored_in_ack_order(self):
        rng = random.Random(9)
        for _ in range(50):
            x = ack_enumerate(rng.randrange(65536))
            indices = [ack_index(e) for e in x.elements]
            assert indices == sorted(indices)

    def test_deep_chain_overflows(self):
        x = EMPTY
        with pytest.raises(RepresentationOverflow):
            for _ in range(8):
                x = singleton(x)
                ack_index(x)


class TestTransitiveClosure:
    def test_empty(self):
        assert tc(EMPTY) is EMPTY

    def test_unfold_one_level(self):
        assert tc(SSE) is hf([EMPTY, SE])

    def test_transitive_and_minimal(self):
        rng = random.Random(11)
        for _ in range(100):
            x = ack_enumerate(rng.randrange(65536))
            closure = tc(x)
            # transitive: every element's elements are inside
            for y in closure.elements:
                for z in y.elements:
                    assert z in closure
            # contains the elements of x
            for y in x.elements:
                assert y in closure
            # minimal: fixed point of one unfolding step
            again = hf(
                list(closure.elements)
                + [z for y in closure.elements for z in y.elements]
            )
            assert again is closure


class TestStructure:
    def test_extensional_identity(self):
        assert hf([SE, EMPTY, SE]) is PAIR01

    def test_rank(self):
        assert rank(EMPTY) == 0
        assert rank(PAIR01) == 2
        assert rank(SSE) == 2

    def test_kuratowski_roundtrip(self):
        xs = universe_rank_le(2)
        for a in xs:
            for b in xs:
                assert kpair_parts(kpair(a, b)) == (a, b)

    def test_kpair_rejects_non_pairs(self):
        assert kpair_parts(PAIR01) is None
        assert kpair_parts(EMPTY) is None

    def test_pairs_of_reads_every_set_of_rank_4_as_defined(self):
        """On every set of rank <= 4: the (a, b) of each member, in order, or
        None when some member is not a pair.  Each member has rank <= 3, so
        the oracle reads each of the 16 such sets once."""
        want_of = {m: frozen_pair(to_frozen(m)) for m in universe_rank_le(3)}
        read = 0
        for r in universe_rank_le(4):
            want = [want_of[m] for m in r.elements]
            got = pairs_of(r)
            if None in want:
                assert got is None, r
            else:
                assert [(to_frozen(a), to_frozen(b)) for a, b in got] == want, r
                read += 1
        # the pairs of rank <= 3 are (a, b) for a, b in {0, {0}}
        assert read == 2**4

    def test_union_difference(self):
        fam = hf([PAIR01, SSE])
        assert set_union(fam) is hf([EMPTY, SE])
        assert set_difference(PAIR01, EMPTY) is PAIR01
        assert set_difference(PAIR01, SE) is SSE  # only {} is a member of {{}}
        assert set_difference(PAIR01, singleton(SE)) is SE


class TestLiterals:
    def test_examples(self):
        assert parse_set_literal("{}") is EMPTY
        assert parse_set_literal("{{},{{}}}") is PAIR01

    def test_text_matches_the_oracle_and_is_cached(self):
        """Every set of rank <= 3 and 200 seeded sets of rank 4: the text is
        the frozenset oracle's, parses back to the set, and is built once."""
        rng = random.Random(21)
        rank4 = [ack_enumerate(rng.randrange(16, 65536)) for _ in range(200)]
        for x in universe_rank_le(3) + rank4:
            text = format_set(x)
            assert text == frozen_text(to_frozen(x))
            assert parse_set_literal(text) is x
            assert format_set(x) is text

    def test_whitespace_tolerated(self):
        assert parse_set_literal(" { {} , { {} } } ") is PAIR01

    def test_errors(self):
        for bad in ["", "{", "{}}", "{,}", "{{}", "x"]:
            with pytest.raises(ParseError):
                parse_set_literal(bad)


class TestUniverse:
    def test_rank_layers(self):
        assert len(universe_rank_le(0)) == 1
        assert len(universe_rank_le(1)) == 2
        assert len(universe_rank_le(2)) == 4
        assert len(universe_rank_le(3)) == 16
        for x in universe_rank_le(3):
            assert rank(x) <= 3


class TestInterning:
    """Equal sets are one object, so identity is the equality of dicts and sets."""

    U3 = universe_rank_le(3)

    def test_every_construction_returns_the_interned_set(self):
        rng = random.Random(5)
        for x in self.U3:
            members = list(x.elements) * 2
            rng.shuffle(members)
            assert hf(members) is x
            assert parse_set_literal(format_set(x)) is x
            assert decode(encode(x)) is x

    def test_membership_agrees_with_frozensets(self):
        def rebuild(fz):
            return hf(rebuild(e) for e in fz)

        keys = self.U3[::3]
        as_set = set(keys)
        as_dict = {x: i for i, x in enumerate(keys)}
        frozen_keys = {to_frozen(x) for x in keys}
        for y in self.U3:
            fy = to_frozen(y)
            fresh = rebuild(fy)
            assert fresh is y
            expect = fy in frozen_keys
            assert (y in as_set) == expect and (fresh in as_set) == expect
            assert (fresh in as_dict) == expect
            for x in self.U3:
                assert (y in x) == (fy in to_frozen(x))
                assert (x == y) == (to_frozen(x) == fy)

    def test_equality_and_hash_are_identity(self):
        assert HfSet.__eq__ is object.__eq__
        assert HfSet.__hash__ is object.__hash__

    def test_non_sets_are_never_members(self):
        for item in (0, None, "{}", (), frozenset()):
            assert item not in EMPTY
            assert item not in PAIR01

    def test_elements_must_be_sets(self):
        for bad in (0, "{}", frozenset(), []):
            with pytest.raises(TypeError):
                hf([EMPTY, bad])
