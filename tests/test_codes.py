import random
import time

import pytest

from otmlab.codes import (
    SetCode,
    code_from_json,
    code_to_json,
    code_to_tape,
    decode,
    encode,
    encode_with_order,
    is_valid,
    tape_to_code,
)
from otmlab.errors import InvalidCode
from otmlab.hfsets import EMPTY, ack_enumerate, hf, singleton, tc, universe_rank_le
from otmlab.ordinals import OMEGA, from_int, godel_pair

SE = singleton(EMPTY)


def c(bound, *pairs):
    return SetCode(bound=from_int(bound), pairs=frozenset(from_int(p) for p in pairs))


class TestEncode:
    def test_empty(self):
        assert encode(EMPTY) == c(1)

    def test_singleton_empty(self):
        # domain {0:{}, 1:{{}}}, membership {} in {{}} at p(0,1) = 1
        assert encode(SE) == c(2, 1)

    def test_roundtrip_rank3_exhaustive(self):
        for x in universe_rank_le(3):
            assert decode(encode(x)) is x

    def test_roundtrip_random_rank4(self):
        rng = random.Random(5)
        for _ in range(100):
            x = ack_enumerate(rng.randrange(65536))
            assert decode(encode(x)) is x


class TestDecode:
    def test_empty_code(self):
        assert decode(c(1)) is EMPTY

    def test_singleton_code(self):
        assert decode(c(2, 1)) is SE

    def test_not_extensional(self):
        with pytest.raises(InvalidCode) as err:
            decode(c(2))
        assert err.value.reason == "not-extensional"

    def test_ill_founded(self):
        # p(0,0) = 0 makes node 0 a member of itself
        with pytest.raises(InvalidCode) as err:
            decode(c(1, 0))
        assert err.value.reason == "ill-founded"

    def test_pair_out_of_bound(self):
        # p(1,2) = 5 exceeds bound 2
        with pytest.raises(InvalidCode) as err:
            decode(c(2, 1, 5))
        assert err.value.reason == "pair-out-of-bound"

    def test_no_unique_top(self):
        # two components: {} in {{}} twice over, giving two tops
        # nodes: 0,1,2,3 with 0 in 1 (p=1), 2 in 3 (p(2,3)=11)
        code = c(4, 1, 11)
        with pytest.raises(InvalidCode) as err:
            decode(code)
        assert err.value.reason in ("no-unique-top", "not-extensional")

    def test_transfinite_bound(self):
        with pytest.raises(InvalidCode) as err:
            decode(SetCode(bound=OMEGA, pairs=frozenset()))
        assert err.value.reason == "non-finite-bound"

    def test_sparse_code_rejected_without_building_its_nodes(self):
        # with at most len(pairs) nodes holding members, the other nodes all
        # collapse to {}: a huge bound with few pairs is rejected at once
        start = time.perf_counter()
        assert is_valid(c(10**12)) == (False, "not-extensional")
        assert is_valid(c(10**12, 1)) == (False, "not-extensional")
        assert time.perf_counter() - start < 1.0
        # one memberless node more than the pairs allow, at the smallest bound
        assert is_valid(c(3, 1)) == (False, "not-extensional")

    def test_is_valid_mirrors_decode(self):
        ok, reason = is_valid(c(2, 1))
        assert ok and reason is None
        ok, reason = is_valid(c(2))
        assert not ok and reason == "not-extensional"

    def test_a_membership_chain_deeper_than_the_recursion_limit_is_valid(self):
        # node i+1 is the one element of node i, so the collapse descends
        # 1,500 levels from the top, node 0
        chain = [godel_pair(from_int(i + 1), from_int(i)) for i in range(1500)]
        code = SetCode(bound=from_int(1501), pairs=frozenset(chain))
        assert is_valid(code) == (True, None)


class TestCodeIndependence:
    def test_permuted_bijections_decode_equal(self):
        rng = random.Random(17)
        pool = [x for x in universe_rank_le(3)] + [
            ack_enumerate(rng.randrange(65536)) for _ in range(34)
        ]
        for x in pool[:50]:
            domain = list(tc(x).elements) + [x]
            for _ in range(3):
                perm = domain[:]
                rng.shuffle(perm)
                code = encode_with_order(x, perm)
                ok, _ = is_valid(code)
                assert ok
                assert decode(code) is x

    def test_encode_with_order_validates_domain(self):
        with pytest.raises(ValueError):
            encode_with_order(SE, [SE])


class TestMutations:
    def test_mutated_codes_rejected_or_changed(self):
        rng = random.Random(23)
        universe = universe_rank_le(3)
        checked = 0
        while checked < 100:
            x = universe[rng.randrange(len(universe))]
            code = encode(x)
            pairs = set(code.pairs)
            op = rng.choice(["add", "drop", "bound"])
            if op == "add":
                extra = from_int(rng.randrange(0, 30))
                if extra in pairs:
                    continue
                mutated = SetCode(code.bound, frozenset(pairs | {extra}))
            elif op == "drop":
                if not pairs:
                    continue
                victim = rng.choice(sorted(pairs))
                mutated = SetCode(code.bound, frozenset(pairs - {victim}))
            else:
                delta = rng.choice([-1, 1, 2])
                newb = code.bound.to_int() + delta
                if newb < 1:
                    continue
                mutated = SetCode(from_int(newb), code.pairs)
            if mutated == code:
                continue
            checked += 1
            ok, reason = is_valid(mutated)
            if ok:
                assert encode(decode(mutated)) != code or decode(mutated) is not x
            else:
                assert reason in (
                    "not-extensional",
                    "ill-founded",
                    "pair-out-of-bound",
                    "no-unique-top",
                )


class TestTapeLayout:
    def test_tape_roundtrip_rank3(self):
        for x in universe_rank_le(3):
            code = encode(x)
            assert tape_to_code(code_to_tape(code)) == code

    def test_cells_are_exactly_the_pairs(self):
        code = encode(hf([EMPTY, SE]))
        tape = code_to_tape(code)
        for p in code.pairs:
            assert tape.read(p) == 1
        assert tape.read(from_int(100)) == 0

    def test_empty_tape_codes_empty_set(self):
        from otmlab.tapes import EMPTY_TAPE

        assert tape_to_code(EMPTY_TAPE) == c(1)


class TestJson:
    def test_roundtrip(self):
        for x in universe_rank_le(3):
            code = encode(x)
            assert code_from_json(code_to_json(code)) == code

    def test_shape(self):
        import json

        data = json.loads(code_to_json(encode(SE)))
        assert data == {"bound": "2", "pairs": ["1"]}
