import collections
import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from otmlab.errors import ParseError, RepresentationOverflow
from otmlab.ordinals import (
    OMEGA,
    ONE,
    Ordinal,
    ZERO,
    add,
    compare,
    format_ordinal,
    from_int,
    godel_pair,
    godel_unpair,
    mul,
    omega_power,
    pair_rank,
    parse_ordinal,
    sub_left,
    succ,
)

W = OMEGA
W2 = mul(W, W)


def o(text):
    return parse_ordinal(text)


def from_tuple(t):
    """Oracle tuple -> package ordinal."""
    value = ZERO
    for pos, coeff in enumerate(t):
        power = len(t) - 1 - pos
        if coeff:
            value = add(value, mul(omega_power(from_int(power)), from_int(coeff)))
    return value


def from_nested(t):
    """Nested-tuple oracle ordinal -> package ordinal."""
    value = ZERO
    for (a, b), coeff in t:
        exp = add(mul(W, from_int(a)), from_int(b))
        value = add(value, mul(omega_power(exp), from_int(coeff)))
    return value


def to_nested(x):
    """Package ordinal below w^(w^2) -> nested-tuple oracle ordinal."""
    terms = []
    for exp, coeff in x.terms:
        parts = {e.to_int(): c for e, c in exp.terms}
        assert set(parts) <= {0, 1}
        terms.append(((parts.get(1, 0), parts.get(0, 0)), coeff))
    return tuple(terms)


class TestCompare:
    def test_identity(self):
        assert compare(ZERO, ZERO) == 0

    def test_omega_exceeds_naturals(self):
        assert compare(W, from_int(3)) == 1

    def test_w2_plus_1_vs_w_times_5(self):
        assert compare(o("w^2+1"), o("w*5")) == 1

    def test_total_order_matches_tuple_oracle(self):
        vals = oracles.all_tuple_ordinals_below_w3()
        for a, b in itertools.product(vals, vals):
            assert compare(from_tuple(a), from_tuple(b)) == oracles.t_compare(a, b)


class TestArithmetic:
    def test_left_absorption(self):
        assert add(ONE, W) == W

    def test_add_example(self):
        assert add(o("w*2+3"), o("w+1")) == o("w*3+1")

    def test_mul_by_natural(self):
        assert mul(W, from_int(2)) == o("w*2")

    def test_mul_natural_by_omega(self):
        assert mul(from_int(2), W) == W

    def test_add_agrees_with_oracle(self):
        vals = oracles.all_tuple_ordinals_below_w3()
        for a, b in itertools.product(vals, vals):
            assert from_tuple(oracles.t_add(a, b)) == add(from_tuple(a), from_tuple(b))

    def test_mul_agrees_with_oracle(self):
        vals = oracles.all_tuple_ordinals_below_w3()
        for a, b in itertools.product(vals, vals):
            assert from_tuple(oracles.t_mul(a, b)) == mul(from_tuple(a), from_tuple(b))

    def test_algebraic_laws_below_w3(self):
        # associativity, units, and left distributivity, exhaustively
        vals = [from_tuple(t) for t in oracles.all_tuple_ordinals_below_w3(2)]
        for a in vals:
            assert add(a, ZERO) == a
            assert add(ZERO, a) == a
            assert mul(a, ONE) == a
            assert mul(ONE, a) == a
        for a, b, c in itertools.product(vals, repeat=3):
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))

    def test_mul_associative_sample(self):
        vals = [o("w^2+w"), o("w*3+2"), o("5"), o("w^2*2+1")]
        for a, b, c in itertools.product(vals, repeat=3):
            assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_sub_left_inverts_add(self):
        vals = [from_tuple(t) for t in oracles.all_tuple_ordinals_below_w3(2)]
        for a, b in itertools.product(vals[:32], vals[:32]):
            assert sub_left(add(a, b), a) == b


class TestNestedOracle:
    """Exponents up to w*2+3: the CNF terms of both operands often share an
    exponent, so this covers order keys that share a prefix as well as keys
    that first differ inside an exponent."""

    PAIRS = 3000

    def test_roundtrip(self):
        rng = random.Random(5)
        for _ in range(200):
            t = oracles.n_random(rng)
            assert to_nested(from_nested(t)) == t

    def test_arithmetic_agrees_on_seeded_pairs(self):
        """compare, add (which absorbs a whose leading exponent lies below
        b's), succ and sub_left, on pairs where b's leading exponent is
        larger than, equal to and smaller than a's."""
        rng = random.Random(20261018)
        kinds = collections.Counter()
        one = (((0, 0), 1),)
        for _ in range(self.PAIRS):
            ta, tb = oracles.n_random_pair(rng)
            a, b = from_nested(ta), from_nested(tb)
            want = oracles.n_compare(ta, tb)
            assert compare(a, b) == want
            assert compare(b, a) == -want
            assert to_nested(add(a, b)) == oracles.n_add(ta, tb)
            assert to_nested(succ(a)) == oracles.n_add(ta, one)
            assert succ(a) is add(a, ONE)
            if want == 0:
                kinds["equal"] += 1
            elif ta and tb and ta[0][0] == tb[0][0]:
                kinds["shared exponent"] += 1
            if ta and tb:
                lead = oracles.n_compare(tb[0][0], ta[0][0])
                kinds[("smaller", "equal", "larger")[lead + 1] + " lead"] += 1
            kinds["limit"] += a.is_limit
            # sub_left: r is right iff b + r = a (left cancellation)
            big, small = (ta, tb) if want >= 0 else (tb, ta)
            r = sub_left(from_nested(big), from_nested(small))
            assert oracles.n_add(small, to_nested(r)) == big
            if want != 0:
                with pytest.raises(ValueError):
                    sub_left(from_nested(small), from_nested(big))
        assert kinds["equal"] > 300 and kinds["shared exponent"] > 300, kinds
        assert kinds["larger lead"] > 300 and kinds["smaller lead"] > 250, kinds
        assert kinds["equal lead"] > 300 and kinds["limit"] > 300, kinds


class TestCnfOracle:
    """compare, the rich comparisons and sorted against the recursive CNF
    order, on seeded towers up to w^(w^(w^3)): beyond TestNestedOracle's
    range below w^(w^2), and with many pairs that are equal or differ only in
    a coefficient or a term deep inside an exponent."""

    @staticmethod
    def random_ordinal(rng, depth):
        if depth == 0 or rng.random() < 0.2:
            return from_int(rng.randrange(4))
        exponents = {
            TestCnfOracle.random_ordinal(rng, depth - 1)
            for _ in range(rng.randint(1, 3))
        }
        order = sorted(exponents, key=functools.cmp_to_key(oracles.cnf_compare))
        return Ordinal(tuple((e, rng.randint(1, 2)) for e in reversed(order)))

    def test_order_agrees_with_recursive_cnf_compare(self):
        rng = random.Random(20261018)
        pool = [self.random_ordinal(rng, 3) for _ in range(250)]
        assert any(
            oracles.cnf_compare(x, omega_power(omega_power(W))) >= 0 for x in pool
        )
        kinds = {"equal": 0, "same exponents": 0}
        for a, b in itertools.product(pool, pool):
            want = oracles.cnf_compare(a, b)
            assert compare(a, b) == want
            assert (a < b, a <= b, a > b, a >= b) == (
                want < 0, want <= 0, want > 0, want >= 0
            )
            if want == 0:
                kinds["equal"] += 1
            elif [e for e, _ in a.terms] == [e for e, _ in b.terms]:
                kinds["same exponents"] += 1
        assert all(count > 500 for count in kinds.values()), kinds
        by_oracle = sorted(pool, key=functools.cmp_to_key(oracles.cnf_compare))
        assert sorted(pool) == by_oracle


class TestGodelPairing:
    def test_least_pair(self):
        assert godel_pair(ZERO, ZERO) == ZERO

    def test_natural_closed_forms(self):
        assert godel_pair(from_int(2), from_int(1)) == from_int(7)
        assert godel_unpair(from_int(5)) == (from_int(1), from_int(2))

    def test_pair_omega_zero(self):
        # pairs below shell w have order type w; (w,0) heads the w-shell's
        # second half, so it lands at w + w
        assert godel_pair(W, ZERO) == o("w*2")

    def test_natural_pairing_is_the_enumeration(self):
        for a in range(12):
            for b in range(12):
                assert (
                    godel_pair(from_int(a), from_int(b)).to_int()
                    == oracles.natural_pair_index(a, b)
                )

    def test_shell_bijectivity(self):
        for n in (1, 5, 30):
            hits = {
                godel_pair(from_int(a), from_int(b)).to_int()
                for a in range(n)
                for b in range(n)
            }
            assert hits == set(range(n * n))

    def test_monotone_on_transfinite_grid(self):
        # the pairing must be an order isomorphism: strictly increasing in
        # the (max, a, b)-lexicographic pair order
        grid = [add(mul(W, from_int(i)), from_int(j)) for i in range(5) for j in range(5)]
        pairs = [(a, b) for a in grid for b in grid]
        pairs.sort(key=lambda p: (max(p[0], p[1]), p[0], p[1]))
        codes = [godel_pair(a, b) for a, b in pairs]
        for prev, cur in zip(codes, codes[1:]):
            assert compare(prev, cur) < 0

    def test_unpair_inverts_on_transfinite_grid(self):
        grid = [add(mul(W, from_int(i)), from_int(j)) for i in range(8) for j in range(8)]
        for a in grid:
            for b in grid:
                assert godel_unpair(godel_pair(a, b)) == (a, b)

    def test_unpair_inverts_below_w_to_w_with_large_coefficients(self):
        rng = random.Random(20261019)

        def draw():
            powers = sorted(rng.sample(range(6), rng.randint(0, 4)), reverse=True)
            return Ordinal(tuple((from_int(p), rng.randint(1, 1000)) for p in powers))

        for _ in range(300):
            a, b = draw(), draw()
            assert godel_unpair(godel_pair(a, b)) == (a, b)
            # the pairing is onto: every ordinal below w^w is a code
            c = draw()
            assert godel_pair(*godel_unpair(c)) is c

    def test_unpair_beyond_w_to_w_rejected(self):
        huge = omega_power(omega_power(from_int(2)))
        with pytest.raises(RepresentationOverflow):
            godel_unpair(huge)

    def test_pair_rank_normal_values(self):
        assert pair_rank(W) == W
        assert pair_rank(o("w*2")) == W2
        assert pair_rank(W2) == o("w^3")

    # up to w^(w^w): exponents that are limits reach pair_rank's limit branch
    TOWER = [o(t) for t in (
        "0", "1", "5", "w", "w+3", "w*2", "w^2", "w^3+w", "w^w", "w^w+1", "w^w*2",
        "w^(w+1)", "w^(w+1)*2+3", "w^(w*2)", "w^(w*2)+w^w", "w^(w^2)", "w^(w^3+1)",
        "w^(w^w)",
    )]

    def test_monotone_up_to_w_to_the_w_to_the_w(self):
        pairs = sorted(((a, b) for a in self.TOWER for b in self.TOWER),
                       key=lambda p: (max(p), p[0], p[1]))
        codes = [godel_pair(a, b) for a, b in pairs]
        assert all(compare(prev, cur) < 0 for prev, cur in zip(codes, codes[1:]))

    def test_pair_rank_successor_step_up_to_w_to_the_w_to_the_w(self):
        # the shell of max alpha holds (a, alpha) for a < alpha, then (alpha, b)
        # for b <= alpha: alpha*2 + 1 pairs
        for alpha in self.TOWER:
            assert pair_rank(succ(alpha)) == add(
                add(pair_rank(alpha), mul(alpha, from_int(2))), ONE)


class TestSyntax:
    CANONICAL = ["0", "5", "w", "w^2*3+w*2+7", "w^(w+1)", "w^w", "w^3+1",
                 "w*2", "w^(w^2+w*2)*4+w^5*2+3"]

    @staticmethod
    def assert_text(value):
        """The text is the CNF-tuple oracle's, parses back to the value, and
        is built once."""
        text = format_ordinal(value)
        assert text == oracles.cnf_text(oracles.to_cnf(value))
        assert parse_ordinal(text) is value
        assert format_ordinal(value) is text

    def test_roundtrip_exact(self):
        for text in self.CANONICAL:
            assert format_ordinal(parse_ordinal(text)) == text
            self.assert_text(parse_ordinal(text))

    def test_parse_errors_carry_spans(self):
        for bad in ["w^", "3+", "w*0", "(w", "w^()", "5w"]:
            with pytest.raises(ParseError) as err:
                parse_ordinal(bad)
            assert 1 <= err.value.span.column <= len(bad) + 1

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 9)), max_size=4))
    @settings(max_examples=200)
    def test_print_parse_identity_on_random_ordinals(self, spec):
        value = ZERO
        for power, coeff in spec:
            value = add(value, mul(omega_power(from_int(power)), from_int(coeff)))
        self.assert_text(value)

    def test_interning_makes_equality_identity(self):
        assert parse_ordinal("w^2+3") is parse_ordinal("w^2+3")

    def test_equality_and_hash_are_identity(self):
        """Interned ordinals keep object's identity hash, so hashing a tuple
        of them makes no Python call per ordinal."""
        assert Ordinal.__hash__ is object.__hash__
        assert Ordinal.__eq__ is object.__eq__
        assert parse_ordinal("w+1") is add(OMEGA, ONE)
        assert hash(parse_ordinal("w+1")) == hash(succ(OMEGA))
