import itertools
import random

import pytest

import oracles
from otmlab.errors import Exhausted, RangeEscape, UnboundVariable
from otmlab.formulas import Delta0Formula, parse_delta0, parse_formula
from otmlab.hfsets import EMPTY, ack_enumerate, hf, singleton, universe_rank_le
from otmlab.logic import (
    Carrier,
    check_t_canonification,
    eval_delta0,
    eval_prenex,
    search_witness,
)

SE = singleton(EMPTY)
SSE = singleton(SE)
PAIR01 = hf([EMPTY, SE])


class TestEvalDelta0:
    def test_vacuous_quantification(self):
        f = parse_delta0("all z in x (z in y)")
        assert eval_delta0(f, {"x": EMPTY, "y": EMPTY}) is True

    def test_bounded_all(self):
        f = parse_delta0("all z in x (z in y)")
        assert eval_delta0(f, {"x": SE, "y": PAIR01}) is True

    def test_bounded_ex_false(self):
        f = parse_delta0("ex z in x (z = y)")
        assert eval_delta0(f, {"x": SE, "y": SSE}) is False

    def test_unbound_variable(self):
        f = parse_delta0("x in y")
        with pytest.raises(UnboundVariable):
            eval_delta0(f, {"x": EMPTY})

    def test_agrees_with_naive_oracle_exhaustive(self):
        formulas = oracles.generate_formulas(4)
        values = universe_rank_le(2)
        for f in formulas:
            formula = Delta0Formula.of(f)
            for x in values:
                for y in values:
                    env = {"x": x, "y": y}
                    fenv = {k: oracles.to_frozen(v) for k, v in env.items()}
                    assert eval_delta0(formula, env) == oracles.naive_eval(f, fenv)

    def test_agrees_with_naive_oracle_random(self):
        rng = random.Random(99)
        values = universe_rank_le(3)
        for _ in range(500):
            node = oracles.random_formula(rng, rng.randint(3, 12))
            formula = Delta0Formula.of(node)
            env = {"x": rng.choice(values), "y": rng.choice(values)}
            fenv = {k: oracles.to_frozen(v) for k, v in env.items()}
            assert eval_delta0(formula, env) == oracles.naive_eval(node, fenv)


class TestSearchWitness:
    def test_identity_witness(self):
        psi = parse_delta0("b = a")
        assert search_witness(psi, SE, 100) is SE

    def test_least_superset(self):
        psi = parse_delta0("a in b")
        assert search_witness(psi, EMPTY, 100) is SE

    def test_a_stray_free_variable_is_named(self):
        with pytest.raises(UnboundVariable) as err:
            search_witness(parse_delta0("a in c"), EMPTY, 10)
        assert err.value.name == "c"

    def test_a_formula_without_a_is_searched(self):
        assert search_witness(parse_delta0("b = b"), SE, 10) is EMPTY

    def test_wellfoundedness_excludes_witnesses(self):
        psi = parse_delta0("a in b & b in a")
        with pytest.raises(Exhausted):
            search_witness(psi, SE, 300)

    def test_witness_is_ackermann_minimal(self):
        psi = parse_delta0("a in b")
        for a in universe_rank_le(2):
            found = search_witness(psi, a, 65536)
            k = 0
            while True:
                cand = ack_enumerate(k)
                if a in cand:
                    assert found is cand
                    break
                k += 1


class TestEvalPrenex:
    def test_no_container_in_small_carrier(self):
        s = parse_formula("ALL x EX y (x in y)")
        assert eval_prenex(s, Carrier((EMPTY, SE))) is False

    def test_diagonal(self):
        s = parse_formula("ALL x EX y (y = x)")
        for size in (1, 2, 4):
            carrier = Carrier(tuple(universe_rank_le(2)[:size]))
            assert eval_prenex(s, carrier) is True

    def test_pi4_diagonal(self):
        s = parse_formula("ALL x EX y ALL u EX v (v = u)")
        assert eval_prenex(s, Carrier(tuple(universe_rank_le(2)))) is True

    def test_agrees_with_naive(self):
        rng = random.Random(5)
        carrier_sets = universe_rank_le(2)
        frozen = [oracles.to_frozen(c) for c in carrier_sets]
        statements = [
            "ALL x EX y (x in y)",
            "ALL x EX y (y = x)",
            "ALL x EX y (x in y | y in x)",
            "ALL x EX y ALL u EX v (u in v | v = x | y = y)",
            "ALL x EX y ALL u EX v ((x in y -> u in v) & !(v in u))",
        ]
        for text in statements:
            s = parse_formula(text)
            assert eval_prenex(s, Carrier(tuple(carrier_sets))) == oracles.naive_prenex(
                s, frozen
            )


class TestSCanonification:
    """The superficial check: one function, for the first block."""

    def test_pi2_collapse_to_plain_canonification(self):
        s = parse_formula("ALL x EX y (y = x)")
        carrier = Carrier(tuple(universe_rank_le(2)))
        ok, cex = check_t_canonification(s, [lambda a: a], carrier)
        assert ok and cex is None

    def test_counterexample_reported(self):
        s = parse_formula("ALL x EX y (x in y)")
        carrier = Carrier((EMPTY, SE))
        ok, cex = check_t_canonification(
            s, [lambda a: SE if a is EMPTY else EMPTY], carrier
        )
        assert not ok
        assert cex == (SE,)

    def test_range_escape(self):
        s = parse_formula("ALL x EX y (y = x)")
        carrier = Carrier((EMPTY, SE))
        with pytest.raises(RangeEscape) as info:
            check_t_canonification(s, [lambda a: SSE], carrier)
        assert (info.value.argument, info.value.value) == ((EMPTY,), SSE)

    @pytest.mark.parametrize("count", [0, 3])
    def test_function_count_outside_one_to_n_is_rejected(self, count):
        s = parse_formula("ALL x1 EX y1 ALL x2 EX y2 (y1 = x1 & y2 = x2)")
        functions = [lambda *args: args[-1]] * count
        with pytest.raises(ValueError, match=f"need 1 to 2 functions, got {count}"):
            check_t_canonification(s, functions, Carrier((EMPTY, SE)))


class TestTCanonification:
    def test_n1_equals_s_check(self):
        # with n = 1 the one function is checked on the fully instantiated
        # matrix, the superficial condition: every a has a, F(a) satisfy it
        carrier = Carrier(tuple(universe_rank_le(2)))
        statements = ["ALL x EX y (y = x)", "ALL x EX y (x in y | y = x)"]
        for text in statements:
            s = parse_formula(text)
            for target in carrier:
                func = lambda a, _t=target: a if a is not EMPTY else _t
                t_ok, _ = check_t_canonification(s, [func], carrier)
                s_ok = all(
                    eval_delta0(s.matrix, {"x": a, "y": func(a)}) for a in carrier
                )
                assert s_ok == t_ok

    def test_pi4_diagonal_tuple(self):
        s = parse_formula("ALL x1 EX y1 ALL x2 EX y2 (y1 = x1 & y2 = x2)")
        carrier = Carrier(tuple(universe_rank_le(2)))
        ok, _ = check_t_canonification(s, [lambda a: a, lambda a, b: b], carrier)
        assert ok

    def test_pi4_no_tuple_passes_and_best_counterexample_is_se(self):
        s = parse_formula("ALL x1 EX y1 ALL x2 EX y2 (x1 in y1)")
        values = (EMPTY, SE)
        carrier = Carrier(values)
        # exhaustively: no function tuple passes
        for t1 in itertools.product(values, repeat=2):
            f1 = lambda a, _t=t1: _t[values.index(a)]
            for t2 in itertools.product(values, repeat=4):
                f2 = lambda a, b, _t=t2: _t[values.index(a) * 2 + values.index(b)]
                ok, cex = check_t_canonification(s, [f1, f2], carrier)
                assert not ok
        # with the best possible F1 (sending {} to {{}}), the blocking
        # instance is {{}}: nothing in the carrier contains it
        best = lambda a: SE if a is EMPTY else EMPTY
        ok, cex = check_t_canonification(s, [best, lambda a, b: b], carrier)
        assert not ok
        assert cex == (SE,)

    def test_agrees_with_naive_brute_force(self):
        carrier_sets = tuple(universe_rank_le(1))  # two elements
        carrier = Carrier(carrier_sets)
        statements = [
            "ALL x1 EX y1 ALL x2 EX y2 (y1 = x1 & y2 = x2)",
            "ALL x1 EX y1 ALL x2 EX y2 (x1 in y1 | y2 = x2)",
            "ALL x1 EX y1 ALL x2 EX y2 (x2 in y2 -> y1 = x1)",
        ]
        values = list(carrier_sets)
        f1_choices = list(itertools.product(values, repeat=len(values)))
        f2_choices = list(itertools.product(values, repeat=len(values) ** 2))
        for text in statements:
            s = parse_formula(text)
            for t1 in f1_choices:
                f1 = lambda a, _t=t1: _t[values.index(a)]
                for t2 in f2_choices:
                    f2 = lambda a, b, _t=t2: _t[
                        values.index(a) * len(values) + values.index(b)
                    ]
                    mine, _ = check_t_canonification(s, [f1, f2], carrier)
                    naive = oracles.naive_check_t(s, [f1, f2], list(carrier_sets))
                    assert mine == naive
                # one function checks only the first block
                mine, _ = check_t_canonification(s, [f1], carrier)
                naive = oracles.naive_check_t(s, [f1], list(carrier_sets))
                assert mine == naive

    def test_existence_equivalences(self):
        # eval_prenex true <=> some t-canonification exists <=> some
        # s-canonification exists, via greedy Skolem search
        carrier_sets = tuple(universe_rank_le(2))
        carrier = Carrier(carrier_sets)
        statements = [
            "ALL x EX y (y = x)",
            "ALL x EX y (x in y)",
            "ALL x1 EX y1 ALL x2 EX y2 (y1 = x1 & y2 = x2)",
            "ALL x1 EX y1 ALL x2 EX y2 (x1 in y1)",
            "ALL x1 EX y1 ALL x2 EX y2 (x2 in y2 | y1 = x1)",
        ]
        for text in statements:
            s = parse_formula(text)
            truth = eval_prenex(s, carrier)
            skolem = _skolem_search(s, carrier_sets)
            assert (skolem is not None) == truth
            if skolem is not None:
                ok, _ = check_t_canonification(s, skolem, carrier)
                assert ok
            # the superficial side of the equivalence: some outer witness
            # function passes the s-check iff the statement holds
            s_exists = any(
                check_t_canonification(
                    s, [lambda a, _t=table: _t[carrier_sets.index(a)]], carrier
                )[0]
                for table in itertools.product(
                    carrier_sets, repeat=len(carrier_sets)
                )
            )
            assert s_exists == truth


def _skolem_search(statement, values):
    """Greedy construction of a thorough canonification, or None."""
    from otmlab.logic import _eval_blocks

    blocks = list(statement.blocks)
    n = len(blocks)
    tables = [dict() for _ in range(n)]

    def choose(depth, env, prefix):
        if depth == n:
            return True
        avar, evar = blocks[depth]
        for a in values:
            found = False
            for e in values:
                new_env = {**env, avar: a, evar: e}
                if _eval_blocks(
                    tuple(blocks[depth + 1 :]), statement.matrix,
                    Carrier(tuple(values)), new_env
               ) and choose(depth + 1, new_env, prefix + (a,)):
                    tables[depth][prefix + (a,)] = e
                    found = True
                    break
            if not found:
                return False
        return True

    if not choose(0, {}, ()):
        return None
    out = []
    for d in range(n):
        out.append(lambda *args, _d=d: tables[_d][args])
    return out
