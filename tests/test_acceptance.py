"""Acceptance suite: one criterion per test, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is exact (symbolic equality); the stated time budgets are
asserted against the wall clock.
"""

import itertools
import random
import time

import pytest

import oracles
from otmlab.asm import parse_program
from otmlab.codes import decode, encode, encode_with_order, is_valid, SetCode
from otmlab.formulas import Delta0Formula, parse_formula
from otmlab.hfsets import (
    EMPTY,
    ack_enumerate,
    format_set,
    hf,
    kpair,
    singleton,
    tc,
    universe_rank_le,
)
from otmlab.logic import Carrier, check_t_canonification, eval_delta0, eval_prenex
from otmlab.machine import Halted, RunBudget, Unresolved, initial_configuration, run, step
from otmlab.ordinals import (
    OMEGA,
    ZERO,
    add,
    compare,
    from_int,
    godel_pair,
    godel_unpair,
    mul,
    omega_power,
    parse_ordinal,
)
from otmlab.relations import PRINCIPLES, Canonification, check_canonification
from otmlab.reductions import (
    builtin_witnesses,
    load_witness_manifest,
    verify_reduction,
    witness_path,
)
from otmlab.tapes import Tape

from test_machine import RIGHT_SWEEP, PURE_SWEEP, random_program

W = OMEGA


class _Criterion:
    def __init__(self, number, title, limit_seconds):
        self.number = number
        self.title = title
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"\nACCEPTANCE {self.number}: {status} - {self.title} "
            f"({elapsed:.1f}s / limit {self.limit}s)"
        )
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget "
                f"({elapsed:.1f}s)"
            )
        return False


def from_tuple(t):
    value = ZERO
    for pos, coeff in enumerate(t):
        power = len(t) - 1 - pos
        if coeff:
            value = add(value, mul(omega_power(from_int(power)), from_int(coeff)))
    return value


def test_criterion_1_ordinal_arithmetic():
    with _Criterion(1, "add/mul/compare agree with the order-type oracle "
                       "on all pairs below w^3, coefficients <= 3", 10):
        tuples = oracles.all_tuple_ordinals_below_w3(3)
        values = [(t, from_tuple(t)) for t in tuples]
        checked = 0
        for (ta, a), (tb, b) in itertools.product(values, values):
            assert compare(a, b) == oracles.t_compare(ta, tb)
            assert add(a, b) == from_tuple(oracles.t_add(ta, tb))
            assert mul(a, b) == from_tuple(oracles.t_mul(ta, tb))
            checked += 1
        assert checked == 64 * 64


def test_criterion_2_godel_pairing():
    with _Criterion(2, "pairing bijects shells n <= 100 onto n^2 and "
                       "inverts on a 200x200 grid below w^2", 5):
        n = 100
        codes = set()
        for a in range(n):
            for b in range(n):
                c = godel_pair(from_int(a), from_int(b))
                codes.add(c.to_int())
                # shell bijectivity: max(a,b) < m  <->  code < m*m
                m = max(a, b) + 1
                assert (m - 1) ** 2 <= c.to_int() < m * m
        assert codes == set(range(n * n))
        grid = [
            add(mul(W, from_int(i)), from_int(j))
            for i in range(1, 15)
            for j in range(15)
        ][:200]
        assert len(grid) == 200
        for a in grid:
            for b in grid:
                assert godel_unpair(godel_pair(a, b)) == (a, b)


def test_criterion_3_classical_conformance():
    with _Criterion(3, "20 random classical 2-symbol multi-tape machines, "
                       "1000 steps each, identical to the dict-tape simulator", 10):
        rng = random.Random(42)
        for trial in range(20):
            program = random_program(rng, n_states=rng.randint(2, 5))
            input_cells = sorted(rng.sample(range(40), rng.randint(0, 10)))
            oracle = oracles.ClassicalTM(program, input_cells)
            config = initial_configuration(
                program, Tape((from_int(c), from_int(c + 1)) for c in input_cells)
            )
            for t in range(1000):
                if oracle.halted():
                    assert config.state in program.halt_states
                    break
                config = step(program, config)
                oracle.step()
                assert config.state == oracle.state
                assert [h.to_int() for h in config.heads] == oracle.heads
            for i in range(program.n_tapes):
                mine = {
                    c
                    for lo, hi in config.tapes[i].ones
                    for c in range(lo.to_int(), hi.to_int())
                }
                assert mine == oracle.ones(i)


def test_criterion_4_limit_semantics():
    with _Criterion(4, "right sweep resolves at w to tape [0,w) head w; "
                       "leftward move at w resets to 0; nested loops reach "
                       "w*2 and w^2", 5):
        # (a) the sweep fixture halts just past w with the hand-derived state
        p = parse_program(RIGHT_SWEEP)
        out = run(p, budget=RunBudget(2000, 2))
        assert isinstance(out, Halted)
        assert out.final.time == parse_ordinal("w+2")
        wi = p.tape_index("work")
        assert out.final.tapes[wi] == Tape([(ZERO, W)])
        assert out.final.heads[wi] == W

        # (b) moving left from cell w lands on cell 0 and reads the 1 there
        text = RIGHT_SWEEP.replace(
            "rule qd -> goto done;",
            "rule qd -> move work=L goto qe;\n"
            "rule qe work=1 -> write out=1 goto done;\n"
            "rule qe work=0 -> goto done;",
        ).replace("state done halt;", "state qe;\nstate done halt;")
        p2 = parse_program(text)
        out2 = run(p2, budget=RunBudget(2000, 2))
        assert isinstance(out2, Halted)
        assert out2.final.heads[p2.tape_index("work")] == ZERO
        assert out2.final.tapes[p2.tape_index("out")].read(ZERO) == 1

        # (c) a second right-sweep after the first limit halts at w*2 + 2
        two_phase = """
        tapes in work out;
        state qs;
        state qa;
        state qb;
        state qc;
        state qs2;
        state pa;
        state pb;
        state pc;
        state qd;
        state done halt;
        rule qs -> write in=1 goto qa;
        rule qa in=1 -> goto qb;
        rule qa in=0 -> goto qs2;
        rule qb -> write in=0 goto qc;
        rule qc -> write in=1, work=1 move work=R goto qa;
        rule qs2 -> write in=1 goto pa;
        rule pa in=1 -> goto pb;
        rule pa in=0 -> goto qd;
        rule pb -> write in=0 goto pc;
        rule pc -> write in=1, out=1 move out=R goto pa;
        rule qd -> goto done;
        """
        p3 = parse_program(two_phase)
        out3 = run(p3, budget=RunBudget(4000, 3))
        assert isinstance(out3, Halted)
        assert out3.final.time == parse_ordinal("w*2+2")
        assert out3.final.tapes[p3.tape_index("out")] == Tape([(ZERO, W)])

        # (d) the pure sweeper's limit configurations translate, so the
        # second-level limit at w^2 resolves within three jumps
        p4 = parse_program(PURE_SWEEP)
        out4 = run(p4, budget=RunBudget(1000, 3))
        assert isinstance(out4, Unresolved)
        w2 = parse_ordinal("w^2")
        assert out4.last.time == w2
        assert out4.last.tapes[p4.tape_index("work")] == Tape([(ZERO, w2)])
        assert out4.last.heads[p4.tape_index("work")] == w2


def test_criterion_5_coding():
    with _Criterion(5, "decode(encode(x)) = x on all rank<=3 and 100 random "
                       "rank<=4 sets; 50 permuted bijections; 100 mutations "
                       "rejected or visibly different", 10):
        for x in universe_rank_le(3):
            assert decode(encode(x)) is x
        rng = random.Random(1001)
        for _ in range(100):
            x = ack_enumerate(rng.randrange(65536))
            assert decode(encode(x)) is x
        for i in range(50):
            x = ack_enumerate(rng.randrange(65536))
            domain = list(tc(x).elements) + [x]
            rng.shuffle(domain)
            code = encode_with_order(x, domain)
            ok, _ = is_valid(code)
            assert ok and decode(code) is x
        universe = universe_rank_le(3)
        mutated_checked = 0
        while mutated_checked < 100:
            x = universe[rng.randrange(len(universe))]
            code = encode(x)
            pairs = set(code.pairs)
            op = rng.choice(["add", "drop", "bound"])
            if op == "add":
                extra = from_int(rng.randrange(30))
                if extra in pairs:
                    continue
                mutated = SetCode(code.bound, frozenset(pairs | {extra}))
            elif op == "drop":
                if not pairs:
                    continue
                mutated = SetCode(
                    code.bound, frozenset(pairs - {rng.choice(sorted(pairs))})
                )
            else:
                newb = code.bound.to_int() + rng.choice([-1, 1, 2])
                if newb < 1:
                    continue
                mutated = SetCode(from_int(newb), code.pairs)
            if mutated == code:
                continue
            mutated_checked += 1
            ok, reason = is_valid(mutated)
            if ok:
                assert decode(mutated) is not x or encode(decode(mutated)) != code
            else:
                assert reason is not None


def test_criterion_6_delta0_truth():
    with _Criterion(6, "bounded truth matches the frozenset oracle: "
                       "exhaustive to size 5 over all rank<=2 assignments, "
                       "plus 1000 random larger cases", 30):
        values = universe_rank_le(2)
        envs = [
            {"x": x, "y": y} for x in values for y in values
        ]
        fenvs = [
            {k: oracles.to_frozen(v) for k, v in env.items()} for env in envs
        ]
        for node in oracles.generate_formulas(5):
            formula = Delta0Formula.of(node)
            for env, fenv in zip(envs, fenvs):
                assert eval_delta0(formula, env) == oracles.naive_eval(node, fenv)
        rng = random.Random(4242)
        pool = universe_rank_le(3)
        for _ in range(1000):
            node = oracles.random_formula(rng, rng.randint(6, 14))
            formula = Delta0Formula.of(node)
            env = {"x": rng.choice(pool), "y": rng.choice(pool)}
            fenv = {k: oracles.to_frozen(v) for k, v in env.items()}
            assert eval_delta0(formula, env) == oracles.naive_eval(node, fenv)


def test_criterion_7_reduction_suite():
    with _Criterion(7, "every shipped witness (native catalog plus the two "
                       "assembly manifests) verifies over rank<=3 with zero "
                       "counterexamples; WO =OTM= PP uses exactly |x| "
                       "miracle calls", 60):
        universe = universe_rank_le(3)
        witnesses = list(builtin_witnesses().values())
        witnesses.append(load_witness_manifest(witness_path("zero_le_pp2.json")))
        witnesses.append(load_witness_manifest(witness_path("pp_le_zl.json")))
        assert len(witnesses) == 25
        for witness in witnesses:
            report = verify_reduction(
                witness, universe, cap=10_000, seed=2026, sample_size=100
            )
            assert report.ok, f"{witness.name}: {report.to_json()}"
            assert report.cases > 0
            if witness.name == "wo_otm_pp":
                assert report.mode == "exhaustive"
                for x in universe:
                    assert report.miracle_calls[format_set(x)] == len(x)


def test_criterion_8_pi_n_checkers():
    with _Criterion(8, "thorough-canonification checker agrees with the "
                       "naive brute force (exhaustive when the function "
                       "space fits, seeded samples beyond) and matches "
                       "quantifier elimination; n = 3 spot checks", 60):
        statements_2 = [
            "ALL x1 EX y1 ALL x2 EX y2 (y1 = x1 & y2 = x2)",
            "ALL x1 EX y1 ALL x2 EX y2 (x1 in y1 | y2 = x2)",
            "ALL x1 EX y1 ALL x2 EX y2 (x2 in y2 -> y1 = x1)",
            "ALL x1 EX y1 ALL x2 EX y2 (x1 in y1)",
        ]
        rng = random.Random(8)
        cap = 10_000
        for size in (2, 3, 4):
            values = tuple(universe_rank_le(2)[:size])
            carrier = Carrier(values)
            n_f1 = size ** size
            n_f2 = size ** (size * size)
            total = n_f1 * n_f2

            def tuple_pairs():
                if total <= cap:
                    for t1 in itertools.product(values, repeat=size):
                        for t2 in itertools.product(values, repeat=size * size):
                            yield t1, t2
                else:
                    # extremal choices plus a seeded sample
                    lo = (values[0],)
                    hi = (values[-1],)
                    yield lo * size, lo * (size * size)
                    yield hi * size, hi * (size * size)
                    for _ in range(300):
                        yield (
                            tuple(rng.choice(values) for _ in range(size)),
                            tuple(rng.choice(values) for _ in range(size * size)),
                        )

            for text in statements_2:
                statement = parse_formula(text)
                for t1, t2 in tuple_pairs():
                    f1 = lambda a, _t=t1: _t[values.index(a)]
                    f2 = lambda a, b, _t=t2: _t[
                        values.index(a) * size + values.index(b)
                    ]
                    mine, _ = check_t_canonification(statement, [f1, f2], carrier)
                    naive = oracles.naive_check_t(statement, [f1, f2], list(values))
                    assert mine == naive

        # quantifier elimination: a thorough canonification exists over the
        # carrier iff the statement holds over the carrier (|U| <= 4, n <= 2)
        from test_logic import _skolem_search

        for size in (1, 2, 3, 4):
            values = tuple(universe_rank_le(2)[:size])
            carrier = Carrier(values)
            for text in statements_2 + ["ALL x EX y (x in y)", "ALL x EX y (y = x)"]:
                statement = parse_formula(text)
                truth = eval_prenex(statement, carrier)
                skolem = _skolem_search(statement, values)
                assert (skolem is not None) == truth
                if skolem:
                    ok, _ = check_t_canonification(statement, skolem, carrier)
                    assert ok

        # n = 3 spot checks
        values = tuple(universe_rank_le(1))
        carrier = Carrier(values)
        s3 = parse_formula(
            "ALL x1 EX y1 ALL x2 EX y2 ALL x3 EX y3 "
            "(y1 = x1 & y2 = x2 & y3 = x3)"
        )
        diag = [lambda a: a, lambda a, b: b, lambda a, b, c: c]
        ok, _ = check_t_canonification(s3, diag, carrier)
        assert ok
        assert oracles.naive_check_t(s3, diag, list(values))
        s3bad = parse_formula(
            "ALL x1 EX y1 ALL x2 EX y2 ALL x3 EX y3 (x3 in y3)"
        )
        ok, cex = check_t_canonification(s3bad, diag, carrier)
        assert not ok
        assert not oracles.naive_check_t(s3bad, diag, list(values))


def test_criterion_9_negative_controls():
    with _Criterion(9, "five broken witnesses and five invalid "
                       "canonifications are rejected with concrete "
                       "counterexamples", 30):
        from test_reductions import BROKEN

        universe = universe_rank_le(3)
        assert len(BROKEN) == 5
        for witness in BROKEN:
            report = verify_reduction(witness, universe, cap=2_000, seed=9)
            assert not report.ok
            cex = report.failures[0]
            assert PRINCIPLES[witness.source].domain(cex.instance)

        se, sse, pair01 = singleton(EMPTY), singleton(singleton(EMPTY)), hf(
            [EMPTY, singleton(EMPTY)]
        )
        from otmlab.relations import encode_poset

        chain = kpair(pair01, hf([kpair(EMPTY, se)]))
        three = hf([EMPTY, se, sse])
        poset = encode_poset(three, [(EMPTY, se), (se, sse), (EMPTY, sse)])
        bad_canons = [
            ("PP", Canonification({x: EMPTY for x in universe if len(x)})),
            ("WO", Canonification({x: EMPTY for x in universe})),
            ("ZL", Canonification({chain: EMPTY})),
            ("AC", Canonification({singleton(pair01): pair01})),
            ("HMP", Canonification({poset: singleton(EMPTY)})),
        ]
        assert len(bad_canons) == 5
        for name, canon in bad_canons:
            relation = PRINCIPLES[name]
            probe_universe = list(canon.mapping)
            ok, cex = check_canonification(canon, relation, probe_universe)
            assert not ok and cex is not None
