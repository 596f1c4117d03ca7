import dataclasses
import itertools
import random
import re
from pathlib import Path

import pytest

import oracles
from otmlab.asm import format_program, parse_program
from otmlab.errors import ConflictingRules, MalformedCertificate, ParseError, TotalityError
from otmlab.machine import (
    Diverges,
    Halted,
    LoopCertificate,
    RunBudget,
    Unresolved,
    initial_configuration,
    resolve_limit,
    run,
    step,
)
from otmlab.ordinals import OMEGA, ZERO, add, format_ordinal, from_int, parse_ordinal
from otmlab.programs import Program, Transition
from otmlab.tapes import EMPTY_TAPE, Tape

W = OMEGA

# the right-sweep writer with a limit flag on the input tape: writes 1s
# rightward on the work tape, wakes up at time w, and halts two steps later
RIGHT_SWEEP = (
    Path(__file__).resolve().parent.parent / "demos" / "right_sweep.otm"
).read_text()

PURE_SWEEP = """
tapes in work out;
state q0;
rule q0 -> write work=1 move work=R goto q0;
"""

# writes 1, 0, 1, 0, ... while moving right: every stride-2 window holds a
# mixed pattern, which no interval tape can tile up to w
ALTERNATING_SWEEP = """
tapes in work out;
state a;
state b;
rule a -> write work=1 move work=R goto b;
rule b -> write work=0 move work=R goto a;
"""

TOGGLE = """
tapes in work out;
state q3;
state q5;
rule q3 -> goto q5;
rule q5 -> goto q3;
"""

MIRACLE_SWEEP = """
tapes in work out miracle;
state a;
state b;
state qm miracle;
rule a work=0 -> write work=1 goto b;
rule b -> goto a;
rule a work=1 -> write work=0 move work=R goto qm;
rule qm -> goto a;
"""

# each pass writes miracle=1 and enters m, which clears it and steps the work
# head right; at w the liminf of the miracle cell is 0, so m sees an empty
# miracle tape there and nowhere else
MIRACLE_AT_W = """
tapes in work out miracle;
state s;
state m miracle;
state a;
state done halt;
rule s -> write miracle=1 goto m;
rule m miracle=1 -> write miracle=0 move work=R goto a;
rule m miracle=0 -> goto done;
rule a -> write miracle=1 goto m;
"""

# the same until w; after it the out cell 0 is a limit detector (held at 1
# when b reads it, dipped to 0 by b in between), so b reads 0 first at w*2
MIRACLE_AT_W_THEN_CYCLE = """
tapes in work out miracle;
state s;
state m miracle;
state a;
state b;
state c;
state done halt;
rule s -> write miracle=1 goto m;
rule m miracle=1 -> write miracle=0 move work=R goto a;
rule m miracle=0 -> write out=1 goto b;
rule a -> write miracle=1 goto m;
rule b out=1 -> write out=0 goto c;
rule b out=0 -> goto done;
rule c -> write out=1 goto b;
"""

# on an input of w ones, each 4-step period zeroes an even cell, puts its 1
# back and skips the odd cell after it; at w the head falls back to 0 and the
# sweep starts again, so up to w^2 every even cell dips cofinally often and
# every odd cell keeps its 1: a liminf no interval tape can hold
EVEN_CELLS_DIP = """
tapes in work out;
state a;
state b;
state c;
state d;
rule a in=1 -> write in=0 move in=R goto b;
rule a in=0 -> move in=L goto a;
rule b -> move in=L goto c;
rule c -> write in=1 move in=R goto d;
rule d -> move in=R goto a;
"""

# the same restarting sweep, but every cell dips: the liminf at w^2 is empty
EVERY_CELL_DIPS = """
tapes in work out;
state a;
state b;
rule a in=1 -> write in=0 goto b;
rule a in=0 -> move in=L goto a;
rule b -> write in=1 move in=R goto a;
"""


# the input head runs right over a block of ones, falls back to 0 at each
# limit and runs again: the limits at w^2 and w^3 agree, so a loop of limits
# closes and the limit at w^4 repeats the one at w^2
RESTARTING_RUN = """
tapes in work out;
state a;
rule a in=1 -> move in=R goto a;
rule a in=0 -> move in=L goto a;
"""


def simple_program(rules_text):
    return parse_program(rules_text)


class TestStep:
    def test_classical_step(self):
        p = parse_program(
            "tapes in work out; state q0; state q1;\n"
            "rule q0 -> write work=1 move work=R goto q1;\n"
            "rule q1 -> goto q1;"
        )
        c0 = initial_configuration(p)
        c1 = step(p, c0)
        assert c1.state == p.state_names.index("q1")
        assert c1.heads[p.tape_index("work")] == from_int(1)
        assert c1.tapes[p.tape_index("work")].read(ZERO) == 1
        assert c1.time == from_int(1)

    def test_move_left_from_limit_resets_to_zero(self):
        p = parse_program(
            "tapes in work out; state q0; state h halt;\n"
            "rule q0 -> move work=L goto h;"
        )
        c = dataclasses.replace(initial_configuration(p), heads=(ZERO, W, ZERO))
        nxt = step(p, c)
        assert nxt.heads[1] == ZERO

    def test_move_left_at_zero_stays(self):
        p = parse_program(
            "tapes in work out; state q0; state h halt;\n"
            "rule q0 -> move work=L goto h;"
        )
        nxt = step(p, initial_configuration(p))
        assert nxt.heads[1] == ZERO

    def test_step_from_halt_rejected(self):
        p = parse_program("tapes in work out; state q0 halt;")
        with pytest.raises(ValueError):
            step(p, initial_configuration(p))


def random_program(rng, n_states=4, n_tapes=3):
    names = tuple(f"s{i}" for i in range(n_states)) + ("halt",)
    roles = ("in", "work", "out", "miracle")[:n_tapes]
    if "work" not in roles or "out" not in roles:
        roles = ("in", "work", "out")
    transitions = {}
    for state in range(n_states):
        for reads in itertools.product((0, 1), repeat=len(roles)):
            writes = tuple(rng.randint(0, 1) for _ in roles)
            moves = tuple(rng.choice("LRS") for _ in roles)
            # keep halting rare so runs go the full length
            nxt = n_states if rng.random() < 0.002 else rng.randrange(n_states)
            transitions[(state, reads)] = Transition(writes, moves, nxt)
    return Program(
        state_names=names,
        tape_roles=roles,
        start_state=0,
        halt_states=frozenset({n_states}),
        transitions=transitions,
    )


class TestClassicalConformance:
    def test_twenty_random_machines_1000_steps(self):
        rng = random.Random(2024)
        for trial in range(20):
            program = random_program(rng)
            input_cells = sorted(rng.sample(range(30), rng.randint(0, 8)))
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
                if t % 100 == 0:
                    for i in range(program.n_tapes):
                        mine = {
                            c
                            for lo, hi in config.tapes[i].ones
                            for c in range(lo.to_int(), hi.to_int())
                        }
                        assert mine == oracle.ones(i)
            for i in range(program.n_tapes):
                mine = {
                    c
                    for lo, hi in config.tapes[i].ones
                    for c in range(lo.to_int(), hi.to_int())
                }
                assert mine == oracle.ones(i)


class TestLimits:
    def test_right_sweep_halts_after_omega(self):
        p = parse_program(RIGHT_SWEEP)
        out = run(p, budget=RunBudget(2000, 2))
        assert isinstance(out, Halted)
        assert out.final.time == parse_ordinal("w+2")
        wi = p.tape_index("work")
        assert out.final.tapes[wi] == Tape([(ZERO, W)])
        assert out.final.heads[wi] == W

    def test_limit_tape_matches_per_cell_liminf_of_1000_steps(self):
        # replay the sweep classically and liminf 50 sampled cells by hand
        p = parse_program(RIGHT_SWEEP)
        config = initial_configuration(p)
        wi = p.tape_index("work")
        histories = {c: [] for c in range(50)}
        for _ in range(1000):
            config = step(p, config)
            for c in histories:
                histories[c].append(config.tapes[wi].read(from_int(c)))
        out = run(p, budget=RunBudget(2000, 2))
        limit_tape = out.final.tapes[wi]
        for c, hist in histories.items():
            tail = hist[200:]
            liminf_bit = 0 if 0 in tail[-300:] else 1
            assert limit_tape.read(from_int(c)) == liminf_bit

    def test_move_left_at_omega_lands_at_zero(self):
        text = RIGHT_SWEEP.replace(
            "rule qd -> goto done;",
            "rule qd -> move work=L goto qe;\n"
            "rule qe work=1 -> write out=1 goto done;\n"
            "rule qe work=0 -> goto done;",
        ).replace("state done halt;", "state qe;\nstate done halt;")
        p = parse_program(text)
        out = run(p, budget=RunBudget(2000, 2))
        assert isinstance(out, Halted)
        wi = p.tape_index("work")
        assert out.final.heads[wi] == ZERO
        # the head really was at w before moving left: it read the 1 at cell 0
        assert out.final.tapes[p.tape_index("out")].read(ZERO) == 1

    def test_pure_sweeper_reaches_omega_squared(self):
        p = parse_program(PURE_SWEEP)
        out = run(p, budget=RunBudget(1000, 3))
        assert isinstance(out, Unresolved)  # it genuinely never halts
        assert out.last.time == parse_ordinal("w^2")
        wi = p.tape_index("work")
        assert out.last.tapes[wi] == Tape([(ZERO, parse_ordinal("w^2"))])
        assert out.last.heads[wi] == parse_ordinal("w^2")

    def test_pure_sweeper_climbs_the_tower(self):
        p = parse_program(PURE_SWEEP)
        out = run(p, budget=RunBudget(1000, 5))
        assert out.last.time == parse_ordinal("w^4")

    def test_toggle_diverges_with_min_state(self):
        p = parse_program(TOGGLE)
        out = run(p, budget=RunBudget(100, 4))
        assert isinstance(out, Diverges)
        assert p.state_name(out.limit_behavior.state) == "q3"
        assert out.limit_behavior.time == W

    def test_divergence_certificate_replays(self):
        p = parse_program(TOGGLE)
        out = run(p, budget=RunBudget(100, 4))
        again = resolve_limit(p, out.certificate)
        assert again.key() == out.limit_behavior.key()

    def test_limit_level_divergence_names_the_recurring_limit(self):
        # the period of a loop of limits counts limit jumps, so the
        # certificate names the recurring limit and replays as nothing
        p = parse_program(RESTARTING_RUN)
        out = run(p, Tape([(ZERO, W)]), RunBudget(1000, 16))
        assert isinstance(out, Diverges)
        assert out.limit_behavior.time == parse_ordinal("w^4")
        cert = out.certificate
        assert isinstance(cert, LoopCertificate) and cert.period == 1
        assert cert.strides == (ZERO,) * p.n_tapes
        assert cert.base.time == parse_ordinal("w^2")
        assert cert.base.key() == out.limit_behavior.key()
        with pytest.raises(MalformedCertificate, match="does not recur"):
            resolve_limit(p, cert)

    def test_jump_budget_exhaustion_is_unresolved(self):
        p = parse_program(PURE_SWEEP)
        out = run(p, budget=RunBudget(5, 2))
        assert isinstance(out, Unresolved)
        assert "jump budget" in out.reason

    def test_step_budget_exhaustion_is_unresolved(self):
        # a zigzag walker revisits swept cells, which shape (b) forbids, so
        # no certificate ever fires and the step budget runs out honestly
        zigzag = (
            "tapes in work out; state z0; state z1; state z2;\n"
            "rule z0 -> move work=R goto z1;\n"
            "rule z1 -> move work=R goto z2;\n"
            "rule z2 -> move work=L goto z0;\n"
        )
        out = run(parse_program(zigzag), budget=RunBudget(200, 64))
        assert isinstance(out, Unresolved)
        assert "step budget" in out.reason

    def test_start_in_halt_state(self):
        p = parse_program("tapes in work out; state q0 halt;")
        out = run(p, budget=RunBudget(10, 1))
        assert isinstance(out, Halted)
        assert out.final.time == ZERO
        assert all(t == EMPTY_TAPE for t in out.final.tapes)

    def test_miracle_hook_fires_once_per_arrival(self):
        # the loop a -> b -> a -> qm -> a sweeps the work tape and certifies a
        # sweep at w; checking loop candidates must not consult the oracle
        p = parse_program(MIRACLE_SWEEP)
        calls, records = [], []
        run(
            p,
            budget=RunBudget(200, 1),
            miracle_hook=lambda tape: calls.append(tape),
            trace=records.append,
            trace_steps=True,
        )
        arrivals = [
            r for r in records if r["event"] == "step" and r["state"] == "qm"
        ]
        assert any(r["event"] == "limit" for r in records)
        assert len(arrivals) == 4
        assert len(calls) == len(arrivals)

    @pytest.mark.parametrize("program, halt_time, limits", [
        (MIRACLE_AT_W, "w+1", [("w", "sweep", "m")]),
        (MIRACLE_AT_W_THEN_CYCLE, "w*2+1", [("w", "sweep", "m"), ("w*2", "cycle", "b")]),
    ], ids=["halts-after-w", "resolves-w*2"])
    def test_miracle_hook_rewrites_a_limit(self, program, halt_time, limits):
        # the hook turns the empty miracle tape at w into [1,2); m then reads
        # cell 0, which stays 0, and leaves the loop
        p = parse_program(program)
        cell_one = Tape([(from_int(1), from_int(2))])
        calls, records = [], []

        def hook(tape):
            calls.append(tape)
            return cell_one if tape == Tape() else None

        outcome = run(p, budget=RunBudget(1000, 8), miracle_hook=hook,
                      trace=records.append)
        assert outcome.kind == "halted"
        final = outcome.final
        assert (format_ordinal(final.time), p.state_name(final.state)) == (
            halt_time, "done")
        assert final.tapes == (Tape(), Tape(), Tape(), cell_one)
        assert final.heads == (ZERO, OMEGA, ZERO, ZERO)
        # two successor arrivals see [0,1), the arrival at w the empty tape
        assert calls == [Tape([(ZERO, from_int(1))])] * 2 + [Tape()]
        seen = [(r["time"], r["kind"], r["state"], r["tapes"]["miracle"])
                for r in records if r["event"] == "limit"]
        assert seen == [(t, k, s, ["[1,2)"]) for t, k, s in limits]


    def _limit_records(self, text):
        records = []
        out = run(
            parse_program(text),
            Tape([(ZERO, W)]),
            RunBudget(2000, 8),
            trace=records.append,
        )
        return out, [r for r in records if r["event"] == "limit"]

    def test_mixed_window_minima_block_the_limit_cycle(self):
        # a loop of limits whose segment has unrepresentable minima must not
        # resolve: the sweeps repeat until the jump budget runs out
        out, limits = self._limit_records(EVEN_CELLS_DIP)
        assert [(r["kind"], r["time"]) for r in limits] == [
            ("sweep", "w")
        ] + [("sweep", f"w*{k}") for k in range(2, 9)]
        assert isinstance(out, Unresolved)
        assert out.reason == "limit jump budget exhausted"

    def test_uniform_window_minima_resolve_the_limit_cycle(self):
        out, limits = self._limit_records(EVERY_CELL_DIPS)
        assert [(r["kind"], r["time"]) for r in limits] == [
            ("sweep", "w"),
            ("sweep", "w*2"),
            ("limit-cycle", "w^2"),
            ("diverges", "w^2+w"),
        ]
        assert limits[2]["tapes"]["in"] == []
        assert isinstance(out, Diverges)


class TestResolveLimit:
    def test_exact_certificate_of_busy_loop(self):
        p = parse_program(TOGGLE)
        base = initial_configuration(p)
        c2 = step(p, step(p, base))
        assert c2.key() == base.key()
        cert = LoopCertificate(base=base, period=2, strides=(ZERO,) * p.n_tapes)
        limit = resolve_limit(p, cert)
        assert limit.state == base.state
        assert limit.time == W
        assert limit.tapes == base.tapes

    def test_certificate_replay_is_validated(self):
        p = parse_program(TOGGLE)
        base = initial_configuration(p)
        cert = LoopCertificate(base=base, period=3, strides=(ZERO,) * p.n_tapes)
        with pytest.raises(MalformedCertificate, match="does not recur"):
            resolve_limit(p, cert)

    def test_sweep_certificate(self):
        p = parse_program(PURE_SWEEP)
        base = initial_configuration(p)
        cert = LoopCertificate(
            base=base, period=1, strides=(ZERO, from_int(1), ZERO)
        )
        limit = resolve_limit(p, cert)
        wi = p.tape_index("work")
        assert limit.tapes[wi] == Tape([(ZERO, W)])
        assert limit.heads[wi] == W
        assert limit.time == W

    def test_sweep_keeps_content_beyond_the_swept_region(self):
        p = parse_program(PURE_SWEEP)
        wi = p.tape_index("work")
        beyond = (parse_ordinal("w*2"), parse_ordinal("w*2+3"))
        start = initial_configuration(p)
        tapes = list(start.tapes)
        tapes[wi] = Tape([beyond])
        base = dataclasses.replace(start, tapes=tuple(tapes))
        cert = LoopCertificate(
            base=base, period=1, strides=(ZERO, from_int(1), ZERO)
        )
        limit = resolve_limit(p, cert)
        assert limit.tapes[wi] == Tape([(ZERO, W), beyond])
        assert limit.heads[wi] == W

    def test_mixed_sweep_pattern_is_rejected(self):
        p = parse_program(ALTERNATING_SWEEP)
        base = initial_configuration(p)
        cert = LoopCertificate(
            base=base, period=2, strides=(ZERO, from_int(2), ZERO)
        )
        with pytest.raises(MalformedCertificate, match="pattern is not constant"):
            resolve_limit(p, cert)
        out = run(p, budget=RunBudget(200, 2))
        assert isinstance(out, Unresolved)
        assert out.reason == "successor step budget exhausted"
        assert out.last.time == from_int(200)

    @staticmethod
    def _base_with_work_cell(p, cell):
        """The start configuration with a 1 at `cell` of the work tape."""
        start = initial_configuration(p)
        tapes = list(start.tapes)
        tapes[p.tape_index("work")] = Tape([(from_int(cell), from_int(cell + 1))])
        return dataclasses.replace(start, tapes=tuple(tapes))

    # each certificate below fails two checks; resolve_limit reports the one
    # it makes first, whatever the executor's detection checks first
    @pytest.mark.parametrize(
        "text, period, stride, reason",
        [
            # the head steps from cell 2, past the window [0, 1) of its
            # stride; the 1 at cell 5 lies ahead of the sweep too
            (
                "tapes in work out; state a; state b; state c;\n"
                "rule a -> move work=R goto b; rule b -> move work=R goto c;\n"
                "rule c -> move work=L goto a;",
                3,
                1,
                "tape 1 leaves its sweep window",
            ),
            # the 1 at cell 5 lies ahead of the sweep, and the swept window
            # holds the pattern 1, 0
            (ALTERNATING_SWEEP, 2, 2, "tape 1 has non-constant content ahead of the sweep"),
            # the input head stays put while its cell becomes 1, and the 1 at
            # cell 5 lies ahead of the work tape's sweep
            (
                "tapes in work out; state q0;\n"
                "rule q0 -> write in=1, work=1 move work=R goto q0;",
                1,
                1,
                "stationary tape 0 changed content",
            ),
        ],
    )
    def test_malformed_sweep_reports_its_first_failed_check(
        self, text, period, stride, reason
    ):
        p = parse_program(text)
        cert = LoopCertificate(
            base=self._base_with_work_cell(p, 5),
            period=period,
            strides=(ZERO, from_int(stride), ZERO),
        )
        with pytest.raises(MalformedCertificate) as err:
            resolve_limit(p, cert)
        assert str(err.value) == reason

    @pytest.mark.parametrize("text, period, strides, reason", [
        ("tapes in work out; state q0; state h halt; rule q0 -> goto h;", 2, (0, 0, 0),
         "loop passes through a halt state"),
        (ALTERNATING_SWEEP, 1, (0, 1, 0), "sweep period changes the state"),
        (TOGGLE, 0, (0, 0, 0), "period must be positive"),
    ], ids=["through-halt", "state-changes", "period-zero"])
    def test_a_certificate_the_replay_contradicts(self, text, period, strides, reason):
        p = parse_program(text)
        cert = LoopCertificate(base=initial_configuration(p), period=period,
                               strides=tuple(from_int(d) for d in strides))
        with pytest.raises(MalformedCertificate) as err:
            resolve_limit(p, cert)
        assert str(err.value) == reason

    def test_sweep_certificate_wrong_stride(self):
        p = parse_program(PURE_SWEEP)
        base = initial_configuration(p)
        with pytest.raises(MalformedCertificate):
            resolve_limit(
                p,
                LoopCertificate(
                    base=base, period=1, strides=(ZERO, from_int(2), ZERO)
                ),
            )

    def test_sweep_certificate_wrong_arity(self):
        p = parse_program(PURE_SWEEP)
        base = initial_configuration(p)
        with pytest.raises(MalformedCertificate):
            resolve_limit(
                p, LoopCertificate(base=base, period=1, strides=(from_int(1),))
            )


class TestDeterminismAndTrace:
    def test_identical_runs(self):
        p = parse_program(RIGHT_SWEEP)
        a = run(p, budget=RunBudget(2000, 2))
        b = run(p, budget=RunBudget(2000, 2))
        assert a == b

    def test_trace_records_limit_jumps(self):
        p = parse_program(RIGHT_SWEEP)
        records = []
        run(p, budget=RunBudget(2000, 2), trace=records.append, trace_steps=True)
        limits = [r for r in records if r["event"] == "limit"]
        assert len(limits) == 1
        assert limits[0]["time"] == "w"
        assert limits[0]["tapes"]["work"] == ["[0,w)"]
        steps = [r for r in records if r["event"] == "step"]
        assert steps and all("time" in r and "state" in r for r in steps)
        assert any(r["event"] == "halt" for r in records)

    def test_step_records_match_the_classical_machine(self):
        """Up to the first limit, each step record gives the time, state and
        heads after the step, and as writes exactly the cells the classical
        simulator flips at that step, by role, cell and new bit."""
        rng = random.Random(29)
        flips = 0
        for _ in range(20):
            program = random_program(rng)
            input_cells = sorted(rng.sample(range(30), rng.randint(0, 8)))
            oracle = oracles.ClassicalTM(program, input_cells)
            records = []
            run(
                program,
                Tape((from_int(c), from_int(c + 1)) for c in input_cells),
                RunBudget(300, 1),
                trace=records.append,
                trace_steps=True,
            )
            for record in records:
                if record["event"] != "step":
                    break
                before = [oracle.ones(i) for i in range(program.n_tapes)]
                oracle.step()
                assert record["time"] == str(oracle.time)
                assert record["state"] == program.state_name(oracle.state)
                assert record["heads"] == [str(h) for h in oracle.heads]
                flipped = {
                    (role, c, 1 if c in oracle.ones(i) else 0)
                    for i, role in enumerate(program.tape_roles)
                    for c in before[i] ^ oracle.ones(i)
                }
                writes = {(role, int(cell), bit) for role, cell, bit in record["writes"]}
                assert len(writes) == len(record["writes"])
                assert writes == flipped
                flips += len(flipped)
        assert flips > 100

    def test_untraced_run_formats_no_ordinal(self, monkeypatch):
        """Without a trace no record is built, so no time or head is printed."""

        def refuse(o):
            raise AssertionError(f"formatted {o!r} for no trace")

        monkeypatch.setattr("otmlab.machine.format_ordinal", refuse)
        final = run(parse_program(RIGHT_SWEEP), budget=RunBudget(2000, 2))
        assert isinstance(final, Halted) and final.final.time is add(W, from_int(2))


class TestAsmErrors:
    def test_totality_error_names_the_gap(self):
        src = (
            "tapes in work out; state q0;\n"
            "rule q0 work=0 -> write work=1 move work=R goto q0;\n"
        )
        with pytest.raises(TotalityError) as err:
            parse_program(src)
        assert any(reads[1] == 1 for name, reads in err.value.missing if name == "q0")

    def test_conflicting_rules(self):
        src = (
            "tapes in work out; state q0;\n"
            "rule q0 -> goto q0;\n"
            "rule q0 work=1 -> goto q0;\n"
        )
        with pytest.raises(ConflictingRules):
            parse_program(src)

    def test_empty_halting_program_matches_spec_example(self):
        p = parse_program("tapes in work out; state q0 halt;")
        assert p.transitions == {}

    # every row has the miracle state q0, and the halt state q1 where halts is {1}
    @pytest.mark.parametrize("roles, halts, transitions, problem", [
        (("in", "work", "out"), frozenset(), {}, "a miracle state needs a 'miracle' tape"),
        (("in", "work", "out", "miracle"), frozenset({0}), {},
         "the miracle state cannot be a halt state"),
        (("in", "work", "tape"), frozenset(), {}, "unknown tape role 'tape'"),
        (("in", "work", "miracle"), frozenset(), {},
         "tape role 'out' must appear exactly once"),
        (("in", "work", "out", "miracle", "miracle"), frozenset(), {},
         "tape role 'miracle' may appear at most once"),
        (("in", "work", "out", "miracle"), frozenset({1}),
         {(0, (0, 0, 0)): Transition((0,) * 4, ("S",) * 4, 0)},
         "transition arity mismatch in state 0"),
        (("in", "work", "out", "miracle"), frozenset({1}),
         {(0, (0,) * 4): Transition((0,) * 4, ("S", "S", "S", "U"), 0)},
         "bad move in state 0"),
        (("in", "work", "out", "miracle"), frozenset({1}),
         {(1, (0,) * 4): Transition((0,) * 4, ("S",) * 4, 1)},
         "halt state 1 has transitions"),
    ])
    def test_program_refuses_a_table_asm_would_refuse(self, roles, halts, transitions,
                                                      problem):
        """A Program built without the assembler holds its tape roles, its
        miracle state and its transitions to the rules the parser enforces."""
        with pytest.raises(ValueError, match=f"^{problem}$"):
            Program(("q0", "q1"), roles, 0, halts, transitions, miracle_state=0)

    # a two-state program, q1 its halt state, whose q0 rules all stay in q0:
    # each row changes one of its rules or its start state
    @pytest.mark.parametrize("rule, start, problem", [
        ({(0, (0, 0, 0)): Transition((0, 0, 0), ("S",) * 3, 7)}, 0,
         "unknown next state 7 in state 'q0'"),
        ({}, 5, "unknown start state 5"),
        ({(0, (2, 0, 0)): Transition((0, 0, 0), ("S",) * 3, 0)}, 0,
         "read bit 2 on tape 'in' in state 'q0' is not 0 or 1"),
        ({(0, (0, 0, 0)): Transition((0, 0, 2), ("S",) * 3, 0)}, 0,
         "written bit 2 on tape 'out' in state 'q0' is not 0 or 1"),
    ], ids=["next state", "start state", "read bit", "written bit"])
    def test_program_refuses_a_state_or_bit_out_of_range(self, rule, start, problem):
        """A table that names a state the program does not have, or a bit
        other than 0 or 1, is refused when the Program is built, with the
        state and the tape role named, not at the first step that meets it."""
        transitions = {
            (0, reads): Transition((0, 0, 0), ("S",) * 3, 0)
            for reads in itertools.product((0, 1), repeat=3)
        }
        transitions.update(rule)
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            Program(("q0", "q1"), ("in", "work", "out"), start, frozenset({1}),
                    transitions)

    def test_parse_errors_have_spans(self):
        for bad in ["tapes in work; state q0;", "state q0;", "tapes in work out; rule q0;"]:
            with pytest.raises(ParseError):
                parse_program(bad)

    def test_print_parse_roundtrip(self):
        for src in (RIGHT_SWEEP, PURE_SWEEP, TOGGLE):
            p = parse_program(src)
            assert parse_program(format_program(p)) == p
            assert format_program(parse_program(format_program(p))) == format_program(p)

    def test_roundtrip_on_a_corpus_of_fifty_programs(self):
        rng = random.Random(77)
        for _ in range(50):
            p = random_program(rng, n_states=rng.randint(1, 5))
            printed = format_program(p)
            assert parse_program(printed) == p
            assert format_program(parse_program(printed)) == printed
