from hypothesis import given, settings, strategies as st

from otmlab.ordinals import OMEGA, ZERO, add, from_int, mul
from otmlab.tapes import EMPTY_TAPE, Tape

W = OMEGA


def cells(*ns):
    t = EMPTY_TAPE
    for n in ns:
        t = t.write(from_int(n), 1)
    return t


class TestReadWrite:
    def test_read_empty(self):
        assert EMPTY_TAPE.read(W) == 0

    def test_membership(self):
        t = Tape([(ZERO, W)])
        assert t.read(from_int(5)) == 1

    def test_half_open_boundary(self):
        t = Tape([(ZERO, W)])
        assert t.read(W) == 0

    def test_write_one_cell(self):
        assert EMPTY_TAPE.write(ZERO, 1) == Tape([(ZERO, from_int(1))])

    def test_write_merges_intervals(self):
        t = cells(0, 2)
        merged = t.write(from_int(1), 1)
        assert merged.ones == ((ZERO, from_int(3)),)

    def test_write_zero_splits(self):
        t = Tape([(ZERO, W)])
        out = t.write(from_int(3), 0)
        assert out.ones == ((ZERO, from_int(3)), (from_int(4), W))

    def test_write_read_laws_random(self):
        import random

        rng = random.Random(0)
        pool = [from_int(rng.randrange(50)) for _ in range(20)]
        pool += [add(mul(W, from_int(rng.randrange(3))), from_int(rng.randrange(9)))
                 for _ in range(20)]
        t = EMPTY_TAPE
        for cell in pool:
            for bit in (1, 0, 1):
                t2 = t.write(cell, bit)
                assert t2.read(cell) == bit
                for other in pool:
                    if other != cell:
                        assert t2.read(other) == t.read(other)
            t = t.write(cell, rng.randint(0, 1))

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 8)), max_size=8))
    @settings(max_examples=150)
    def test_normalization_idempotent(self, spans):
        intervals = [(from_int(lo), from_int(lo + ln)) for lo, ln in spans]
        t = Tape(intervals)
        assert Tape(t.ones).ones == t.ones
        # bitmap oracle on cells 0..40
        on = set()
        for lo, ln in spans:
            on.update(range(lo, lo + ln))
        for c in range(41):
            assert t.read(from_int(c)) == (1 if c in on else 0)


class TestQueries:
    def test_constant_on(self):
        t = Tape([(ZERO, W)])
        assert t.constant_on(ZERO, W) == 1
        assert t.constant_on(W, mul(W, from_int(2))) == 0
        assert t.constant_on(from_int(5), add(W, from_int(1))) is None

    def test_intersect(self):
        a = Tape([(ZERO, from_int(5)), (from_int(8), from_int(12))])
        b = Tape([(from_int(3), from_int(10))])
        assert a.intersect(b).ones == (
            (from_int(3), from_int(5)),
            (from_int(8), from_int(10)),
        )

    def test_interval_strings(self):
        t = Tape([(ZERO, W), (mul(W, from_int(2)), add(mul(W, from_int(2)), from_int(3)))])
        assert t.interval_strings() == ("[0,w)", "[w*2,w*2+3)")
