import pytest
from hypothesis import given, settings, strategies as st

from oracles import PairTape
from otmlab.ordinals import OMEGA, ONE, ZERO, add, from_int, mul, omega_power
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


class TestBoundaryTuple:
    def test_bounds_are_the_interval_ends_in_order(self):
        t = Tape([(from_int(8), W), (ZERO, from_int(3))])
        assert t.bounds == (ZERO, from_int(3), from_int(8), W)
        assert t.ones == ((ZERO, from_int(3)), (from_int(8), W))

    def test_ones_is_read_only(self):
        with pytest.raises(AttributeError):
            EMPTY_TAPE.ones = ()

    def test_write_next_to_both_neighbours_merges_them(self):
        t = cells(0, 2).write(from_int(1), 1)
        assert t.bounds == (ZERO, from_int(3))
        assert t.write(from_int(1), 0).bounds == (ZERO, ONE, from_int(2), from_int(3))

    def test_fill_on_boundaries(self):
        t = Tape([(ZERO, from_int(3)), (from_int(5), W)])
        assert t.fill(from_int(3), from_int(5), 1).bounds == (ZERO, W)
        assert t.fill(ZERO, from_int(3), 0).bounds == (from_int(5), W)
        assert t.fill(from_int(3), W, 0).bounds == (ZERO, from_int(3))

    def test_bad_bit(self):
        with pytest.raises(ValueError):
            EMPTY_TAPE.write(ZERO, 2)
        with pytest.raises(ValueError):
            EMPTY_TAPE.fill(ZERO, W, 2)


# -- the boundary tuple against the pair-list reference ---------------------------
#
# Cells are w^2*a + w*b + c with small coefficients, so random tapes mix finite
# and transfinite boundaries, limit cells and their neighbours.

W2 = omega_power(from_int(2))


def _cell(a, b, c):
    return add(add(mul(W2, from_int(a)), mul(W, from_int(b))), from_int(c))


CELLS = st.builds(_cell, st.integers(0, 1), st.integers(0, 2), st.integers(0, 6))
INTERVALS = st.lists(st.tuples(CELLS, CELLS), max_size=10)
BITS = st.integers(0, 1)


def _near(tape):
    """Every boundary of tape, its successor and, for a successor boundary,
    its predecessor: the cells next to a boundary."""
    out = set()
    for b in tape.bounds:
        out.add(b)
        out.add(add(b, ONE))
        if b.is_successor:
            out.add(b.predecessor())
    return sorted(out, key=lambda o: o._key)


def _probes(*tapes):
    fixed = [_cell(a, b, c) for a in (0, 1) for b in (0, 2) for c in (0, 3, 7)]
    found = {c for t in tapes for c in _near(t)}
    return sorted(found.union(fixed), key=lambda o: o._key)


def _assert_same(tape, ref, probes):
    assert tape.ones == ref.ones
    assert all(x._key < y._key for x, y in zip(tape.bounds, tape.bounds[1:]))
    assert (tape is EMPTY_TAPE) == (not ref.ones)
    for cell in probes:
        assert tape.read(cell) == ref.read(cell), cell
    for lo in probes:
        for hi in probes:
            assert tape.constant_on(lo, hi) == ref.constant_on(lo, hi), (lo, hi)


def _draw_cell(data, tape):
    near = _near(tape)
    if near and data.draw(st.booleans()):
        return data.draw(st.sampled_from(near))
    return data.draw(CELLS)


class TestAgainstPairListReference:
    @given(INTERVALS, INTERVALS)
    @settings(max_examples=150, deadline=None)
    def test_construction_intersection_equality_and_hash(self, xs, ys):
        a, b = Tape(xs), Tape(ys)
        ra, rb = PairTape(xs), PairTape(ys)
        probes = _probes(a, b)
        _assert_same(a, ra, probes)
        _assert_same(b, rb, probes)
        _assert_same(a.intersect(b), ra.intersect(rb), probes)
        _assert_same(b.intersect(a), rb.intersect(ra), probes)
        assert (a == b) == (ra == rb)
        # a tape built another way is equal, with the same hash
        again = EMPTY_TAPE
        for lo, hi in reversed(xs):
            again = again.fill(lo, hi, 1)
        assert again == a and hash(again) == hash(a)
        if a == b:
            assert hash(a) == hash(b)

    @given(INTERVALS, st.data())
    @settings(max_examples=200, deadline=None)
    def test_writes_and_fills_next_to_boundaries(self, xs, data):
        tape, ref = Tape(xs), PairTape(xs)
        for _ in range(data.draw(st.integers(1, 10))):
            bit = data.draw(BITS)
            if data.draw(st.booleans()):
                cell = _draw_cell(data, tape)
                new, new_ref = tape.write(cell, bit), ref.write(cell, bit)
                assert (new is tape) == (new_ref is ref)
            else:
                lo, hi = _draw_cell(data, tape), _draw_cell(data, tape)
                new, new_ref = tape.fill(lo, hi, bit), ref.fill(lo, hi, bit)
            tape, ref = new, new_ref
            assert tape.ones == ref.ones
        _assert_same(tape, ref, _probes(tape))

    @given(INTERVALS, st.data())
    @settings(max_examples=150, deadline=None)
    def test_constant_ahead_reads_the_w_cells_from_a_head(self, xs, data):
        """constant_ahead(h) is constant_on(h, h + w), for finite heads at
        and next to the tape's boundaries and for transfinite ones."""
        tape, ref = Tape(xs), PairTape(xs)
        heads = [from_int(data.draw(st.integers(0, 8)))]
        heads += [c for c in _near(tape) if c.is_natural]
        heads += [W, add(W, from_int(3)), mul(W, from_int(2)), W2]
        for h in heads:
            want = tape.constant_on(h, add(h, W))
            assert want == ref.constant_on(h, add(h, W)), h
            assert tape.constant_ahead(h) == want, h

    @given(st.lists(st.integers(0, 40), min_size=4, max_size=30), st.data())
    @settings(max_examples=100, deadline=None)
    def test_fills_across_many_intervals(self, starts, data):
        # unit intervals at finite cells and at w*2 + n: up to 60 intervals
        xs = [(from_int(n), from_int(n + 1)) for n in starts]
        xs += [(_cell(0, 2, n), _cell(0, 2, n + 1)) for n in starts]
        tape, ref = Tape(xs), PairTape(xs)
        bounds = tape.bounds
        lo = data.draw(st.sampled_from(bounds[: len(bounds) // 2]))
        hi = data.draw(st.sampled_from(bounds[len(bounds) // 2 :]))
        probes = _probes(tape)
        for bit in (0, 1):
            _assert_same(tape.fill(lo, hi, bit), ref.fill(lo, hi, bit), probes)
