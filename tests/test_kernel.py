"""Differential tests of the integer evaluator kernel and of `eval_block`.

Every expected value comes from `tests/oracles.py`, which shares no code
with the package, on the default ladder and on an explicit schedule whose
level sizes and stretches are not powers of 3.  `eval_block` reads integer
numerators over a denominator it states; `_values` checks that denominator
against the rule and turns the read into Fractions.
"""
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fixtures import profile
from wkseq import DomainError, eval_ainf, eval_b, ladder_new
from wkseq.ladder import _below, _copy
from wkseq.walker import VALUES, eval_block, pieces
from wkseq.orbits import alpha_source
from wkseq.sequence import alpha_window

#: Growth factors 10 and 100000: p = 3, 270, 243000000, ... and stretches
#: 30 and 27000000, so denominators carry factors 2 and 5.
EXPLICIT = (10, 100000)
SCHEDULES = [(), EXPLICIT]


def _ladder(schedule):
    return ladder_new(schedule if schedule else "default-minimal")


def _anchors(lad, n):
    """Splice point, fold edges and ramp corners of level n."""
    s, p = lad.stretch(n), lad.p(n)
    return [lad.splice(n), p, -p, s, 2 * s, 3 * s, -2 * s, lad.p(n - 1), -lad.p(n - 1)]


def _breakpoints(lad, n):
    """Where level n changes form: each +-p[n], where the block reader splits
    the range, the multiples of stretch(n) where the stretched copy changes
    form, where it splits a level, and the splice, past which the read of
    the level below moves one step ahead."""
    s, p = lad.stretch(n), lad.p(n)
    return [p, -p, lad.splice(n), *(k * s for k in (-8, -7, -5, -4, -2, -1, 1, 2, 4, 5, 7, 8))]


def _values(lad, r):
    """eval_block at the points of r, as Fractions, once the read is checked:
    integer numerators over 1 or the stretch of a level no higher than the
    one covering r, which every value's denominator divides."""
    nums, den = eval_block(lad, r)
    top = lad.ensure_cover(max(map(abs, (r[0], r[-1])))) if r else 0
    assert den in {1, *(lad.stretch(n) for n in range(1, top + 1))}, den
    assert all(type(n) is int for n in nums)
    values = [F(n, den) for n in nums]
    assert den % lcm(*(v.denominator for v in values)) == 0
    return values


def _check_block(lad, start, length, schedule, near=None):
    """eval_block on start .. start+length-1 equals per-point eval_ainf, and
    tests/oracles.py at every point, or only within 1 of `near`."""
    block = _values(lad, range(start, start + length))
    assert block == [eval_ainf(lad, t) for t in range(start, start + length)], start
    for t in range(start, start + length):
        if near is None or abs(t - near) <= 1:
            assert block[t - start] == oracles.limit_value(t, schedule), t


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_splice_and_fold_edges_match_oracle(schedule, n):
    lad = _ladder(schedule)
    p, L = oracles.tower(4, schedule)
    for centre in (lad.splice(n), lad.p(n), -lad.p(n)):
        for t in range(centre - 2, centre + 3):
            if abs(t) <= p[n]:
                assert profile(lad, n, t) == oracles.raw_level(p, L, n, t), t
            assert eval_b(lad, n, t) == oracles.raw_periodized(p, L, n, t), t
            assert eval_ainf(lad, t) == oracles.limit_value(t, schedule), t
    for start in (lad.splice(n) - 2, lad.p(n) - 2):
        # the second window straddles the step from level n to level n + 1
        block = _values(lad, range(start, start + 5))
        assert block == [oracles.limit_value(t, schedule) for t in range(start, start + 5)]
        assert block == [eval_ainf(lad, t) for t in range(start, start + 5)]
    # each breakpoint +-1, at a block's edge and inside it
    for c in _breakpoints(lad, n):
        for back in (1, 40):
            _check_block(lad, c - back, 80, schedule, near=c)


@given(
    schedule=st.sampled_from(SCHEDULES),
    n=st.integers(min_value=1, max_value=2),
    anchor=st.integers(min_value=0, max_value=8),
    step=st.integers(min_value=-12, max_value=12),
    den=st.sampled_from([2, 3, 6]),
)
@settings(max_examples=150, deadline=None)
def test_half_and_third_steps_match_oracle(schedule, n, anchor, step, den):
    lad = _ladder(schedule)
    p, L = oracles.tower(4, schedule)
    t = _anchors(lad, n)[anchor] + F(step, den)
    if abs(t) <= p[n]:
        assert profile(lad, n, t) == oracles.raw_level(p, L, n, t)
    assert eval_b(lad, n, t) == oracles.raw_periodized(p, L, n, t)
    assert eval_ainf(lad, t) == oracles.limit_value(t, schedule)


@given(
    schedule=st.sampled_from(SCHEDULES),
    level=st.integers(min_value=0, max_value=2),
    back=st.integers(min_value=0, max_value=40),
    length=st.integers(min_value=1, max_value=80),
)
@settings(max_examples=60, deadline=None)
def test_blocks_straddling_a_level_step_match_oracle(schedule, level, back, length):
    lad = _ladder(schedule)
    start = max(0, lad.p(level) - back)
    block = _values(lad, range(start, start + length))
    assert block == [eval_ainf(lad, t) for t in range(start, start + length)]
    assert block == [oracles.limit_value(t, schedule) for t in range(start, start + length)]
    # the same step on the negative side: -p[level] - 1 is read one level up
    _check_block(lad, -lad.p(level) - length + back, length, schedule)


@given(
    band=st.sampled_from([0, 10**8, 10**20, -(10**8), -(10**20)]),
    offset=st.integers(min_value=0, max_value=10**6),
    length=st.one_of(st.integers(min_value=0, max_value=300), st.sampled_from([487, 1500])),
)
@settings(max_examples=150, deadline=None)
def test_block_equals_pointwise_evaluation(band, offset, length):
    lad = ladder_new("default-minimal")
    start = band + offset
    block = _values(lad, range(start, start + length))
    assert block == [eval_ainf(lad, t) for t in range(start, start + length)]
    if start >= 0:
        assert alpha_source(lad).read(start, start + length) == eval_block(lad, range(start, start + length))
    for t in (start, start + length // 2):
        if length:
            assert block[t - start] == oracles.limit_value(t)


def test_explicit_schedule_window_matches_oracle():
    lad = _ladder(EXPLICIT)
    block = _values(lad, range(600))
    assert block == [oracles.limit_value(t, EXPLICIT) for t in range(600)]
    # the schedule really leaves powers of 3 behind
    assert any(v.denominator % 2 == 0 for v in block)
    # Longer than a period of b_0 (6) and of b_1 (2p[1]), so both are tiled,
    # on each side of 0 and across +-p[1]; and a sampled grid, a range read
    # by its structure.
    for schedule in SCHEDULES:
        lad = _ladder(schedule)
        period = 2 * lad.p(1)
        for start in (lad.p(1) + 1, lad.p(1) - 5, -lad.p(1) - 2 * period, -3 * period // 2):
            _check_block(lad, start, 2 * period + 7, schedule)
        grid = range(-lad.p(2), lad.p(2) + 1, lad.p(2) // 50)
        values = _values(lad, grid)
        assert values == [eval_ainf(lad, t) for t in grid]
        assert values == [oracles.limit_value(t, schedule) for t in grid]


def _steps(lad):
    """Steps of a sampled read: 2, steps around the period 2p[1] = 486 of
    b_1 on the default ladder and twice it (on (10, 72901) the period is
    540), and one past 2p[2], so that consecutive points meet different
    periods of b_2 and the levels above."""
    return (2, 485, 486, 487, 972, 2 * lad.p(2) + 7)


@pytest.mark.parametrize("schedule", [(), (10, 72901)], ids=["default", "10-72901"])
@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "tiled"])
def test_stepped_ranges_match_pointwise_evaluation_and_oracle(schedule, warm):
    # Ranges of 0 to 40 points around 0, +-p[1] and +-p[2], on a fresh
    # ladder (a read tiles only a period no longer than its points) and on
    # one whose periods of b_0 and b_1 are already tiled, so that a stepped
    # read indexes the tile.
    lad = _ladder(schedule)
    p1, p2 = lad.p(1), lad.p(2)
    for d in _steps(lad):
        for edge in (0, p1, -p1, p2, -p2):
            for count in (0, 1, 2, 3, 40):
                ladder = _ladder(schedule)
                if warm:
                    eval_block(ladder, range(-3 * p1, 3 * p1))
                    # one integer tile of each period, over its own denominator
                    assert ladder._memo[VALUES, 0, 0][1] == 1
                    assert ladder._memo[VALUES, 1, 0][1] == ladder.stretch(1)
                    assert all(type(n) is int for n in ladder._memo[VALUES, 1, 0][0])
                start = edge - (count // 2) * d - 1
                r = range(start, start + count * d, d)
                block = _values(ladder, r)
                assert block == [eval_ainf(ladder, t) for t in r], (d, start, count)
                for i in {0, count // 2, count - 1} & set(range(count)):
                    assert block[i] == oracles.limit_value(r[i], schedule), (d, r[i])


def test_stepped_reads_of_a_tile_repeat_with_its_cycle():
    # A read of step d over b_1's period 2p[1] repeats after 2p[1] / gcd(2p[1], d)
    # points; long reads over many cycles, cut at every offset, equal the
    # per-point values.
    lad = ladder_new("default-minimal")
    period = 2 * lad.p(1)
    for d in (2, 3, 162, 243, 485, 487, 973):
        start = lad.p(1) + 1
        r = range(start, start + (3 * period + 5) * d, d)
        assert _values(lad, r) == [eval_ainf(lad, t) for t in r], d


def test_block_rejects_negative_coordinates():
    # alpha's readers refuse a negative start; an empty range reads nothing
    with pytest.raises(DomainError):
        alpha_window(ladder_new(), -1, 3)
    with pytest.raises(IndexError):
        alpha_source(ladder_new()).read(-1, 2)
    assert eval_block(ladder_new(), range(5, 5)) == ([], 1)


def test_reads_share_period_tiles():
    # Two reads longer than a period of b_1 (2p[1]) inside the periodic stretch
    # [p[1] + 1, stretch(2)) are cut from one tile, over its denominator
    # stretch(1), so they compare as lists of integers.
    lad = ladder_new("default-minimal")
    period, start = 2 * lad.p(1), lad.p(1) + 1
    first = eval_block(lad, range(start, start + 2 * period + 5))
    second = eval_block(lad, range(start + period, start + 3 * period + 5))
    assert first[1] == second[1] == lad.stretch(1)
    assert first[0][period:] == second[0][:period + 5]


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_a_read_states_the_stretch_of_the_highest_ramp_it_meets(schedule):
    # The denominator of a read is the stretch of the highest level whose
    # ramp it meets, or 1: level 2 read on its repeats of level 1 is over
    # stretch(1), on its ramp over stretch(2), and on its plateau of ones
    # (or level 0 alone) over 1; a block from level 1's repeats into level
    # 2's ramp scales its first part once.
    lad = _ladder(schedule)
    s1, s2 = lad.stretch(1), lad.stretch(2)
    for r, den in ((range(lad.p(1) + 1, lad.p(1) + 600), s1), (range(10**6, 10**6 + 10), s1),
                   (range(s2 + 1, s2 + 50), s2), (range(2 * s2, 2 * s2 + 100), 1), (range(2, 4), 1),
                   (range(s2 - 20, s2 + 20), s2), (range(5 * s2 - 20, 5 * s2 + 20, 3), s2)):
        nums, got = eval_block(lad, r)
        assert got == den, (r, got)
        assert [F(n, got) for n in nums] == [oracles.limit_value(t, schedule) for t in r]


def test_a_read_at_rigidity_n11_shift_states_a_small_denominator():
    # verify rigidity --n 11 reads level 12 at 2p[11] + j, where the values
    # are those of level 1 and below; stretch(12) has about 1.7 million bits,
    # so a read over it would hold gigabytes
    lad = ladder_new("default-minimal")
    shift = 2 * lad.p(11)
    nums, den = eval_block(lad, range(shift, shift + 4096))
    assert den <= 27 and lad.stretch(12).bit_length() > 10**6
    assert [F(n, den) for n in nums[:600]] == [oracles.limit_value(j) for j in range(600)]


@given(schedule=st.sampled_from(SCHEDULES), n=st.integers(min_value=0, max_value=3), data=st.data())
@settings(max_examples=120, deadline=None)
def test_pieces_cover_a_range_and_read_the_level_below(schedule, n, data):
    lad = _ladder(schedule)
    P, L = oracles.tower(4, schedule)
    p, s = lad.p(n), lad.stretch(n) if n else 1
    # draws near the copy's edges as often as anywhere else
    edges = [k * s + d for k in range(-9, 10) for d in (-1, 0, 1) if -p <= k * s + d <= p]
    point = st.one_of(st.integers(min_value=-p, max_value=p), st.sampled_from(edges))
    lo, last = sorted((data.draw(point), data.draw(point)))
    hi = last + 1
    cut = list(pieces(lad, n, lo, hi))
    assert [a for a, *_ in cut] == [lo] + [b for _, b, *_ in cut][:-1]
    assert cut[-1][1] == hi and all(a < b for a, b, *_ in cut)
    for a, b, i, copies, s in cut:
        for x in sorted({a, min(a + 1, b - 1), (a + b) // 2, max(b - 2, a), b - 1}):
            value = oracles.raw_level(P, L, n, x)
            if i is None:
                assert value == 1 == profile(lad, n, x), x
                continue
            below = F(0)
            if n:
                h = P[n - 1]
                at = (i + x - a + h) % (2 * h) - h  # the periodized read at x
                assert at == _below(lad.sizes, n, x, 1), x
                below = oracles.raw_level(P, L, n - 1, at)
            copy = F(0) if copies is None else min(F(copies[x - a], s), F(1))
            if copies is not None:
                assert copies[x - a] == _copy(x, s)
            else:
                assert _copy(x, s) <= 0
            assert value == max(copy, below) == profile(lad, n, x), x
