"""Differential tests of the integer evaluator kernel and of `eval_block`.

Every expected value comes from `tests/oracles.py`, which shares no code
with the package, on the default ladder and on an explicit schedule whose
level sizes and stretches are not powers of 3.
"""
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fixtures import profile
from wkseq import DomainError, eval_ainf, eval_b, ladder_new
from wkseq.ladder import ONE, ZERO, _below, _copy
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


def _check_block(lad, start, length, schedule, near=None):
    """eval_block on start .. start+length-1 equals per-point eval_ainf, and
    tests/oracles.py at every point, or only within 1 of `near`; every 1 in
    it is the shared ONE."""
    block = eval_block(lad, range(start, start + length))
    assert block == [eval_ainf(lad, t) for t in range(start, start + length)], start
    for t in range(start, start + length):
        if near is None or abs(t - near) <= 1:
            assert block[t - start] == oracles.limit_value(t, schedule), t
    assert all(v is ONE for v in block if v == 1)


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
        block = eval_block(lad, range(start, start + 5))
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
    block = eval_block(lad, range(start, start + length))
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
    block = eval_block(lad, range(start, start + length))
    assert block == [eval_ainf(lad, t) for t in range(start, start + length)]
    assert all(v is ONE for v in block if v == 1)
    if start >= 0:
        assert alpha_source(lad).read(start, start + length) == block
    for t in (start, start + length // 2):
        if length:
            assert block[t - start] == oracles.limit_value(t)


def test_explicit_schedule_window_matches_oracle():
    lad = _ladder(EXPLICIT)
    block = eval_block(lad, range(600))
    assert block == [oracles.limit_value(t, EXPLICIT) for t in range(600)]
    # the schedule really leaves powers of 3 behind
    assert any(v.denominator % 2 == 0 for v in block)
    # Longer than a period of b_0 (6) and of b_1 (2p[1]), so both are tiled,
    # on each side of 0 and across +-p[1]; and a sampled grid, read point by
    # point.
    for schedule in SCHEDULES:
        lad = _ladder(schedule)
        period = 2 * lad.p(1)
        for start in (lad.p(1) + 1, lad.p(1) - 5, -lad.p(1) - 2 * period, -3 * period // 2):
            _check_block(lad, start, 2 * period + 7, schedule)
        grid = range(-lad.p(2), lad.p(2) + 1, lad.p(2) // 50)
        values = eval_block(lad, grid)
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
                    assert {(VALUES, 0, 0), (VALUES, 1, 0)} <= set(ladder._memo)
                start = edge - (count // 2) * d - 1
                r = range(start, start + count * d, d)
                block = eval_block(ladder, r)
                assert block == [eval_ainf(ladder, t) for t in r], (d, start, count)
                assert all(v is ONE for v in block if v == 1)
                assert all(v is ZERO for v in block if v == 0)
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
        assert eval_block(lad, r) == [eval_ainf(lad, t) for t in r], d


def test_block_rejects_negative_coordinates():
    # alpha's readers refuse a negative start; an empty range reads nothing
    with pytest.raises(DomainError):
        alpha_window(ladder_new(), -1, 3)
    with pytest.raises(IndexError):
        alpha_source(ladder_new()).read(-1, 2)
    assert eval_block(ladder_new(), range(5, 5)) == []


def test_reads_share_period_tiles():
    # Two reads longer than a period of b_1 (2p[1]) inside the periodic stretch
    # [p[1] + 1, stretch(2)) hand out the same objects at the same coordinates,
    # so comparing them never needs Fraction.__eq__.
    lad = ladder_new("default-minimal")
    period, start = 2 * lad.p(1), lad.p(1) + 1
    first = eval_block(lad, range(start, start + 2 * period + 5))
    second = eval_block(lad, range(start + period, start + 3 * period + 5))
    assert first[period:] == second[:period + 5]
    assert all(a is b for a, b in zip(first[period:], second))


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
