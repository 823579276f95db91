import random
import time
from bisect import bisect_left
import tracemalloc
from fractions import Fraction as F
from functools import partial, reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from wkseq import certify, ladder, runs
from wkseq import (
    DomainError,
    check_ones_runs,
    check_returns,
    check_rigidity,
    check_shift_defect,
    check_wm_returns,
    eval_ainf,
    ladder_new,
)
from wkseq.cli import console_main
from wkseq.ladder import ONE, ZERO
from wkseq.sequence import alpha_windows
from wkseq.walker import eval_block


@pytest.fixture(scope="module")
def lad():
    return ladder_new("default-minimal")


@pytest.mark.parametrize("t", [0.1, 0.3, "1/8", 2.0])
def test_certificates_take_only_ints_and_fractions(lad, t):
    # a float or a string would reach the grid or the tolerance at its
    # binary or parsed value
    with pytest.raises(TypeError, match="int or a Fraction"):
        check_shift_defect(lad, 0, 0, t)
    with pytest.raises(TypeError, match="int or a Fraction"):
        check_wm_returns(lad, 0, eps=t)
    assert check_shift_defect(lad, 0, 0, 1).grid_step == 1
    assert check_wm_returns(lad, 0, eps=F(1, 8)).eps == F(1, 8)


def test_shift_defect_vanishes_on_own_period(lad):
    for n in (0, 1):
        rep = check_shift_defect(lad, n, n, 1)
        assert rep.max_defect == 0 and rep.passed
    big = check_shift_defect(lad, 2, 2, lad.p(2) // 81)
    assert big.max_defect == 0 and big.passed
    assert big.bound == F(1, 2)


def test_shift_defect_level_zero_bound_is_vacuous(lad):
    rep = check_shift_defect(lad, 0, 0, 1)
    assert rep.bound is None
    assert rep.passed
    assert rep.to_json_dict()["bound"] is None


def test_shift_defect_probe_hits_copy_ramp(lad):
    probe = 14349150
    rep = check_shift_defect(lad, 1, 2, lad.p(2) + probe)
    assert rep.max_defect == F(2, 59049)
    assert rep.argmax_index == 1
    assert rep.passed and rep.bound == 1
    p, L = oracles.tower(2)
    expected = abs(
        oracles.raw_periodized(p, L, 2, probe + 486)
        - oracles.raw_periodized(p, L, 2, probe)
    )
    assert rep.max_defect == expected


def test_shift_defect_sampled_deep_level():
    lad = ladder_new("default-minimal")
    step = (2 * lad.p(3)) // 16
    rep = check_shift_defect(lad, 2, 3, step)
    assert rep.passed and rep.max_defect < F(1, 2)
    p, L = oracles.tower(4)
    t, worst = -lad.p(3), F(0)
    while t <= lad.p(3):
        worst = max(
            worst,
            abs(
                oracles.raw_periodized(p, L, 3, t + 2 * p[2])
                - oracles.raw_periodized(p, L, 3, t)
            ),
        )
        t += step
    assert worst == rep.max_defect


def test_shift_defect_preconditions(lad):
    with pytest.raises(DomainError):
        check_shift_defect(lad, 2, 1, 1)
    # a fresh ladder grows to the levels the check reads
    assert check_shift_defect(ladder_new(), 1, 1, 1) == check_shift_defect(lad, 1, 1, 1)
    with pytest.raises(ValueError):
        check_shift_defect(lad, 1, 1, 0)


def test_rigidity_certificates(lad):
    rep = check_rigidity(lad, 1, 486)
    assert rep.passed and rep.bound == 1 and rep.shift == 486
    assert rep.max_defect == 0
    assert rep.tested_range == (0, 486)
    rep2 = check_rigidity(lad, 2, 40)
    assert rep2.passed and rep2.bound == F(1, 2)
    for j in range(0, 40, 7):
        assert abs(
            oracles.seq_value(j + rep2.shift) - oracles.seq_value(j)
        ) == abs(rep2.max_defect) == 0


def test_rigidity_rejects_level_zero(lad):
    with pytest.raises(DomainError):
        check_rigidity(lad, 0, 10)
    with pytest.raises(ValueError):
        check_rigidity(lad, 1, 0)


def test_returns_level_zero(lad):
    rep = check_returns(lad, 0, range(-3, 4))
    assert rep.passed and rep.all_equal
    assert (rep.left_shift, rep.right_shift) == (162, 161)
    assert rep.checked == 7 and rep.first_mismatch is None
    assert oracles.seq_value(161) == oracles.seq_value(0) == 0


def test_returns_level_one(lad):
    rep = check_returns(lad, 1, range(-243, 244))
    assert rep.all_equal
    assert rep.right_shift == 86093441


def test_returns_sampled_level_two(lad):
    p2 = lad.p(2)
    grid = range(-p2, p2 + 1, (2 * p2) // 999)
    rep = check_returns(lad, 2, grid)
    assert rep.all_equal and rep.checked == len(grid)
    assert rep.left_shift == 2 * 3 * lad.L(3) * p2


def test_returns_grid_out_of_range(lad):
    with pytest.raises(DomainError):
        check_returns(lad, 0, range(4, 5))
    with pytest.raises(DomainError, match="grid point -4 outside"):
        check_returns(lad, 0, range(3, -5, -1))
    with pytest.raises(ValueError, match="at least one grid point"):
        check_returns(lad, 1, range(0))


@pytest.mark.parametrize("grid", [[F(1, 2), 0.9, 1], [0, 1.0], ["1"], [F(2, 1)]])
def test_returns_refuses_a_point_that_is_not_an_integer(lad, grid):
    # a grid is a range of integers, and an end point an integer past it
    with pytest.raises(ValueError, match="must be a range"):
        check_returns(lad, 0, grid)
    for t in grid:
        if not isinstance(t, int):
            with pytest.raises(ValueError, match=r"end point .* is not an integer past the grid"):
                check_returns(lad, 0, range(-3, -2), t)


def test_returns_refuses_a_list_grid_and_an_end_point_not_past_the_grid(lad):
    p = lad.p(1)
    grid = range(-p, p + 1, 10)
    for g, end in (([*grid], None), ([*grid], p), (iter(grid), None), (grid, grid[3]), (grid, grid[-1]),
                   (grid[::-1], grid[0]), (grid[1:], -p), (range(0), p)):
        with pytest.raises(ValueError):
            check_returns(lad, 1, g, end)


def test_returns_refuses_an_oversized_grid_before_sorting_it(lad):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=str(certify.SCAN_LIMIT)):
        check_returns(lad, 2, range(-5 * 10**6, 5 * 10**6))
    with pytest.raises(ValueError, match=str(certify.SCAN_LIMIT)):
        check_returns(lad, 2, range(-lad.p(2), lad.p(2) + 1))
    assert time.perf_counter() - start < 0.5
    # a descending range is the same grid as the ascending one
    assert check_returns(lad, 1, range(243, -244, -1)) == check_returns(lad, 1, range(-243, 244))



@pytest.mark.parametrize("n", [1, 2])
def test_returns_range_and_end_point_apart_match_their_list(lad, n, monkeypatch):
    # the CLI's sampled grid is a range and the end point p[n] past it: the
    # report is that of the list of the range's points in ascending order,
    # then the end point, scanned point by point
    p = lad.p(n)
    step = next(s for s in range(2 * p // 97, 2 * p) if 2 * p % s)  # p is not on the progression
    grid = range(-p, p + 1, step)
    for g, end in ((grid, p), (grid[::-1], p), (grid[:4], grid[5] + 1), (grid[:1], p), (grid[:-1], grid[-1])):
        rep = check_returns(lad, n, g, end)
        points = [*sorted(g), end]
        defect = _reference_defect(lad, points, (-rep.left_shift, rep.right_shift), first=True)[0]
        assert (rep.checked, rep.all_equal, rep.first_mismatch) == (len(points), defect == 0, None), (g, end)
    # a mismatch planted at the end point, alone or after one in the range
    for planted in ({p}, {grid[7], p}):
        def read(ladder, ts):
            return [F(1, 2) if t in planted else v for t, v in zip(ts, eval_block(ladder, ts))]

        with monkeypatch.context() as mp:
            mp.setattr(certify, "eval_block", read)
            rep = check_returns(lad, n, grid, p)
        assert rep.first_mismatch == min(planted) and rep.checked == len(grid) + 1
    with pytest.raises(ValueError, match=r"end point Fraction\(1, 2\) is not an integer"):
        check_returns(lad, n, grid, F(1, 2))
    with pytest.raises(DomainError, match=f"grid point {p + 1} outside"):
        check_returns(lad, n, grid, p + 1)


def test_returns_range_and_end_point_count_against_the_scan_limit(lad):
    p2 = lad.p(2)
    full = range(-p2, -p2 + certify.SCAN_LIMIT)
    with pytest.raises(ValueError, match=str(certify.SCAN_LIMIT)):
        check_returns(lad, 2, full, p2)
    assert check_returns(lad, 2, full[1:], p2).checked == certify.SCAN_LIMIT


def test_wm_level_zero(lad):
    rep = check_wm_returns(lad, 0)
    assert rep.N == 161
    assert rep.forward_exact and rep.backward_exact
    assert rep.agree_len == 4
    assert rep.dist_hi == F(1, 8)
    assert rep.passed
    for i in range(4):
        assert oracles.seq_value(i + 161) == oracles.seq_value(i)
        assert oracles.limit_value(i - 162) == oracles.seq_value(i)


def test_wm_eps_one_passes_and_tight_eps_fails(lad):
    assert check_wm_returns(lad, 0, eps=1).passed
    rep = check_wm_returns(lad, 0, eps=F(1, 8))
    assert rep.forward_exact and rep.backward_exact
    assert not rep.passed


def test_ones_runs_scan_matches_oracle(lad):
    rep = check_ones_runs(lad, 1, 2000)
    assert rep.mode == "scan"
    assert rep.passed
    assert rep.run_length_required == 27 and rep.gap_bound == 486
    bits = [1 if oracles.seq_value(i) == 1 else 0 for i in range(2001)]
    expected = [
        r for r in oracles.ones_runs_by_scan(bits) if r[1] - r[0] + 1 >= 27
    ]
    assert rep.first_run == expected[0] == (54, 111)
    assert rep.runs_found == len(expected)


#: Windows from the least level-1 window, 2p[1] = 486, to 10^5; the explicit
#: schedule's least window is 2p[1] = 540.
PLATEAU_WINDOWS = [486, 487, 539, 540, 600, 729, 1000, 1457, 2000, 2917, 4373,
                   6561, 9999, 13122, 19683, 27000, 39366, 59049, 77777, 100000]
#: Level-2 windows around the least on each ladder, 2p[2] = 258 280 326 on
#: the default one and 486 000 000 on the explicit one, and far past both.
LEVEL_TWO_WINDOWS = [258280325, 258280326, 3 * 10**8, 485999999, 486000000, 10**12, 10**20]


@pytest.mark.parametrize("schedule", [(), (10, 100000)], ids=["default", "explicit"])
@pytest.mark.parametrize("window", PLATEAU_WINDOWS + LEVEL_TWO_WINDOWS)
def test_ones_runs_plateau_agrees_with_scan(window, schedule):
    # every mode runs the one fold: the reports differ only in their label
    n = 1 if window in PLATEAU_WINDOWS else 2
    lad = ladder_new(schedule or "default-minimal")
    if window < 2 * lad.p(n):
        for mode in ("scan", "plateau", "auto"):
            with pytest.raises(ValueError):
                check_ones_runs(lad, n, window, mode=mode)
        return
    scan, plat, auto = (check_ones_runs(lad, n, window, mode=mode) for mode in ("scan", "plateau", "auto"))
    assert plat == scan._replace(mode="plateau")
    assert auto == (scan if n == 1 else plat)
    assert scan.runs_found > 0


#: Plateau reports (n, window, runs_found, first_run, worst_gap) of the
#: default ladder and of the schedule (10, 72901), as the walk that replayed
#: every repeat gave them, but for each level-2 first run, which ends where
#: alpha's run of ones does; every one passes.
PLATEAU_REPORTS = {
    (): [
        (1, 10**5, 617, (54, 111), 134),
        (1, 10**6, 6173, (54, 111), 134),
        (1, 10**7, 61728, (54, 111), 134),
        (1, 10**8, 440138, (54, 111), 134),
        (2, 10**9, 12, (28697814, 57395631), 71744534),
        (2, 10**12, 11615, (28697814, 57395631), 71744534),
        (2, 10**13, 116153, (28697814, 57395631), 71744534),
        (2, 10**14, 1161529, (28697814, 57395631), 71744534),
    ],
    (10, 72901): [
        (1, 10**5, 556, (60, 123), 149),
        (1, 10**6, 5556, (60, 123), 149),
        (1, 10**7, 55556, (60, 123), 149),
        (1, 10**8, 336854, (60, 123), 149),
        (2, 10**9, 8, (39366540, 78733083), 98416349),
        (2, 10**12, 8467, (39366540, 78733083), 98416349),
        (2, 10**13, 84674, (39366540, 78733083), 98416349),
        (2, 10**14, 846743, (39366540, 78733083), 98416349),
    ],
}


@pytest.mark.parametrize(
    "n, window, runs_found, first_run, worst_gap",
    [
        (2, 3 * 10**8, 3, (28697814, 57395631), 71744534),
        (2, 10**12, 11615, (28697814, 57395631), 71744534),
        (3, 4 * 10**25, 3, (4307387926151115532621494, 8614775852302231065242991),
         10768469815377788831553734),
        *(row for row in PLATEAU_REPORTS[()] if row[:2] != (2, 10**12)),
        # windows the walk that replayed every repeat could not decide: n = 1
        # at 10^9 took more than 5 minutes, n = 2 at 10^20 about 10^6 times 15 s
        (1, 10**9, 4074393, (54, 111), 134),
        (2, 10**20, 1161528656271, (28697814, 57395631), 71744534),
    ],
)
def test_ones_runs_plateau_reports_are_pinned(lad, n, window, runs_found, first_run, worst_gap):
    rep = check_ones_runs(lad, n, window, mode="plateau")
    assert rep.passed
    assert (rep.runs_found, rep.first_run, rep.worst_gap) == (runs_found, first_run, worst_gap)
    _is_a_whole_run(first_run, ())


def _is_a_whole_run(run, schedule):
    """alpha is 1 at both ends of run, and not 1 just outside it."""
    u, v = run
    assert [oracles.limit_value(t, schedule) == 1 for t in (u - 1, u, v, v + 1)] == [False, True, True, False]


@pytest.mark.parametrize(
    "schedule, n, window, runs_found, first_run, worst_gap",
    [(schedule, *row) for schedule, rows in PLATEAU_REPORTS.items() for row in rows],
)
def test_ones_plateau_cli_bytes_are_pinned(tmp_path, capsys, schedule, n, window, runs_found, first_run, worst_gap):
    # the whole stdout of `verify ones --mode plateau`, byte for byte
    argv = ["verify", "ones", "--n", str(n), "--window", str(window), "--mode", "plateau"]
    if schedule:
        (tmp_path / "schedule.txt").write_text("".join(f"{x}\n" for x in schedule))
        argv = ["--ladder-schedule", str(tmp_path / "schedule.txt"), *argv]
    lad = ladder_new(schedule or "default-minimal")
    assert console_main(argv) == 0
    _is_a_whole_run(first_run, schedule)
    assert capsys.readouterr().out == (
        '{\n  "first_run": [\n    %d,\n    %d\n  ],\n  "gap_bound": %d,\n  "lemma": "ones-runs",\n'
        '  "mode": "plateau",\n  "n": %d,\n  "pass": true,\n  "run_length_required": %d,\n'
        '  "runs_found": %d,\n  "schema": "wk-report/1",\n  "window": [\n    0,\n    %d\n  ],\n'
        '  "worst_gap": %d\n}\n'
    ) % (*first_run, 2 * lad.p(n), n, lad.p(n) // 9, runs_found, window, worst_gap)


@settings(max_examples=60, deadline=None)
@given(schedule=st.sampled_from([(), (10, 72901)]), required=st.integers(1, 90), data=st.data())
@example(schedule=(), required=27, data=None)  # level 1's certificate
@example(schedule=(10, 72901), required=70, data=None)  # the explicit ladder
def test_ones_runs_plateau_fold_matches_a_naive_walk(schedule, required, data):
    # The folded summary against every coordinate read by the oracle at the
    # least level covering it.  Windows end mid-repeat, level 0's and 1's runs
    # fuse across the seams of their periods, and runs under `required` are
    # read and dropped.
    window = data.draw(st.integers(required, 700)) if data else 486
    end = data.draw(st.integers(window, 4000)) if data else 3000
    lad = ladder_new(schedule or "default-minimal")
    P, L = oracles.tower(3, schedule)
    bits = [oracles.raw_level(P, L, bisect_left(P, x), x) == 1 for x in range(end + 1)]
    found = oracles.ones_runs_by_scan(bits)
    assert runs._plateau(lad, required, window, end) == _summary_by_brute_force(found, required, window, end)


def test_ones_runs_level_two_plateau(lad):
    rep = check_ones_runs(lad, 2, 300_000_000)
    assert rep.mode == "plateau"
    assert rep.passed
    q = lad.stretch(2)
    # the plateau [2q, 4q] of ones, and past it the level below's ones at 4q + 1 .. 4q + 3
    assert rep.first_run == (2 * q, 4 * q + 3)
    assert rep.run_length_required == lad.p(2) // 9
    _is_a_whole_run(rep.first_run, ())
    assert oracles.limit_value(6 * q) == 0


def test_ones_runs_preconditions(lad):
    with pytest.raises(DomainError):
        check_ones_runs(lad, 0, 1000)
    with pytest.raises(ValueError):
        check_ones_runs(lad, 1, 485)
    with pytest.raises(ValueError):
        check_ones_runs(lad, 1, 2000, mode="guess")



def _summary_by_brute_force(found, required, window, end):
    """The ones summary read off every slice and every block start."""
    long = [(u, v) for u, v in found if v - u + 1 >= required]
    covered = all(
        any(min(v, s + window - 1) - max(u, s) + 1 >= required for u, v in long)
        for s in range(end - window + 2)
    )
    starts = [x for u, v in long for x in range(u, v - required + 2)]
    worst = max(b - a for a, b in zip([0, *starts], starts)) if starts else end + 1
    return covered, worst, long[0] if long else None, len(long)


@st.composite
def _run_lists(draw):
    """Sorted, disjoint runs, some past `end`, with a window of at least
    `required` and an end of at least `window`."""
    required = draw(st.integers(1, 5))
    window = draw(st.integers(required, 24))
    end = draw(st.integers(window, window + 40))
    found, u = [], 0
    for gap, length in draw(st.lists(st.tuples(st.integers(0, 12), st.integers(1, 12)), max_size=8)):
        found.append((u + gap, u + gap + length - 1))
        u = found[-1][1] + 1
    return [r for r in found if r[0] <= end + 10], required, window, end


@settings(deadline=None)
@given(_run_lists())
@example(([], 2, 5, 9))  # no runs
@example(([(0, 6)], 3, 6, 12))  # a run at 0, longer than required
@example(([(3, 5), (9, 12)], 3, 6, 12))  # a run ending at end
@example(([(1, 2), (4, 8), (10, 10)], 3, 6, 12))  # runs shorter than required
@example(([(2, 4), (5, 9)], 3, 6, 12))  # adjacent runs
@example(([(0, 12), (20, 24)], 3, 6, 14))  # coverage lost only after the last slice
@example(([(4, 6)], 3, 6, 9))  # a lead-in one past the slack: slice 0 holds two ones
@example(([(0, 2), (5, 7)], 3, 6, 9))  # a step one past the slack: slice 1 holds two ones
def test_ones_summary_matches_brute_force(case):
    # The fold's verdict on 0 .. end, from flat stretches of ones and zeros
    # (the runs cut at end) joined from the left and from the right, against
    # every slice and block start of the runs those stretches make.
    found, required, window, end = case
    alg, stretches, u = runs._Runs(required), [], 0
    for a, b in found:
        a, b = min(a, end + 1), min(b, end)
        stretches += [alg.flat(ZERO, range(u, a)), alg.flat(ONE, range(a, b + 1))]
        u = max(u, b + 1)
    stretches.append(alg.flat(ZERO, range(u, end + 1)))
    bits = [any(a <= x <= b for a, b in found) for x in range(end + 1)]
    long = [(a, b) for a, b in oracles.ones_runs_by_scan(bits) if b - a + 1 >= required]
    expected = _summary_by_brute_force(long, required, window, end), long[-1][1] if long else None
    assert alg.verdict(reduce(alg.join, stretches), window, end) == expected
    assert alg.verdict(reduce(lambda x, y: alg.join(y, x), stretches[::-1]), window, end) == expected


@pytest.mark.parametrize("window", [10**11, 10**12, 10**14, 10**20])
def test_ones_runs_plateau_memory_is_flat(lad, window):
    # repeats of a period are joined by count, so neither the time nor the
    # memory grows with the window (the walk that replayed every repeat took
    # 13 s at 10^14)
    _plateau_is_fast_and_flat(lad, 2, window)


def test_ones_runs_plateau_level_one_is_fast_and_flat(lad):
    # no answer in 5 minutes from the walk that replayed every repeat
    _plateau_is_fast_and_flat(lad, 1, 10**9)


def _plateau_is_fast_and_flat(lad, n, window):
    check_ones_runs(lad, n, 2 * lad.p(n), "plateau")  # the runs module is imported
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert check_ones_runs(lad, n, window, "plateau").passed
        assert time.perf_counter() - start < 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024

def test_report_json_shapes(lad):
    docs = [
        check_shift_defect(lad, 1, 1, 1).to_json_dict(),
        check_rigidity(lad, 1, 10).to_json_dict(),
        check_returns(lad, 0, range(-3, 4)).to_json_dict(),
        check_wm_returns(lad, 0).to_json_dict(),
        check_ones_runs(lad, 1, 486).to_json_dict(),
    ]
    assert docs == [
        {"schema": "wk-report/1", "lemma": "shift-defect", "n": 1, "m": 1,
         "shift": 486, "tested_range": [-243, 243], "grid_step": "1/1",
         "max_defect": "0/1", "bound": "1/1", "argmax_index": 0, "pass": True},
        {"schema": "wk-report/1", "lemma": "rigidity", "n": 1, "m": None,
         "shift": 486, "tested_range": [0, 10], "grid_step": None,
         "max_defect": "0/1", "bound": "1/1", "argmax_index": 0, "pass": True},
        {"schema": "wk-report/1", "lemma": "returns", "n": 0, "left_shift": 162,
         "right_shift": 161, "checked": 7, "all_equal": True,
         "first_mismatch": None, "pass": True},
        {"schema": "wk-report/1", "lemma": "wm-returns", "n": 0, "N": 161,
         "agree_len": 4, "forward_exact": True, "backward_exact": True,
         "dist_hi": "1/8", "eps": "1/2", "pass": True},
        {"schema": "wk-report/1", "lemma": "ones-runs", "n": 1,
         "run_length_required": 27, "gap_bound": 486, "window": [0, 486],
         "worst_gap": 134, "first_run": [54, 111], "runs_found": 3,
         "mode": "scan", "pass": True},
    ]


def test_scan_kernel_ties_and_early_return(monkeypatch):
    values = {0: 0, 1: 2, 2: 0, 3: 5, 4: 3, 5: 0, 6: 5, 7: 1}
    seen = []

    def read(points):
        assert isinstance(points, range)
        seen.append(list(points))
        return [F(values[t]) for t in points]  # equal values, never one object

    for block in (1, 2, 4096):
        monkeypatch.setattr(ladder, "STREAM_BLOCK", block)
        # |f(t+1) - f(t)| over t = 0..6 is 2, 2, 5, 2, 3, 5, 4: the first 5 wins
        assert certify._max_defect(read, range(7), (1,)) == (5, 2)
        assert certify._max_defect(read, range(3, 7, 2), (-2, 1)) == (5, 1)
        assert certify._max_defect(read, range(0, 3, 2), (0, 2)) == (3, 1)
        assert certify._max_defect(read, range(1), (2, 5)) == (0, 0)
        # the first nonzero defect in point order, then in each point's shift order
        assert certify._max_defect(read, range(2), (2, 1), first=True) == (2, 0)
        seen.clear()
        assert certify._max_defect(read, range(1, 7), (1,), first=True) == (2, 0)
        # no block after the one holding the defect is read
        head = list(range(1, 7))[:block]
        assert seen == [head, [t + 1 for t in head]]
        seen.clear()
        # at 4 the shift -3 moves the value by 1 before the shift 1 moves it by 3
        assert certify._max_defect(read, range(4, 7), (0, -3, 1), first=True) == (1, 0)
        head = list(range(4, 7))[:block]
        assert seen == [head, head, [t - 3 for t in head], [t + 1 for t in head]]
        assert certify._max_defect(read, range(0), (1,)) == (0, 0)


def _reference_defect(lad, points, shifts, first=False, value=eval_ainf):
    """The scan point by point through eval_ainf (or `value`), as it ran
    before block reads."""
    worst, worst_i = F(0), 0
    for i, t in enumerate(points):
        here = value(lad, t)
        for s in shifts:
            defect = abs(value(lad, t + s) - here)
            if defect > worst:
                worst, worst_i = defect, i
                if first:
                    return worst, worst_i
    return worst, worst_i


@pytest.mark.parametrize("count", [1, 4095, 4096, 4097])
def test_block_scans_match_point_by_point_scan(lad, count):
    for n in (1, 2):
        rep = check_rigidity(lad, n, count)
        assert (rep.max_defect, rep.argmax_index) == _reference_defect(lad, range(count), (rep.shift,))
    p2 = lad.p(2)
    contiguous = range(-p2, -p2 + count)
    # a contiguous grid, ascending or descending, and a stepped one are each
    # read by the structure of alpha
    for grid in (contiguous, contiguous[::-1], range(-p2, p2 + 1, 2 * p2 // count)):
        rep = check_returns(lad, 2, grid)
        defect = _reference_defect(lad, grid, (-rep.left_shift, rep.right_shift), first=True)[0]
        assert rep.all_equal == (defect == 0) and rep.checked == len(grid)
    for n in (0, 1):
        rep = check_wm_returns(lad, n)
        agree = range(rep.agree_len)
        assert rep.forward_exact == (_reference_defect(lad, agree, (rep.N,), True)[0] == 0)
        assert rep.backward_exact == (_reference_defect(lad, agree, (-rep.N - 1,), True)[0] == 0)
    # Nonzero defects, with ties, across block edges: alpha against its own
    # shifts on the level-2 ramp, and the first change after the plateau of
    # ones on [2 stretch(2), 4 stretch(2)] placed at index count - 1.
    read = partial(eval_block, lad)
    ramp = range(lad.stretch(2) + 100, lad.stretch(2) + 100 + count)
    assert certify._max_defect(read, ramp, (1, -3)) == _reference_defect(lad, ramp, (1, -3))
    edge = 4 * lad.stretch(2)
    while eval_ainf(lad, edge + 1) == eval_ainf(lad, edge):
        edge += 1
    points = range(edge - count + 1, edge + 2)
    got = certify._max_defect(read, points, (1,), first=True)
    assert got == _reference_defect(lad, points, (1,), first=True)
    assert got[1] == count - 1 and got[0] > 0


def _return_grids(lad, n):
    """Grids (range, end point) in [-p[n], p[n]]: scattered (a random start
    and step), contiguous and descending, arithmetic, and the CLI's sampled
    grid, an arithmetic one and its end point p[n] apart."""
    p, rng = lad.p(n), random.Random(n)
    step = next(s for s in range(2 * p // 97, 2 * p) if 2 * p % s)  # p is not on the progression
    return {
        "scattered": (range(-p + rng.randrange(40), p + 1, rng.randrange(2 * p // 400 + 2, 2 * p // 150 + 3)), None),
        "contiguous": (range(lad.p(n - 1) - 200, lad.p(n - 1) + 200)[::-1], None),
        "arithmetic": (range(-p, p + 1, 2 * p // 98), None),
        "arithmetic-plus-end": (range(-p, p + 1, step), p),
    }


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["scattered", "contiguous", "arithmetic", "arithmetic-plus-end"])
def test_returns_grids_match_point_by_point_scan(lad, n, kind, monkeypatch):
    grid, end = _return_grids(lad, n)[kind]
    points = [*sorted(grid), *([] if end is None else [end])]  # the order of the scan
    rep = check_returns(lad, n, grid, end)
    shifts = (-rep.left_shift, rep.right_shift)
    assert rep.checked == len(points)
    assert rep.all_equal and _reference_defect(lad, points, shifts, first=True)[0] == 0
    # A value planted at grid points is a mismatch there: the report names
    # the first one in the order of the scan, in the range or at its end.
    for planted in ({points[-1]}, {points[len(points) // 3], points[-1]}, {points[1], points[2]}):
        def read(ladder, ts):
            return [F(1, 2) if t in planted else v for t, v in zip(ts, eval_block(ladder, ts))]

        def value(ladder, t):
            return F(1, 2) if t in planted else eval_ainf(ladder, t)

        monkeypatch.setattr(certify, "eval_block", read)
        rep = check_returns(lad, n, grid, end)
        defect, at = _reference_defect(lad, points, shifts, first=True, value=value)
        assert defect > 0 and not rep.all_equal
        assert rep.first_mismatch == points[at] == min(planted)


@pytest.mark.parametrize("block", [7, 64, 4096])
def test_ones_scan_of_alpha_matches_oracle(lad, block, monkeypatch):
    # The runs of alpha 486k + 54 .. 486k + 111, with windows that end inside
    # one, at its last one and after it.  The certificate reads no stream
    # block; the oracle's ones are checked against alpha streamed in blocks of
    # `block` values, whose edges fall inside runs and between them.
    bits = [1 if oracles.seq_value(i) == 1 else 0 for i in range(4501)]
    monkeypatch.setattr(ladder, "STREAM_BLOCK", block)
    streamed = [v for w in alpha_windows(lad, 0, 4501) for v in w.values]
    assert [1 if v == 1 else 0 for v in streamed] == bits
    for end in (486, 566, 597, 598, 4500):
        rep = check_ones_runs(lad, 1, end, mode="scan")
        found = oracles.ones_runs_by_scan(bits[:end + 1])
        assert (rep.passed, rep.worst_gap, rep.first_run, rep.runs_found) == \
            _summary_by_brute_force(found, 27, 486, end)


def test_scan_limit_refuses_before_evaluating(lad):
    def f(t):
        raise AssertionError("a refused scan evaluated a point")

    limit = certify.SCAN_LIMIT
    assert certify.scan_points(range(limit)) == range(limit)
    with pytest.raises(ValueError, match=str(limit)):
        certify._max_defect(f, range(limit + 1), (1,))
    with pytest.raises(ValueError, match=str(limit)):
        certify._max_defect(f, range(-(10**30), 10**30), (1,))
    with pytest.raises(ValueError, match=str(limit)):
        check_rigidity(lad, 1, limit + 1)
    with pytest.raises(ValueError, match=str(limit)):
        check_wm_returns(lad, 2)
