from fractions import Fraction as F
from functools import partial

import pytest

import oracles
from wkseq import certify, sequence
from wkseq import (
    DomainError,
    LadderDepthError,
    check_ones_runs,
    check_returns,
    check_rigidity,
    check_shift_defect,
    check_wm_returns,
    eval_ainf,
    ladder_new,
)
from wkseq.ladder import eval_block


@pytest.fixture(scope="module")
def lad():
    return ladder_new("default-minimal", depth=3)


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
    lad = ladder_new("default-minimal", depth=4)
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
    shallow = ladder_new("default-minimal", depth=1)
    with pytest.raises(LadderDepthError):
        check_shift_defect(shallow, 1, 1, 1)
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
    grid = list(range(-p2, p2 + 1, (2 * p2) // 999))
    rep = check_returns(lad, 2, grid)
    assert rep.all_equal and rep.checked == len(grid)
    assert rep.left_shift == 2 * 3 * lad.L(3) * p2


def test_returns_grid_out_of_range(lad):
    with pytest.raises(DomainError):
        check_returns(lad, 0, [4])
    with pytest.raises(ValueError, match="at least one grid point"):
        check_returns(lad, 1, [])


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


@pytest.mark.parametrize("schedule", [(), (10, 100000)], ids=["default", "explicit"])
@pytest.mark.parametrize("window", PLATEAU_WINDOWS)
def test_ones_runs_plateau_agrees_with_scan(window, schedule):
    lad = ladder_new(schedule or "default-minimal", depth=2)
    if window < 2 * lad.p(1):
        for mode in ("scan", "plateau"):
            with pytest.raises(ValueError):
                check_ones_runs(lad, 1, window, mode=mode)
        return
    scan = check_ones_runs(lad, 1, window, mode="scan")
    plat = check_ones_runs(lad, 1, window, mode="plateau")
    assert plat == scan._replace(mode="plateau")
    assert scan.runs_found > 0


@pytest.mark.parametrize(
    "n, window, runs_found, first_run, worst_gap",
    [
        (2, 3 * 10**8, 3, (28697814, 57395628), 71744534),
        (2, 10**12, 11615, (28697814, 57395628), 71744534),
        (3, 4 * 10**25, 3, (4307387926151115532621494, 8614775852302231065242988),
         10768469815377788831553734),
    ],
)
def test_ones_runs_plateau_reports_are_pinned(lad, n, window, runs_found, first_run, worst_gap):
    rep = check_ones_runs(lad, n, window, mode="plateau")
    assert rep.passed
    assert (rep.runs_found, rep.first_run, rep.worst_gap) == (runs_found, first_run, worst_gap)


def test_ones_runs_level_two_plateau(lad):
    rep = check_ones_runs(lad, 2, 300_000_000)
    assert rep.mode == "plateau"
    assert rep.passed
    q = lad.stretch(2)
    assert rep.first_run == (2 * q, 4 * q)
    assert rep.run_length_required == lad.p(2) // 9
    assert oracles.limit_value(2 * q) == 1
    assert oracles.limit_value(4 * q) == 1
    assert oracles.limit_value(6 * q) == 0


def test_ones_runs_preconditions(lad):
    with pytest.raises(DomainError):
        check_ones_runs(lad, 0, 1000)
    with pytest.raises(ValueError):
        check_ones_runs(lad, 1, 485)
    with pytest.raises(ValueError):
        check_ones_runs(lad, 1, 2000, mode="guess")


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
        seen.append(list(points))
        return [F(values[t]) for t in seen[-1]]  # equal values, never one object

    for block in (1, 2, 4096):
        monkeypatch.setattr(sequence, "STREAM_BLOCK", block)
        # |f(t+1) - f(t)| over t = 0..6 is 2, 2, 5, 2, 3, 5, 4: the first 5 wins
        assert certify._max_defect(read, range(7), (1,)) == (5, 2)
        assert certify._max_defect(read, [3, 5, 6], (-2, 1)) == (5, 1)
        assert certify._max_defect(read, [0, 2], (0, 2)) == (3, 1)
        assert certify._max_defect(read, [0], (2, 5)) == (0, 0)
        # the first nonzero defect in point order, then in each point's shift order
        assert certify._max_defect(read, [0, 1], (2, 1), first=True) == (2, 0)
        seen.clear()
        assert certify._max_defect(read, range(1, 7), (1,), first=True) == (2, 0)
        # no block after the one holding the defect is read
        head = list(range(1, 7))[:block]
        assert seen == [head, [t + 1 for t in head]]
        seen.clear()
        assert certify._max_defect(read, [5, 2, 3], (0, 1, -2), first=True) == (5, 0)
        head = [5, 2, 3][:block]
        assert seen == [head, head, [t + 1 for t in head], [t - 2 for t in head]]
        assert certify._max_defect(read, [], (1,)) == (0, 0)


def _reference_defect(lad, points, shifts, first=False):
    """The scan point by point through eval_ainf, as it ran before block reads."""
    worst, worst_i = F(0), 0
    for i, t in enumerate(points):
        here = eval_ainf(lad, t)
        for s in shifts:
            defect = abs(eval_ainf(lad, t + s) - here)
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
    # a contiguous grid, also given as an unordered list, is read by its
    # structure; a stepped one point by point
    for grid in (contiguous, contiguous[::-1], range(-p2, p2 + 1, 2 * p2 // count)):
        rep = check_returns(lad, 2, list(grid))
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
