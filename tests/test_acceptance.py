"""End-to-end acceptance checks.

Each test prints one ACCEPTANCE line (always visible, bypassing capture)
and then asserts the same condition, so the suite both reports and
enforces.  Tolerances are exact equalities unless a bound is stated.
"""
import random
import time
from fractions import Fraction as F

import pytest

import oracles
from fixtures import full_shift_transitive_point, profile
from wkseq import (
    DELTA_SEPARATED_WITNESSED,
    PROXIMAL_WITNESSED,
    OrbitView,
    SeqWindow,
    alpha,
    check_ones_runs,
    check_returns,
    check_rigidity,
    check_shift_defect,
    check_wm_returns,
    classify_pair,
    ladder_new,
    make_plfunc,
    pair_recur_defect,
    pointwise_max,
    prox_defect,
    sep_sup,
    splice,
    thmC_witnesses,
    window_source,
)


@pytest.fixture(scope="module")
def lad():
    return ladder_new("default-minimal")


@pytest.fixture
def announce(capsys):
    def _announce(name, ok, detail=""):
        tail = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}")

    return _announce


def test_1_return_identities(lad, announce):
    t0 = time.perf_counter()
    r0 = check_returns(lad, 0, range(-3, 4))
    r1 = check_returns(lad, 1, range(-243, 244))
    elapsed = time.perf_counter() - t0
    ok = (
        r0.all_equal
        and r1.all_equal
        and (r0.left_shift, r0.right_shift) == (162, 161)
        and (r1.left_shift, r1.right_shift) == (86093442, 86093441)
        and elapsed < 30
    )
    announce("1-return-identities", ok, f"{elapsed:.2f}s, full grids, exact")
    assert ok


def test_2_rigidity_certificates(lad, announce):
    t0 = time.perf_counter()
    r1 = check_rigidity(lad, 1, 486)
    r2 = check_rigidity(lad, 2, 1000)
    r3 = check_rigidity(lad, 3, 100)
    elapsed = time.perf_counter() - t0
    ok = (
        r1.passed
        and r1.max_defect < 1
        and r2.passed
        and r2.max_defect < F(1, 2)
        and r3.passed
        and r3.max_defect < F(1, 3)
        and elapsed < 300
    )
    announce(
        "2-rigidity-certificates",
        ok,
        f"{elapsed:.2f}s, defects {r1.max_defect},{r2.max_defect},{r3.max_defect}",
    )
    assert ok


def test_3_shift_defect_on_own_period(announce):
    t0 = time.perf_counter()
    lad = ladder_new("default-minimal", depth=3)
    reps = [
        check_shift_defect(lad, 0, 0, 1),
        check_shift_defect(lad, 1, 1, 1),
        check_shift_defect(lad, 2, 2, lad.p(2) // 81),
    ]
    elapsed = time.perf_counter() - t0
    ok = all(r.max_defect == 0 for r in reps) and elapsed < 60
    announce("3-shift-defect-zero", ok, f"{elapsed:.2f}s, exact zeros")
    assert ok


def test_4_weak_mixing_double_return(lad, announce):
    t0 = time.perf_counter()
    w0 = check_wm_returns(lad, 0)
    w1 = check_wm_returns(lad, 1)
    elapsed = time.perf_counter() - t0
    ok = (
        w0.forward_exact
        and w0.backward_exact
        and w0.N == 161
        and w1.forward_exact
        and w1.backward_exact
        and w1.N == 86093441
        and elapsed < 60
    )
    announce("4-weak-mixing-returns", ok, f"{elapsed:.2f}s, N and N+1 exact")
    assert ok


def test_5_syndetic_ones_runs(lad, announce):
    t0 = time.perf_counter()
    rep = check_ones_runs(lad, 1, 100_000)
    elapsed = time.perf_counter() - t0
    run_covers_stated_block = all(
        alpha(lad, i) == 1 for i in range(54, 82)
    )
    ok = (
        rep.passed
        and rep.run_length_required == 27
        and rep.gap_bound == 486
        and rep.first_run[0] == 54
        and run_covers_stated_block
        and rep.first_run == (54, 111)  # full extent of the first run
        and elapsed < 60
    )
    announce(
        "5-syndetic-ones-runs",
        ok,
        f"{elapsed:.2f}s, first run {rep.first_run}, worst gap {rep.worst_gap}",
    )
    assert ok


def test_6_spot_values_vs_independent_oracle(lad, announce):
    first_ten = [alpha(lad, i) for i in range(10)]
    checks = [
        first_ten == [0, 0, 1, 1, 1, 0, 0, 0, 1, 1],
        alpha(lad, 41) == F(14, 27),
        alpha(lad, 161) == 0,
        all(alpha(lad, i) == 1 for i in range(54, 82)),
    ]
    oracle_agrees = (
        all(oracles.seq_value(i) == first_ten[i] for i in range(10))
        and oracles.seq_value(41) == F(14, 27)
        and oracles.seq_value(161) == 0
        and all(oracles.seq_value(i) == 1 for i in range(54, 82))
    )
    ok = all(checks) and oracle_agrees
    announce("6-spot-values", ok, "exact match against brute-force evaluator")
    assert ok


def _copy_breakpoints(lo_k, hi_k):
    pts = [(6 * lo_k - 3, F(1))]
    for k in range(lo_k, hi_k + 1):
        pts.extend(
            [(6 * k - 2, F(1)), (6 * k - 1, F(0)), (6 * k + 1, F(0)), (6 * k + 2, F(1))]
        )
    pts.append((6 * hi_k + 3, F(1)))
    return pts


def test_7_breakpoint_oracle_equivalence(announce):
    t0 = time.perf_counter()
    periodized = make_plfunc(_copy_breakpoints(-42, 42))
    copy_layer = make_plfunc(
        [(27 * x, y) for x, y in _copy_breakpoints(-1, 1)]
    )
    left = pointwise_max(periodized, copy_layer, -243, 81)
    right = pointwise_max(periodized.shifted(-1), copy_layer, 81, 243)
    explicit = splice(left, right, 81)
    lad = ladder_new("default-minimal", depth=1)
    mismatches = sum(
        1
        for j in range(-486, 487)
        if explicit.evaluate(F(j, 2)) != profile(lad, 1, F(j, 2))
    )
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60
    announce(
        "7-breakpoint-equivalence",
        ok,
        f"{elapsed:.2f}s, 973 grid points, {mismatches} mismatches",
    )
    assert ok


def test_8_constructive_separation_witness(announce):
    fixture = full_shift_transitive_point(12000)
    src = window_source(fixture)
    horizon = 12000 - 17
    tau = F(1, 16384)
    verdict = thmC_witnesses(src, 1, F(2), horizon, 16, tau)
    sep_ok = (
        DELTA_SEPARATED_WITNESSED in verdict.labels
        and verdict.sep_witness[1] >= 2 - F(2) ** -15
    )
    pair_verdict = classify_pair(
        OrbitView(src, 0), OrbitView(src, 1), F(2), 0, horizon, 16, tau
    )
    prox_t = pair_verdict.prox_witness[0]
    prox_ok = PROXIMAL_WITNESSED in pair_verdict.labels and all(
        fixture.values[prox_t + i] == 0 for i in range(17)
    )
    ok = sep_ok and prox_ok
    announce(
        "8-separation-witness",
        ok,
        f"sep lo {verdict.sep_witness[1]} at t={verdict.sep_witness[0]}, "
        f"0-run proximity at t={prox_t}",
    )
    assert ok


def test_9_brute_force_equivalence(announce):
    t0 = time.perf_counter()
    rng = random.Random(20260823)
    pool = [F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(1, 4)]
    all_ok = True
    for _ in range(20):
        k = rng.randint(1, 16)
        length = rng.randint(k + 20, 400)
        horizon = min(length - k, 1000)
        va = tuple(rng.choice(pool) for _ in range(length))
        vb = tuple(rng.choice(pool) for _ in range(length))
        a = OrbitView(window_source(SeqWindow(0, va)), 0)
        b = OrbitView(window_source(SeqWindow(0, vb)), 0)
        fa, fb = va.__getitem__, vb.__getitem__
        rng.randint(1, 6)  # an unused draw keeps the later cases fixed
        t, br = prox_defect(a, b, 0, horizon, k)
        all_ok &= (t, br.lo, br.hi) == oracles.naive_min_hi(fa, fb, 0, horizon, k)
        t, br = sep_sup(a, b, 0, horizon, k)
        all_ok &= (t, br.lo, br.hi) == oracles.naive_max_lo(fa, fb, 0, horizon, k)
        t, br = pair_recur_defect(a, b, 1, horizon, k)
        all_ok &= (t, br.hi) == oracles.naive_recur_defect(fa, fb, 1, horizon, k)
    elapsed = time.perf_counter() - t0
    announce(
        "9-brute-force-equivalence",
        all_ok,
        f"{elapsed:.2f}s, 20 randomized pairs, identical times and brackets",
    )
    assert all_ok
