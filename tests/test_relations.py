import random
from fractions import Fraction as F

import pytest

import oracles
from fixtures import full_shift_rigidity_witness, full_shift_transitive_point
from wkseq import (
    console_main,
    dumps_csv,
    DELTA_SEPARATED_WITNESSED,
    INCONCLUSIVE,
    PAIR_RECURRENT_WITNESSED,
    PROXIMAL_WITNESSED,
    NotFoundInHorizonError,
    OrbitView,
    SeqWindow,
    alpha_source,
    classify_pair,
    constant_source,
    ladder_new,
    ones_source,
    pair_recur_defect,
    prox_defect,
    sep_sup,
    thmB_witnesses,
    thmC_witnesses,
    window_source,
)
from wkseq import sequence


@pytest.fixture(scope="module")
def alpha_view():
    return OrbitView(alpha_source(ladder_new("default-minimal")), 0)


@pytest.fixture(scope="module")
def fixture():
    return full_shift_transitive_point(12000)


def test_sources_enforce_bounds(fixture):
    src = window_source(fixture)
    assert src.length == 12000
    with pytest.raises(IndexError):
        src.read(12000, 12001)[0]
    with pytest.raises(IndexError):
        src.read(-1, 0)[0]
    assert constant_source(F(1, 3)).read(10**9, 10**9 + 1)[0] == F(1, 3)
    assert ones_source().read(7, 8)[0] == 1


def test_constant_reads_stay_lazy():
    big = ones_source().read(0, 10**15)
    assert len(big) == 10**15 and big[0] == 1 and big[-1] == 1
    part = big[10**14:10**14 + 3]
    assert len(part) == 3 and list(part) == [1, 1, 1]
    assert len(big[5:2]) == 0 and len(part[1:]) == 2
    with pytest.raises(IndexError):
        big[10**15]


def test_view_shift_and_max_time(fixture):
    src = window_source(fixture)
    v = OrbitView(src, 5)
    assert v.read(0, 1)[0] == fixture.values[5]
    assert v.max_time(16) == 12000 - 5 - 16
    assert OrbitView(ones_source(), 3).max_time(16) is None
    with pytest.raises(ValueError):
        OrbitView(src, -1)


def test_search_rejects_horizon_past_data(fixture):
    src = window_source(fixture)
    v = OrbitView(src, 0)
    with pytest.raises(ValueError):
        prox_defect(v, v, 0, 12000, 16)
    with pytest.raises(ValueError):
        sep_sup(v, v, 5, 4, 16)
    with pytest.raises(ValueError):
        prox_defect(v, v, 0, 10, 0)


def test_prox_on_alpha_against_fixed_point(alpha_view):
    ones = OrbitView(ones_source(), 0)
    t, br = prox_defect(alpha_view, ones, 0, 400, 8)
    assert (t, br.lo, br.hi) == (54, 0, F(1, 128))


def test_sep_on_alpha_against_fixed_point(alpha_view):
    ones = OrbitView(ones_source(), 0)
    t, br = sep_sup(alpha_view, ones, 0, 400, 8)
    lad = ladder_new("default-minimal")
    expected = oracles.naive_max_lo(
        lambda i: oracles.seq_value(i), lambda i: F(1), 0, 400, 8
    )
    assert (t, br.lo) == expected[:2]
    assert (t, br.lo) == (5, F(227, 128))


def test_alpha_self_recurrence(alpha_view):
    t, br = pair_recur_defect(alpha_view, alpha_view, 1, 400, 16)
    assert (t, br.lo, br.hi) == (6, 0, F(1, 32768))


def test_fixture_pair_witnesses(fixture):
    src = window_source(fixture)
    a, b = OrbitView(src, 0), OrbitView(src, 1)
    horizon = 12000 - 1 - 16
    t, br = sep_sup(a, b, 0, horizon, 16)
    assert (t, br.lo) == (11604, 2 - F(2) ** -15)
    t, br = prox_defect(a, b, 0, horizon, 16)
    assert (t, br.lo, br.hi) == (3586, 0, F(2) ** -15)
    t, br = pair_recur_defect(a, b, 1, horizon, 16)
    assert (t, br.lo, br.hi) == (4070, F(1, 8192), F(5, 32768))


def test_searches_are_parallelism_invariant(fixture, capsys, tmp_path):
    path = tmp_path / "fixture.csv"
    path.write_text(dumps_csv(fixture))
    argv = [
        "relations", "classify", "--a", str(path), "--b", str(path),
        "--shift-b", "1", "--delta", "2", "--horizon", "2000", "--k", "12",
        "--tau", "1/512",
    ]

    def stdout(*prefix):
        assert console_main([*prefix, *argv]) == 0
        return capsys.readouterr().out

    base = stdout()
    for par in (1, 2, 3, 5, 64):
        assert stdout("--parallelism", str(par)) == base
        cfg = tmp_path / f"par{par}.ini"
        cfg.write_text(f"[run]\nparallelism = {par}\n")
        assert stdout("--config", str(cfg)) == base


def test_randomized_brute_force_equivalence():
    rng = random.Random(97)
    for _ in range(6):
        n = rng.randint(30, 120)
        k = rng.randint(1, 12)
        horizon = n - k
        pool = [F(0), F(1), F(1, 2), F(1, 3), F(3, 4)]
        va = tuple(rng.choice(pool) for _ in range(n))
        vb = tuple(rng.choice(pool) for _ in range(n))
        a = OrbitView(window_source(SeqWindow(0, va)), 0)
        b = OrbitView(window_source(SeqWindow(0, vb)), 0)
        fa, fb = va.__getitem__, vb.__getitem__
        rng.randint(1, 4)  # unused draws keep the later cases fixed
        t, br = prox_defect(a, b, 0, horizon, k)
        assert (t, br.lo, br.hi) == oracles.naive_min_hi(fa, fb, 0, horizon, k)
        rng.randint(1, 4)
        t, br = sep_sup(a, b, 0, horizon, k)
        assert (t, br.lo, br.hi) == oracles.naive_max_lo(fa, fb, 0, horizon, k)
        rng.randint(1, 4)
        t, br = pair_recur_defect(a, b, 1, horizon, k)
        assert (t, br.hi) == oracles.naive_recur_defect(fa, fb, 1, horizon, k)


def _primes(count):
    found = []
    n = 2
    while len(found) < count:
        if all(n % p for p in found if p * p <= n):
            found.append(n)
        n += 1
    return found


@pytest.mark.parametrize("k", [1, 8, 32, 128])
def test_coprime_denominators_match_brute_force(k):
    # 1/p over distinct primes: the common denominator of a time block
    # passes its size limit after about a hundred values, and at k = 128
    # most single windows already pass it, so the searches cross many block
    # boundaries.
    values = tuple(F(1, p) for p in _primes(300))
    src = window_source(SeqWindow(0, values))
    x = OrbitView(src, 0)
    fx = values.__getitem__
    for other, fy in (
        (OrbitView(ones_source(), 0), lambda i: F(1)),
        (OrbitView(src, 1), lambda i: values[i + 1]),
    ):
        horizon = len(values) - 1 - k
        t, br = prox_defect(x, other, 0, horizon, k)
        assert (t, br.lo, br.hi) == oracles.naive_min_hi(fx, fy, 0, horizon, k)
        t, br = sep_sup(x, other, 0, horizon, k)
        assert (t, br.lo, br.hi) == oracles.naive_max_lo(fx, fy, 0, horizon, k)
        t, br = pair_recur_defect(x, other, 1, horizon, k)
        assert (t, br.hi) == oracles.naive_recur_defect(fx, fy, 1, horizon, k)


@pytest.mark.parametrize("block_times", [1, 5, 64])
def test_block_length_limit_does_not_change_results(block_times, monkeypatch):
    # alpha's denominators are powers of 3, so only the limit on the number
    # of times ends a block here; the constant orbit has denominator 1.
    lad = ladder_new("default-minimal")
    values = tuple(oracles.seq_value(i) for i in range(300))
    x = OrbitView(window_source(SeqWindow(0, values)), 0)
    fx = values.__getitem__
    monkeypatch.setattr(sequence, "BLOCK_TIMES", block_times)
    for other, fy in (
        (OrbitView(ones_source(), 0), lambda i: F(1)),
        (OrbitView(alpha_source(lad), 3), lambda i: values[i + 3]),
    ):
        horizon, k = 280, 8
        t, br = prox_defect(x, other, 0, horizon, k)
        assert (t, br.lo, br.hi) == oracles.naive_min_hi(fx, fy, 0, horizon, k)
        t, br = sep_sup(x, other, 0, horizon, k)
        assert (t, br.lo, br.hi) == oracles.naive_max_lo(fx, fy, 0, horizon, k)
        t, br = pair_recur_defect(x, other, 1, horizon, k)
        assert (t, br.hi) == oracles.naive_recur_defect(fx, fy, 1, horizon, k)


def _naive_fixed_target(fx, target, count, k):
    """(time, lo) of the first time whose k-window of fx is nearest target[:k]."""
    los = [
        oracles.naive_bracket_lo(lambda i: fx(t + i), target.__getitem__, 0, k)
        for t in range(count)
    ]
    return los.index(min(los)), min(los)


def test_scan_is_the_same_on_shared_and_distinct_objects(monkeypatch):
    # Window files and alpha_block hand the kernel one object per value; a
    # library caller may hand it a new object per coordinate.  Sides holding
    # either, a mix of both, or a lazy constant side must give the oracles'
    # times and brackets.
    # alpha's powers of 3 among fifths and the reciprocals of a few primes,
    # so most blocks meet a denominator that the blocks before did not have
    primes = (7, 11, 13, 17, 19, 23, 29)
    raw = [
        oracles.seq_value(i) if i % 4 else F(1, primes[i % 7]) if i % 8 else F(i % 5, 5)
        for i in range(200)
    ]
    one = {}
    shared = tuple(one.setdefault(v, v) for v in raw)
    fresh = tuple(F(v.numerator, v.denominator) for v in raw)
    mixed = tuple(f if i % 3 else s for i, (s, f) in enumerate(zip(shared, fresh)))
    assert len(set(map(id, shared))) < 40 and len(set(map(id, fresh))) == len(raw)
    fx = raw.__getitem__
    pattern = [(i // 2) % 2 for i in range(16)]  # thmC's target at q = 2
    horizon = 170
    others = [
        (lambda xs: xs[1:], lambda i: raw[i + 1]),
        (lambda xs: mixed[2:], lambda i: raw[i + 2]),
        (lambda xs: constant_source(F(1, 3)).read(0, len(raw)), lambda i: F(1, 3)),
    ]
    expected = {
        (n, k): (
            oracles.naive_min_hi(fx, fy, 0, horizon, k),
            oracles.naive_max_lo(fx, fy, 0, horizon, k),
            oracles.naive_recur_defect(fx, fy, 1, horizon, k),
        )
        for n, (_, fy) in enumerate(others)
        for k in (1, 8, 16)
    }
    near_pattern = _naive_fixed_target(fx, pattern, horizon + 1, 16)
    for block_times in (1, 5, 64):
        monkeypatch.setattr(sequence, "BLOCK_TIMES", block_times)
        for xs in (shared, fresh, mixed):
            for (n, k), (prox, sep, recur) in expected.items():
                ys = others[n][0](xs)
                t, br = sequence.bracket_scan([(xs, ys)], horizon + 1, k, True)
                assert (t, br.lo, br.hi) == prox
                t, br = sequence.bracket_scan([(xs, ys)], horizon + 1, k, True, want_max=True)
                assert (t, br.lo, br.hi) == sep
                t, br = sequence.bracket_scan(
                    [(xs[1:], xs[:k]), (ys[1:], ys[:k])], horizon, k, False
                )
                assert (1 + t, br.hi) == recur
            t, br = sequence.bracket_scan([(xs, pattern)], horizon + 1, 16, False)
            assert (t, br.lo) == near_pattern


def test_recurrence_never_witnessed_at_time_zero(alpha_view):
    ones = OrbitView(ones_source(), 0)
    with pytest.raises(ValueError):
        pair_recur_defect(alpha_view, ones, 0, 10, 8)
    # at horizon 0 both searches leave recurrence unsearched, not refused
    verdicts = [
        classify_pair(alpha_view, ones, F(1), 0, 0, 8, F(1, 100)),
        *thmB_witnesses(alpha_view.source, ones_source(), [(0, 1)], 0, 8, F(1, 100)),
    ]
    for verdict in verdicts:
        assert verdict.recur_witness is None
        assert PAIR_RECURRENT_WITNESSED not in verdict.labels
        assert INCONCLUSIVE in verdict.labels


def test_classify_alpha_vs_fixed_point(alpha_view):
    ones = OrbitView(ones_source(), 0)
    verdict = classify_pair(
        alpha_view, ones, F(1), 0, 400, 8, F(1, 100)
    )
    assert set(verdict.labels) == {
        PROXIMAL_WITNESSED,
        DELTA_SEPARATED_WITNESSED,
        PAIR_RECURRENT_WITNESSED,
    }
    assert verdict.prox_witness == (54, F(1, 128))
    assert verdict.sep_witness == (5, F(227, 128))
    # searched from time 1: time 0 is the identity shift and proves nothing
    assert verdict.recur_witness == (6, F(1, 128))
    assert verdict.delta == 1 and verdict.prefix_len == 8


def test_classify_identical_views_is_inconclusive_on_separation(fixture):
    v = OrbitView(window_source(fixture), 0)
    verdict = classify_pair(v, v, F(1), 0, 500, 8, F(1, 100))
    assert PROXIMAL_WITNESSED in verdict.labels
    assert PAIR_RECURRENT_WITNESSED in verdict.labels
    assert DELTA_SEPARATED_WITNESSED not in verdict.labels
    assert INCONCLUSIVE in verdict.labels
    assert verdict.sep_witness is None


def test_classify_validates_thresholds(alpha_view):
    ones = OrbitView(ones_source(), 0)
    with pytest.raises(ValueError):
        classify_pair(alpha_view, ones, F(0), 0, 10, 4, F(1, 10))
    with pytest.raises(ValueError):
        classify_pair(alpha_view, ones, F(1), 0, 10, 4, F(0))


def test_thmB_on_alpha():
    lad = ladder_new("default-minimal")
    verdicts = thmB_witnesses(
        alpha_source(lad), ones_source(), [(0, 1), (2, 5)], 300, 8, F(1, 100)
    )
    assert [v.pair for v in verdicts] == [(0, 1), (2, 5)]
    for v in verdicts:
        assert INCONCLUSIVE not in v.labels
        assert v.recur_witness == (6, F(1, 128))
    assert verdicts[0].prox_witness == (54, F(1, 128))
    assert verdicts[1].prox_witness == (52, F(1, 128))


def test_thmB_rejects_degenerate_pairs():
    lad = ladder_new("default-minimal")
    with pytest.raises(ValueError):
        thmB_witnesses(alpha_source(lad), ones_source(), [(3, 3)], 50, 4, F(1, 4))
    with pytest.raises(ValueError):
        thmB_witnesses(alpha_source(lad), ones_source(), [(-1, 2)], 50, 4, F(1, 4))


def test_thmC_on_transitive_fixture(fixture):
    verdict = thmC_witnesses(
        window_source(fixture), 1, F(2), 11900, 16, F(1, 1024)
    )
    assert verdict.pair == (0, 1)
    assert verdict.sep_witness == (11604, 2 - F(2) ** -15)
    assert verdict.prox_witness == (3586, F(2) ** -15)
    assert DELTA_SEPARATED_WITNESSED in verdict.labels
    assert PROXIMAL_WITNESSED in verdict.labels
    assert INCONCLUSIVE not in verdict.labels


def test_thmC_on_alternating_witness_point():
    w = full_shift_rigidity_witness(1, 64)
    verdict = thmC_witnesses(window_source(w), 1, F(2), 40, 8, F(1, 64))
    # the point itself is the alternating pattern, so the occurrence is at 0
    assert verdict.sep_witness[0] == 0
    assert verdict.sep_witness[1] == 2 - F(2) ** -7
    assert verdict.prox_witness is None
    assert INCONCLUSIVE in verdict.labels


def test_prox_of_identical_view_is_minimal_bracket(fixture):
    v = OrbitView(window_source(fixture), 0)
    t, br = prox_defect(v, v, 3, 500, 10)
    assert t == 3 and br.lo == 0 and br.hi == F(2) ** -9


def test_classify_transitive_point_against_own_shift_all_labels(fixture):
    src = window_source(fixture)
    verdict = classify_pair(
        OrbitView(src, 0), OrbitView(src, 1), F(2), 1, 12000 - 17, 16,
        F(1, 4096),
    )
    assert set(verdict.labels) == {
        PROXIMAL_WITNESSED,
        DELTA_SEPARATED_WITNESSED,
        PAIR_RECURRENT_WITNESSED,
    }
    assert verdict.recur_witness == (4070, F(5, 32768))


def test_classify_labels_monotone_in_horizon_and_tau(fixture):
    src = window_source(fixture)
    a, b = OrbitView(src, 0), OrbitView(src, 1)

    def witnessed(horizon, tau):
        verdict = classify_pair(a, b, F(2), 1, horizon, 16, tau)
        return set(verdict.labels) - {INCONCLUSIVE}

    tau = F(1, 4096)
    assert witnessed(4000, tau) <= witnessed(11983, tau)
    assert witnessed(11983, tau) <= witnessed(11983, 2 * tau)


def test_thmB_fixture_against_zeros(fixture):
    verdicts = thmB_witnesses(
        window_source(fixture), constant_source(0), [(0, 2)], 4000, 8, F(1, 64)
    )
    # earliest joint 0-window needs ten consecutive zeros, first found at 258
    assert verdicts[0].prox_witness == (258, F(1, 128))
    assert verdicts[0].recur_witness == (828, F(1, 128))
    assert INCONCLUSIVE not in verdicts[0].labels


def test_thmC_prefix_longer_than_horizon(fixture):
    with pytest.raises(NotFoundInHorizonError):
        thmC_witnesses(window_source(fixture), 2, F(2), 10, 16, F(1, 64))


def test_thmC_on_alpha_cannot_reach_full_separation():
    lad = ladder_new("default-minimal")
    verdict = thmC_witnesses(alpha_source(lad), 1, F(2), 2000, 1, F(1, 64))
    assert verdict.labels == (INCONCLUSIVE,)
    assert verdict.sep_witness is None and verdict.prox_witness is None


def test_thmC_pattern_absent_raises(fixture):
    with pytest.raises(NotFoundInHorizonError):
        thmC_witnesses(window_source(fixture), 3, F(2), 40, 16, F(1, 1024))
    with pytest.raises(NotFoundInHorizonError):
        thmC_witnesses(constant_source(1), 1, F(2), 10**4, 8, F(1, 64))


def test_verdict_json_shape(alpha_view):
    ones = OrbitView(ones_source(), 0)
    doc = classify_pair(alpha_view, ones, F(1), 0, 60, 8, F(1, 100)).to_json_dict()
    assert doc["schema"] == "wk-report/1"
    assert doc["kind"] == "pair-verdict"
    assert doc["prox_witness"] == {"time": 54, "value": "1/128"}
    assert doc["tau"] == "1/100"
    assert doc["horizon"] == [0, 60]
