import json
import random
from fractions import Fraction as F
from math import lcm

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
    OrbitSource,
    OrbitView,
    SeqWindow,
    alpha_source,
    alpha_window,
    classify_pair,
    constant_source,
    ladder_new,
    loads_csv,
    loads_json,
    ones_source,
    pair_recur_defect,
    prox_defect,
    sep_sup,
    thmB_witnesses,
    thmC_witnesses,
    window_source,
    zeros_source,
)
from wkseq import brackets, ladder, orbits, relations
from wkseq.walker import eval_block


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
    assert constant_source(F(1, 3)).read(10**9, 10**9 + 2) == ([1, 1], 3)
    assert ones_source().read(7, 8) == ([1], 1)


def test_view_shift_and_max_time(fixture):
    src = window_source(fixture)
    v = OrbitView(src, 5)
    nums, den = v.read(0, 1)
    assert F(nums[0], den) == fixture.values[5]
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


@pytest.mark.parametrize("block", [1, 3, 5, 7, 64])
def test_block_length_limit_does_not_change_results(block, monkeypatch):
    # alpha's denominators are powers of 3, so only the number of times in a
    # search block ends a block here; the constant orbit has denominator 1.
    lad = ladder_new("default-minimal")
    values = tuple(oracles.seq_value(i) for i in range(300))
    x = OrbitView(window_source(SeqWindow(0, values)), 0)
    fx = values.__getitem__
    monkeypatch.setattr(ladder, "STREAM_BLOCK", block)
    for other, fy in (
        (OrbitView(ones_source(), 0), lambda i: F(1)),
        (OrbitView(alpha_source(lad), 3), lambda i: values[i + 3]),
    ):
        horizon, k = 280, 8
        for start in (0, 1, 5):
            t, br = prox_defect(x, other, start, horizon, k)
            assert (t, br.lo, br.hi) == oracles.naive_min_hi(fx, fy, start, horizon, k)
            t, br = sep_sup(x, other, start, horizon, k)
            assert (t, br.lo, br.hi) == oracles.naive_max_lo(fx, fy, start, horizon, k)
            first = max(start, 1)
            t, br = pair_recur_defect(x, other, first, horizon, k)
            assert (t, br.hi) == oracles.naive_recur_defect(fx, fy, first, horizon, k)


def _all_verdicts(fixture):
    """classify from three starts, thmB with shifts above 0 and at horizon 0,
    and thmC with an occurrence and without one."""
    lad = ladder_new("default-minimal")
    src, tau = window_source(fixture), F(1, 512)
    a, b = OrbitView(src, 0), OrbitView(src, 1)
    alpha, ones = OrbitView(alpha_source(lad), 0), OrbitView(ones_source(), 0)
    out = [classify_pair(a, b, F(2), start, 2000, 12, tau) for start in (0, 1, 5)]
    out += [classify_pair(alpha, ones, F(1), start, 400, 8, F(1, 100)) for start in (0, 1, 5)]
    # separation appears only after the first blocks, where every bracket is 0
    late = window_source(SeqWindow(0, (F(0),) * 30 + (F(1),) * 30))
    out.append(classify_pair(OrbitView(late), OrbitView(constant_source(0)), F(1), 0, 50, 4, F(1, 16)))
    out += thmB_witnesses(alpha.source, ones_source(), [(2, 5), (7, 3)], 300, 8, F(1, 100))
    out += thmB_witnesses(src, constant_source(0), [(1, 2), (4, 9)], 4000, 8, F(1, 64))
    out += thmB_witnesses(src, ones_source(), [(1, 2)], 0, 8, F(1, 64))
    # the occurrence at 11604 runs over 17 coordinates, across a block edge
    # at block sizes 1, 3 and 7
    out.append(thmC_witnesses(src, 1, F(2), 11900, 16, F(1, 1024)))
    for orbit, q, horizon in ((src, 3, 40), (constant_source(1), 1, 300)):
        with pytest.raises(NotFoundInHorizonError):
            thmC_witnesses(orbit, q, F(2), horizon, 16, F(1, 1024))
    return out


@pytest.mark.parametrize("block", [1, 3, 7, 64])
def test_block_size_does_not_change_verdicts(block, fixture, monkeypatch):
    expected = _all_verdicts(fixture)
    monkeypatch.setattr(ladder, "STREAM_BLOCK", block)
    assert _all_verdicts(fixture) == expected


def test_reads_hold_at_most_one_block(monkeypatch):
    lad = ladder_new("default-minimal")
    reads = []

    def read(a, b):
        reads.append(b - a)
        return eval_block(lad, range(a, b))

    src, block, tau = OrbitSource(read), 64, F(1, 100)
    monkeypatch.setattr(ladder, "STREAM_BLOCK", block)
    for run, overlap in (
        (lambda: classify_pair(OrbitView(src), OrbitView(src, 3), F(1), 2, 1000, 8, tau), 8 - 1),
        (lambda: thmB_witnesses(src, ones_source(), [(0, 5), (9, 2)], 1000, 8, tau), 9 + 8 - 1),
        (lambda: thmC_witnesses(src, 1, F(2), 1000, 1, F(1, 64)), 1 + 1 - 1),
    ):
        reads.clear()
        run()
        assert reads and max(reads) <= block + overlap


def _naive_fixed_target(fx, target, count, k):
    """(time, lo) of the first time whose k-window of fx is nearest target[:k]."""
    los = [
        oracles.naive_bracket_lo(lambda i: fx(t + i), target.__getitem__, 0, k)
        for t in range(count)
    ]
    return los.index(min(los)), min(los)


def test_scan_is_the_same_on_stated_and_rational_reads(monkeypatch):
    # An orbit read is integers over a denominator it states, or, for a
    # window file past BLOCK_DEN_BITS, Rationals (den None), which the
    # kernel sums in blocks of bounded denominator.  Sides holding either
    # form, one of each, or a constant side must give the oracles' times
    # and brackets.  alpha's powers of 3 among fifths and the reciprocals of
    # a few primes, so most blocks meet a denominator that the blocks
    # before did not have.
    primes = (7, 11, 13, 17, 19, 23, 29)
    raw = [
        oracles.seq_value(i) if i % 4 else F(1, primes[i % 7]) if i % 8 else F(i % 5, 5)
        for i in range(200)
    ]
    den = lcm(*(v.denominator for v in raw))

    def read(values, stated):
        return ([v.numerator * (den // v.denominator) for v in values], den) if stated else (list(values), None)

    def cut(r, a, b=None):
        return r[0][a:b], r[1]

    fx = raw.__getitem__
    pattern = [(i // 2) % 2 for i in range(16)]  # thmC's target at q = 2
    horizon = 170
    others = [
        (lambda stated: read(raw[1:], stated), lambda i: raw[i + 1]),
        (lambda stated: read(raw[2:], not stated), lambda i: raw[i + 2]),
        (lambda stated: constant_source(F(1, 3)).read(0, len(raw)), lambda i: F(1, 3)),
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
    for den_bits in (8, 16, 64):
        monkeypatch.setattr(brackets, "BLOCK_DEN_BITS", den_bits)
        for stated in (True, False):
            xs = read(raw, stated)
            for (n, k), (prox, sep, recur) in expected.items():
                ys = others[n][0](stated)
                t, br = brackets.bracket_scan([(xs, ys)], horizon + 1, k, True)
                assert (t, br.lo, br.hi) == prox
                t, br = brackets.bracket_scan([(xs, ys)], horizon + 1, k, True, want_max=True)
                assert (t, br.lo, br.hi) == sep
                t, br = brackets.bracket_scan(
                    [(cut(xs, 1), cut(xs, 0, k)), (cut(ys, 1), cut(ys, 0, k))], horizon, k, False
                )
                assert (1 + t, br.hi) == recur
            t, br = brackets.bracket_scan([(xs, (pattern, 1))], horizon + 1, 16, False)
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


@pytest.mark.parametrize("t", [0.1, 0.5, "1/2", 1.0])
def test_searches_take_only_ints_and_fractions(t):
    ones = OrbitView(ones_source())
    half = F(1, 2)
    for call in (
        lambda: constant_source(t),
        lambda: classify_pair(ones, ones, t, 0, 5, 4, half),
        lambda: classify_pair(ones, ones, 1, 0, 5, 4, t),
        lambda: thmB_witnesses(ones_source(), ones_source(), [(0, 1)], 5, 4, t),
        lambda: thmC_witnesses(ones_source(), 1, t, 5, 4, half),
        lambda: thmC_witnesses(ones_source(), 1, 1, 5, 4, t),
    ):
        with pytest.raises(TypeError, match="int or a Fraction"):
            call()
    assert constant_source(1).read(0, 1) == ([1], 1)
    assert classify_pair(ones, ones, 1, 0, 5, 4, half).labels[0] == PROXIMAL_WITNESSED


def test_verdict_json_shape(alpha_view):
    ones = OrbitView(ones_source(), 0)
    doc = classify_pair(alpha_view, ones, F(1), 0, 60, 8, F(1, 100)).to_json_dict()
    assert doc["schema"] == "wk-report/1"
    assert doc["kind"] == "pair-verdict"
    assert doc["prox_witness"] == {"time": 54, "value": "1/128"}
    assert doc["tau"] == "1/100"
    assert doc["horizon"] == [0, 60]


# -- searches that skip repeated periods ------------------------------------
# Every expected value below comes from tests/oracles.py or from the
# construction itself, never from a search that can skip.

POOL = (F(0), F(1), F(1, 2), F(1, 3), F(3, 4))


def _periodic(rng, head, period, length, tail=0, pool=POOL):
    """`head` random values, one random period repeated, then `tail` more
    random values; `length` values in all."""
    unit = [rng.choice(pool) for _ in range(period)]
    body = [unit[i % period] for i in range(length - head - tail)]
    return tuple([rng.choice(pool) for _ in range(head)] + body + [rng.choice(pool) for _ in range(tail)])


def _stretch_source(values, period, first, stop):
    """values as a source stating the one repeat they have by construction:
    aperiodic before `first` and from `stop` on."""
    return OrbitSource(lambda a, b: (values[a:b], None), len(values),
                       lambda i: (period, stop) if first <= i < stop else (None, first if i < first else None))


def _assert_pair_oracles(a, b, fa, fb, start, horizon, k):
    """The three searches of one classify scan equal the oracles'."""
    prox, sep, recur = relations._pair_scan(a, b, start, horizon, k)
    assert (prox[0], *prox[1]) == oracles.naive_min_hi(fa, fb, start, horizon, k)
    assert (sep[0], *sep[1]) == oracles.naive_max_lo(fa, fb, start, horizon, k)
    assert (recur[0], recur[1].hi) == oracles.naive_recur_defect(fa, fb, max(start, 1), horizon, k)


def _least_tail_period(values):
    """tail_period by brute force: the least period at most half the tail,
    and the first index from which the values keep it."""
    tail = values[len(values) - min(orbits.TAIL, len(values) // 2):]
    for p in range(1, len(tail) // 2 + 1):
        if all(tail[j] == tail[j + p] for j in range(len(tail) - p)):
            first = len(values) - p
            while first and values[first - 1] == values[first - 1 + p]:
                first -= 1
            return p, first
    return None


def test_tail_period_matches_brute_force():
    symbols = [F(0), F(1, 2), F(1)]
    cases = [[symbols[int(c)] for c in format(code, f"0{n}b")]
             for n in range(1, 13) for code in range(2**n)]
    rng = random.Random(1717)
    for _ in range(300):
        n, q = rng.randrange(2, 400), rng.randrange(1, 12)
        word = [rng.choice(symbols) for _ in range(q)]
        values = [word[i % q] for i in range(n)]
        for _ in range(rng.randrange(3)):  # a few changed values, anywhere
            values[rng.randrange(n)] = rng.choice(symbols)
        cases.append(values)
    # the shape aaab: the first candidate fails and no later one is a period
    cases += [[F(0)] * a + [F(1)] * b for a in range(1, 40) for b in range(1, 4)]
    # equal values as distinct objects are alike
    cases.append([F(n % 3, 2) for n in range(60)])
    for values in cases:
        assert orbits.tail_period(SeqWindow(0, values)) == _least_tail_period(values), values


def test_tail_period_on_coded_windows_matches_brute_force():
    # Windows with up to 400 distinct values, so codes pass one byte: read
    # from a file, one code per value; built from one object per value; and
    # built from one object per row, one code per object, so that equal
    # values have other codes and the slices compared differ while the
    # values agree.
    rng = random.Random(2026)
    cases = [[F(n % 3, 2) for n in range(600)], [F(n % 7, 7) for n in range(300)] + [F(0)] * 5]
    for _ in range(40):
        q = rng.choice([1, 2, 5, 50, 300, 400])
        word = [F(rng.randrange(400), 400) for _ in range(q)]
        values = [word[i % q] for i in range(rng.randrange(2 * q, 2 * q + 900))]
        for _ in range(rng.randrange(3)):
            values[rng.randrange(len(values))] = F(rng.randrange(400), 400)
        cases.append(values)
    for values in cases:
        expected = _least_tail_period(values)
        text = "index,value_num,value_den\n" + "".join(f"{i},{v.numerator},{v.denominator}\n"
                                                       for i, v in enumerate(values))
        fresh = [F(v.numerator, v.denominator) for v in values]
        for window in (loads_csv(text), SeqWindow(0, values), SeqWindow(0, fresh)):
            assert orbits.tail_period(window) == expected, values


def _window_cases():
    """(values, horizon, skips) of window files that repeat in different
    ways; a file's period is looked for in its last half."""
    rng = random.Random(1410)
    k = 8
    return [
        (_periodic(rng, 37, 7, 700), 700 - k - 1, True),
        (_periodic(rng, 300, 11, 900), 900 - k - 1, True),  # periodic on its tail only
        (_periodic(rng, 0, 9, 900, tail=300), 900 - k - 1, False),  # on its head only
        (_periodic(rng, 0, 150, 900), 140, False),  # a period past the horizon
        # the least period, 2100, is past half of the 4096 values looked at
        (_periodic(rng, 0, 2100, 8500), 4400, False),
    ]


@pytest.mark.parametrize("case", range(5))
def test_skip_on_window_files_matches_oracles(case, monkeypatch):
    values, horizon, skips = _window_cases()[case]
    monkeypatch.setattr(ladder, "STREAM_BLOCK", 64)
    window, fx, k = window_source(SeqWindow(0, values)), values.__getitem__, 8
    reads = []
    src = OrbitSource(lambda a, b: reads.append(b - a - (k - 1)) or window.read(a, b),
                      window.length, window.repeat)
    others = [
        (OrbitView(constant_source(F(1, 2))), lambda i: F(1, 2)),
        (OrbitView(src, 1), lambda i: values[i + 1]),
        (OrbitView(ones_source()), lambda i: F(1)),
    ]
    long = horizon > 1000  # the naive searches take seconds there
    for other, fy in others[:2] if long else others:
        reads.clear()
        _assert_pair_oracles(OrbitView(src), other, fx, fy, 0, horizon, k)
        # the times read, not counting the recurrence search's home window
        assert (sum(reads[1:]) < horizon + 1) == skips


def test_skip_treats_equal_values_alike_whatever_their_text(monkeypatch):
    # 1/2 is written three ways, so the texts repeat with period 6 and the
    # values with period 3; the file is read as JSON and as CSV, which code
    # the values, and built from one object per row, coded per object
    texts = ["1/2", "1/3", "1/1", "2/4", "1/3", "1/1", "3/6", "1/3", "1/1"] * 70
    values = tuple(F(t) for t in texts)
    doc = json.dumps({"schema": "wk-window/1", "offset": 0, "values": texts})
    rows = "".join(f"{i},{t.replace('/', ',')}\n" for i, t in enumerate(texts))
    monkeypatch.setattr(ladder, "STREAM_BLOCK", 64)
    horizon, k = len(values) - 9, 8
    files = loads_json(doc), loads_csv("index,value_num,value_den\n" + rows)
    assert [len(w._distinct) for w in files] == [3, 3] and files[0]._codes == bytes([0, 1, 2]) * 210
    for window in (*files, SeqWindow(0, values)):
        assert window.values == values
        reads = []
        src = window_source(window)
        counted = OrbitSource(lambda a, b: reads.append(b - a) or src.read(a, b), src.length, src.repeat)
        _assert_pair_oracles(OrbitView(counted), OrbitView(constant_source(F(1, 4))),
                             values.__getitem__, lambda i: F(1, 4), 0, horizon, k)
        assert len(reads) <= 3  # the home window, time 0, one period of 3 from time 1, then done


@pytest.mark.parametrize("first, leave", [(127, 385), (128, 384), (129, 383)])
def test_skip_at_stretch_edges_matches_oracles(first, leave, monkeypatch):
    # One stretch of period 5 from `first`; windows of k = 8 values leave it
    # at time `leave`, and a thmC pattern of q = 2 sits just past its end.
    # Each edge falls one before, on, or one after a block edge.
    rng = random.Random(first * 1000 + leave)
    k, q, stop = 8, 2, leave + 8 - 1
    no_pattern = (F(1, 2), F(1, 3), F(3, 4))
    values = _periodic(rng, first, 5, 600, tail=600 - stop, pool=no_pattern)
    pattern = tuple(F((i // q) % 2) for i in range(q + k))
    values = values[:stop + 3] + pattern + values[stop + 3 + len(pattern):]
    src = _stretch_source(values, 5, first, stop)
    fx = values.__getitem__
    monkeypatch.setattr(ladder, "STREAM_BLOCK", 64)
    horizon = len(values) - k - 1
    for other, fy in (
        (OrbitView(constant_source(F(1, 3))), lambda i: F(1, 3)),
        (OrbitView(src, 1), lambda i: values[i + 1]),
    ):
        for start in (0, first + 1):
            _assert_pair_oracles(OrbitView(src), other, fx, fy, start, horizon, k)
    verdict = thmC_witnesses(src, q, F(1), len(values) - 1, k, F(2))
    top = len(values) - q - k
    occurs = [t for t in range(top + 1) if values[t:t + q + k] == pattern]
    assert occurs[0] == stop + 3 and verdict.sep_witness.time == stop + 3
    prox = oracles.naive_min_hi(fx, lambda i: values[i + q], 0, top, k)
    assert verdict.prox_witness == (prox[0], prox[2])


@pytest.mark.parametrize("shift", [0, 1])
@pytest.mark.parametrize("leave", [383, 384, 385])
def test_skip_keeps_a_best_on_either_edge_of_a_period(leave, shift, monkeypatch):
    # Ones, then a stretch of period 5 from the block edge 128 whose windows
    # leave it at `leave`, then ones, read from `shift` on.  Against zeros,
    # the windows that start on a 0 of the stretch start at 132, the last
    # time of the first period the walk scans, and every fifth time on.  In
    # a stretch of halves that ends in a 0, each time from `leave` on ties
    # with the next, and the first, `leave`, is the best.
    monkeypatch.setattr(ladder, "STREAM_BLOCK", 64)
    k = 8
    stop = leave + k - 1
    for stretch, last, best in (
        (lambda j: F(0) if j % 5 == 2 else F(3, 4), F(1), 132),
        (lambda j: F(1, 2), F(0), leave),
    ):
        values = tuple(F(1) if j < 128 or j > stop else last if j == stop else stretch(j)
                       for j in range(stop + 40))
        fx, zero, horizon = values.__getitem__, (lambda i: F(0)), len(values) - k
        assert oracles.naive_min_hi(fx, zero, 0, horizon, k)[0] == best
        src = _stretch_source((F(1),) * shift + values, 5, 128 + shift, stop + shift)
        _assert_pair_oracles(OrbitView(src, shift), OrbitView(zeros_source()), fx, zero, 0, horizon, k)


def test_skip_from_a_window_period_one_past_a_block_edge(monkeypatch):
    # The file is 5-periodic from 129, one past a block edge, and the first
    # window against zeros that starts on a 0 is at 133 = 129 + 5 - 1.
    monkeypatch.setattr(ladder, "STREAM_BLOCK", 64)
    values = tuple(F(1) if j < 128 else F(1, 4) if j == 128 else F(0) if j % 5 == 3 else F(3, 4)
                   for j in range(440))
    fx, zero, k = values.__getitem__, (lambda i: F(0)), 8
    horizon = len(values) - k
    assert oracles.naive_min_hi(fx, zero, 0, horizon, k)[0] == 133
    _assert_pair_oracles(OrbitView(window_source(SeqWindow(0, values))), OrbitView(zeros_source()),
                         fx, zero, 0, horizon, k)


def _shifted_source(src, shift):
    """src read from coordinate `shift` on, with its repeats."""

    def repeat(i):
        period, stop = src.repeat(shift + i)
        return period, stop - shift

    return OrbitSource(OrbitView(src, shift).read, repeat=repeat)


@pytest.mark.parametrize("schedule", [(), (10, 72901)])
def test_alpha_repeats_hold_against_the_oracle(schedule):
    lad = ladder_new(list(schedule) if schedule else "default-minimal")
    src = alpha_source(lad)
    p, L = oracles.tower(2, schedule)
    s2 = p[1] * L[2]  # stretch(2)
    # below stretch(2) alpha repeats the level below, period 2p[1], from p[1] + 1
    assert src.repeat(p[1] + 1) == (2 * p[1], s2)
    assert src.repeat(s2) == (None, 2 * s2)  # level 2's ramp, up to its plateau
    assert src.repeat(2 * s2)[0] == 1  # its plateau of ones
    # the short pieces of levels 0 and 1 lead, stretch by stretch, to that repeat
    i, stretches = 0, 0
    while i <= p[1]:
        i, stretches = src.repeat(i)[1], stretches + 1
    assert i == p[1] + 1 and stretches <= 16
    for i in (0, 2, 60, p[1], p[1] + 1, 1000, s2 - 600, s2 - 1, 2 * s2 + 7):
        period, stop = src.repeat(i)
        assert stop > i
        if period is None:
            continue
        for j in {*range(i, min(i + 30, stop - period)), *range(max(i, stop - period - 30), stop - period)}:
            assert oracles.limit_value(j, schedule) == oracles.limit_value(j + period, schedule)


@pytest.mark.parametrize("schedule", [(), (10, 72901)])
@pytest.mark.parametrize("near", ["p1", "s2"])
def test_skip_on_alpha_matches_oracles(schedule, near, monkeypatch):
    # across level 1's end into alpha's first repeat, and across that
    # repeat's end, stretch(2), into level 2's ramp
    lad = ladder_new(list(schedule) if schedule else "default-minimal")
    p, L = oracles.tower(2, schedule)
    shift, horizon, k = (0, 1200, 8) if near == "p1" else (p[1] * L[2] - 700, 1400, 8)
    vals = [oracles.limit_value(shift + i, schedule) for i in range(horizon + k + 8)]
    fx = vals.__getitem__
    monkeypatch.setattr(ladder, "STREAM_BLOCK", 64)
    a = OrbitView(alpha_source(lad), shift)
    for other, fy in (
        (OrbitView(constant_source(F(1, 3))), lambda i: F(1, 3)),
        (OrbitView(alpha_source(lad), shift + 1), lambda i: vals[i + 1]),
    ):
        _assert_pair_oracles(a, other, fx, fy, 0, horizon, k)
    # thmB with alpha as the orbit and ones as the fixed point
    x, pairs = _shifted_source(alpha_source(lad), shift), [(0, 3), (2, 7)]
    verdicts = thmB_witnesses(x, ones_source(), pairs, horizon, k, F(2))
    for (m, n), verdict in zip(pairs, verdicts):
        near_ones = [
            max(oracles.naive_bracket_lo(lambda i: fx(t + m + i), lambda i: F(1), 0, k),
                oracles.naive_bracket_lo(lambda i: fx(t + n + i), lambda i: F(1), 0, k))
            for t in range(horizon + 1)
        ]
        best = min(near_ones)
        assert verdict.prox_witness == (near_ones.index(best), best + F(2) ** (1 - k))
        assert verdict.recur_witness == oracles.naive_recur_defect(
            lambda i: fx(m + i), lambda i: fx(n + i), 1, horizon, k)
    # thmC: alpha holds no 0, 1, 0 anywhere
    pattern = [F(0), F(1), F(0)]
    assert not any(vals[t:t + 3] == pattern for t in range(horizon - 1))
    with pytest.raises(NotFoundInHorizonError):
        thmC_witnesses(x, 1, F(1), horizon, 2, F(1, 64))


def test_skip_on_ones_matches_oracles(monkeypatch):
    monkeypatch.setattr(ladder, "STREAM_BLOCK", 64)
    # every time ties, so the first one is reported
    verdicts = thmB_witnesses(ones_source(), constant_source(F(1, 2)), [(0, 1), (3, 9)], 5000, 8, F(2))
    half_away = oracles.naive_bracket_lo(lambda i: F(1), lambda i: F(1, 2), 0, 8)
    for verdict in verdicts:
        assert verdict.prox_witness == (0, half_away + F(2) ** -7)
        assert verdict.recur_witness == (1, F(2) ** -7)
    with pytest.raises(NotFoundInHorizonError):
        thmC_witnesses(ones_source(), 1, F(1), 10**6, 8, F(1, 100))
    ones = OrbitView(ones_source())
    one, half = (lambda i: F(1)), (lambda i: F(1, 2))
    _assert_pair_oracles(ones, OrbitView(constant_source(F(1, 2))), one, half, 0, 3000, 8)


# -- the walk asks from the first time every search covers ------------------

def _walk_cases():
    """(a, fa, b, fb, start, horizon, k): pairs of views, each with its
    values by index, over alpha from 0 and over window files."""
    rng = random.Random(1818)
    lad = ladder_new("default-minimal")
    alpha = [oracles.limit_value(i) for i in range(1300)]
    from0 = _periodic(rng, 0, 7, 1400)  # periodic from index 0
    later = _periodic(rng, 150, 9, 1400)  # periodic from index 150
    third, one = (lambda i: F(1, 3)), (lambda i: F(1))

    def view(values, shift=0):
        return OrbitView(window_source(SeqWindow(0, values)), shift), lambda i: values[i + shift]

    return [
        # alpha from 0 across p[1] + 1 = 244, where its 486-period begins
        (OrbitView(alpha_source(lad)), alpha.__getitem__, OrbitView(constant_source(F(1, 3))), third, 0, 1200, 8),
        (OrbitView(alpha_source(lad)), alpha.__getitem__,
         OrbitView(alpha_source(lad), 5), lambda i: alpha[i + 5], 0, 1200, 8),
        (OrbitView(alpha_source(lad), 3), lambda i: alpha[i + 3], OrbitView(ones_source()), one, 100, 1200, 8),
        (*view(from0), OrbitView(ones_source()), one, 0, 1380, 8),
        (*view(from0, 3), OrbitView(constant_source(F(1, 3))), third, 40, 1380, 8),
        (*view(later), *view(later, 4), 0, 1380, 8),
        (*view(later, 2), OrbitView(constant_source(F(1, 3))), third, 200, 1380, 8),
    ]


@pytest.mark.parametrize("case", range(7))
def test_walk_matches_oracles_at_any_block_size(case, monkeypatch):
    a, fa, b, fb, start, horizon, k = _walk_cases()[case]
    expected = (oracles.naive_min_hi(fa, fb, start, horizon, k), oracles.naive_max_lo(fa, fb, start, horizon, k),
                oracles.naive_recur_defect(fa, fb, max(start, 1), horizon, k))
    for block in (64, ladder.STREAM_BLOCK):
        monkeypatch.setattr(ladder, "STREAM_BLOCK", block)
        prox, sep, recur = relations._pair_scan(a, b, start, horizon, k)
        assert ((prox[0], *prox[1]), (sep[0], *sep[1]), (recur[0], recur[1].hi)) == expected


@pytest.mark.parametrize("period", [37, 63, 64, 65])
def test_recurrence_best_at_the_period_itself(period, monkeypatch):
    # periodic from index 0, so the first exact return is at time P, the
    # last time of the period the walk scans from time 1 before it jumps
    rng = random.Random(period)
    values = _periodic(rng, 0, period, 700)
    fx, one, k = values.__getitem__, (lambda i: F(1)), 8
    horizon = len(values) - k
    expected = oracles.naive_recur_defect(fx, one, 1, horizon, k)
    assert expected == (period, F(2) ** (1 - k))
    for block in (64, ladder.STREAM_BLOCK):
        monkeypatch.setattr(ladder, "STREAM_BLOCK", block)
        for start in (0, 1):
            recur = relations._pair_scan(OrbitView(window_source(SeqWindow(0, values))),
                                         OrbitView(ones_source()), start, horizon, k, [2])[0]
            assert (recur[0], recur[1].hi) == expected


def test_thmB_walk_matches_oracles_at_any_block_size(monkeypatch):
    # one view of a file periodic from index 150, read as wide as its
    # farthest shift plus k
    values = _periodic(random.Random(1919), 150, 9, 900)
    fx, pairs, horizon, k = values.__getitem__, [(0, 3), (5, 2)], 800, 8
    expected = []
    for m, n in pairs:
        near = [max(oracles.naive_bracket_lo(lambda i: fx(t + m + i), lambda i: F(1, 2), 0, k),
                    oracles.naive_bracket_lo(lambda i: fx(t + n + i), lambda i: F(1, 2), 0, k))
                for t in range(horizon + 1)]
        expected.append(((near.index(min(near)), min(near) + F(2) ** (1 - k)),
                         oracles.naive_recur_defect(lambda i: fx(m + i), lambda i: fx(n + i), 1, horizon, k)))
    for block in (64, ladder.STREAM_BLOCK):
        monkeypatch.setattr(ladder, "STREAM_BLOCK", block)
        verdicts = thmB_witnesses(window_source(SeqWindow(0, values)), constant_source(F(1, 2)),
                                  pairs, horizon, k, F(2))
        assert [(v.prox_witness, v.recur_witness) for v in verdicts] == expected


def test_skip_reads_a_few_blocks_where_the_orbit_repeats():
    # at the default block size; a repeat that never skips would read all
    # 25 blocks of the window and 2442 of alpha.  Where the orbit repeats,
    # the walk reads the times before its period starts, at most p[1] + 1 =
    # 244 on alpha, and one period of 486.
    lad = ladder_new("default-minimal")
    periodic = alpha_window(lad, 4860, 10**5)
    rng = random.Random(2100)
    long_period = SeqWindow(0, _periodic(rng, 0, 2100, 3 * 4096))
    ones, k = OrbitView(ones_source()), 32
    for src, horizon, every in (
        (window_source(periodic), 10**5 - k, False),
        (alpha_source(lad), 10**7, False),
        (window_source(full_shift_transitive_point(12000)), 12000 - k, True),
        (window_source(long_period), 3 * 4096 - k, True),
    ):
        reads = []
        counted = OrbitSource(lambda a, b: reads.append((a, b)) or src.read(a, b), src.length, src.repeat)
        # separation never meets its bound here, so only a skip ends the walk
        classify_pair(OrbitView(counted), ones, F(1), 0, horizon, k, F(1, 100))
        blocks = reads[1:]  # the first read is the recurrence search's home window
        times = sum(b - a - (k - 1) for a, b in blocks)
        assert times == horizon + 1 if every else times <= 244 + 486


@pytest.mark.parametrize("schedule", [(), (10, 72901)], ids=["default", "10-72901"])
def test_a_block_from_level_one_into_level_two_matches_oracles(schedule, monkeypatch):
    # alpha read from 150 before stretch(2) on: the first values repeat level
    # 1, over stretch(1) (27 on the default ladder), and the rest are level
    # 2's ramp, over stretch(2) (14 348 907), so each block's read states
    # stretch(2) and scales its first part once.  Every search of classify
    # and thmB, against ones and against alpha's own shifts, at two block
    # sizes, equals the oracles'.
    lad = ladder_new(schedule or "default-minimal")
    s2, k, horizon = lad.stretch(2), 8, 300
    base = s2 - 150
    assert alpha_source(lad).read(base, base + 300)[1] == s2
    assert alpha_source(lad).read(base, base + 100)[1] == lad.stretch(1)

    fx = [oracles.limit_value(base + i, schedule) for i in range(horizon + k + 3)].__getitem__

    for block in (64, 4096):
        monkeypatch.setattr(ladder, "STREAM_BLOCK", block)
        a = OrbitView(alpha_source(lad), base)
        for other, fy in ((OrbitView(ones_source()), lambda i: F(1)),
                          (OrbitView(alpha_source(lad), base + 3), lambda i: fx(i + 3))):
            _assert_pair_oracles(a, other, fx, fy, 0, horizon, k)
        verdict, = thmB_witnesses(_shifted_source(alpha_source(lad), base), ones_source(), [(0, 2)], horizon, k, F(2))
        fixed = oracles.naive_recur_defect(lambda i: fx(i), lambda i: fx(i + 2), 1, horizon, k)
        assert (verdict.recur_witness.time, verdict.recur_witness.value) == fixed
