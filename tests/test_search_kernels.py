"""The kernels that drop hopeless times and find thmC's word, against brute force.

A fixed-target minimum (classify's recurrence search, thmB's two searches)
adds a time's later terms only while its first ones are below the best so
far, and thmC finds its block pattern by exact string search.  Each test
places the best where a wrong drop rule or tie rule would lose it: decided
on the last term of a window, tied with an earlier time, carried into a
block with another denominator, or held by one side of two.  Every search
runs at two block sizes and is compared with `oracles` or with the plain
loops below.
"""
import random
from fractions import Fraction as F

import pytest

import oracles
from wkseq import SeqWindow, loads_csv
from wkseq import brackets, ladder, relations
from wkseq.relations import NotFoundInHorizonError, thmB_witnesses, thmC_witnesses
from wkseq.orbits import OrbitSource, OrbitView, alpha_source, constant_source, ones_source, window_source
from wkseq.ladder import ladder_new

BLOCKS = (64, 4096)
K = 8
#: Values of the filler: none is near 0 or 1, so only planted windows are
#: near a 0/1 home or target.
FILL = (F(1, 2), F(3, 7), F(4, 7))


def first_occurrence(values, word, top):
    """The first t <= top with values[t + i] == word[i] for every i, by a
    plain loop over the values; None where there is none."""
    for t in range(top + 1):
        if all(values[t + i] == w for i, w in enumerate(word)):
            return t
    return None


def naive_fixed(fx, shifts, target, horizon, k):
    """(time, lo) of the first time t <= horizon whose windows from t + m,
    m in shifts, have the smallest worst bracket against target[:k]."""
    los = [max(oracles.naive_bracket_lo(lambda i: fx(t + m + i), target.__getitem__, 0, k) for m in shifts)
           for t in range(horizon + 1)]
    return los.index(min(los)), min(los)


def _recurrence(values, horizon, block, monkeypatch):
    """classify's recurrence search on a window file against ones, and the
    oracle's answer."""
    monkeypatch.setattr(ladder, "STREAM_BLOCK", block)
    a = OrbitView(window_source(SeqWindow(0, tuple(values))))
    recur = relations._pair_scan(a, OrbitView(ones_source()), 0, horizon, K, [2])[0]
    return (recur[0], recur[1].hi), oracles.naive_recur_defect(values.__getitem__, lambda i: F(1), 1, horizon, K)


def _planted(length, home, copies, seed):
    """Filler values with `home` at 0 and a copy of it at each time of
    `copies`, changed by each (term, amount) given there."""
    rng = random.Random(seed)
    values = [rng.choice(FILL) for _ in range(length)]
    values[:K] = home
    for t, changes in copies.items():
        values[t:t + K] = home
        for term, amount in changes:
            values[t + term] += amount
    return values


HOME = [F(i % 3 // 2) for i in range(K)]  # 0, 0, 1, 0, 0, 1, 0, 0: room to add on each term
LAST, FIRST = K - 1, 0


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("late", [64, 65, 128, 129, 200])
@pytest.mark.parametrize("near, later, winner", [
    # decided on the last term: one unit of 1/7 there is all that separates them
    ([(LAST, F(2, 7))], [(LAST, F(1, 7))], "late"),
    ([(LAST, F(1, 7))], [], "late"),
    # the first term outweighs every other: the later time is dropped on it
    ([(LAST, F(1, 7))], [(FIRST, F(1, 7))], "near"),
    ([(FIRST, F(1, 7))], [(LAST, F(1, 7))], "late"),
    # a tie, decided on the last term: the earlier time wins
    ([(LAST, F(1, 7))], [(LAST, F(1, 7))], "near"),
    ([(LAST - 1, F(1, 7)), (LAST, F(1, 7))], [(LAST - 1, F(1, 7)), (LAST, F(1, 7))], "near"),
])
def test_recurrence_best_on_the_first_and_last_term(block, late, near, later, winner, monkeypatch):
    # `late` falls on the first and the last time of a block of 64 (blocks
    # of the recurrence search start at time 1), and on the last time
    horizon = 200
    values = _planted(horizon + K, HOME, {10: near, late: later}, late)
    got, expected = _recurrence(values, horizon, block, monkeypatch)
    assert got == expected
    assert got[0] == (late if winner == "late" else 10)


@pytest.mark.parametrize("block", BLOCKS)
def test_ties_across_blocks_keep_the_smallest_time(block, monkeypatch):
    # five equal best sums, one in each of the first blocks of 64
    horizon = 320
    copies = {t: [(LAST, F(1, 7))] for t in (20, 70, 140, 200, 300)}
    values = _planted(horizon + K, HOME, copies, 5)
    got, expected = _recurrence(values, horizon, block, monkeypatch)
    assert got == expected and got[0] == 20


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("den_bits", [3, 8, 1024])
def test_best_carried_across_a_denominator_split(block, den_bits, monkeypatch):
    # Halves around a 0/1 home.  A copy off by 1/3 on its last term, then
    # one off by 1/4: at 3 bits their blocks have denominators 6 and 4, and
    # the first best, 1/3 of the last weight, is 4/3 units of the second
    # block, so only its ceiling 2 lets the sum 1 there win.
    monkeypatch.setattr(brackets, "BLOCK_DEN_BITS", den_bits)
    horizon = 200
    values = [F(1, 2)] * (horizon + K)
    values[:K] = HOME
    for t, amount in ((40, F(1, 3)), (150, F(1, 4))):
        values[t:t + K] = HOME
        values[t + LAST] += amount
    got, expected = _recurrence(values, horizon, block, monkeypatch)
    assert got == expected and got[0] == 150


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("seed", range(4))
def test_recurrence_on_many_denominators_matches_the_oracle(block, seed, monkeypatch):
    # Reciprocals of primes among near copies of the home: at 16 bits a
    # block of times ends every few values, so the best crosses many splits
    monkeypatch.setattr(brackets, "BLOCK_DEN_BITS", 16)
    rng = random.Random(seed)
    primes = (2, 3, 5, 7, 11, 13)
    horizon = 260
    values = [F(rng.randrange(p + 1), p) for p in (rng.choice(primes) for _ in range(horizon + K))]
    home = values[:K]
    for t in rng.sample(range(K, horizon), 12):
        values[t:t + K] = home
        values[t + rng.randrange(K)] = F(rng.randrange(8), 7)
    got, expected = _recurrence(values, horizon, block, monkeypatch)
    assert got == expected


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("hopeless", ["m", "n"])
def test_thmB_drops_a_time_where_one_side_is_hopeless(block, hopeless, monkeypatch):
    # At time 30 one shifted view is exactly the fixed point and the other
    # is far from it; at time 170 both are off by 1/7 on their last term.
    # The pair's bracket is the worse of the two, so 170 wins.
    monkeypatch.setattr(ladder, "STREAM_BLOCK", block)
    m, n, horizon = 0, 12, 240
    rng = random.Random(7)
    values = [rng.choice(FILL) for _ in range(horizon + n + K)]
    good, far = (m, n) if hopeless == "n" else (n, m)
    values[30 + good:30 + good + K] = [F(1)] * K
    values[30 + far] = F(0)
    for shift in (m, n):
        values[170 + shift:170 + shift + K] = [F(1)] * (K - 1) + [F(6, 7)]
    target = [F(1)] * K
    verdict, = thmB_witnesses(window_source(SeqWindow(0, tuple(values))), ones_source(),
                              [(m, n)], horizon, K, F(2))
    t, lo = naive_fixed(values.__getitem__, (m, n), target, horizon, K)
    assert t == 170
    assert verdict.prox_witness == (t, lo + F(2) ** (1 - K))
    expected = oracles.naive_recur_defect(lambda i: values[m + i], lambda i: values[n + i], 1, horizon, K)
    assert (verdict.recur_witness.time, verdict.recur_witness.value) == expected


def _thmC(values, q, horizon, k, block, monkeypatch, source=None):
    """thmC's outcome on values, and what plain loops give: the first
    occurrence of the pattern and the best proximity of the q-shifted pair,
    or the error text where it does not occur."""
    monkeypatch.setattr(ladder, "STREAM_BLOCK", block)
    need = q + k
    top = horizon - need + 1
    word = [F(i // q % 2) for i in range(need)]
    found = first_occurrence(values, word, top)
    if found is None:
        expected = f"no block-alternating occurrence of length {need} within horizon {horizon}"
    else:
        prox = oracles.naive_min_hi(values.__getitem__, lambda i: values[i + q], 0, top, k)
        expected = (found, (prox[0], prox[2]))
    source = source or window_source(SeqWindow(0, tuple(values)))
    try:
        verdict = thmC_witnesses(source, q, F(1), horizon, k, F(2))
    except NotFoundInHorizonError as exc:
        return str(exc), expected
    return (verdict.sep_witness.time, verdict.prox_witness), expected


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("where", ["zero", "edge", "last", "absent"])
def test_thmC_occurrence_matches_a_plain_loop(block, q, where, monkeypatch):
    # halves with stray 0s and 1s between them, which never make a pattern
    k, horizon = 5, 300
    need = q + k
    top = horizon - need + 1
    rng = random.Random(q)
    values = [rng.choice((F(0), F(1), F(1, 2))) if i % 2 else F(1, 2) for i in range(horizon + 1)]
    at = {"zero": 0, "edge": 64 - need // 2, "last": top, "absent": None}[where]
    if at is not None:
        values[at:at + need] = [F(i // q % 2) for i in range(need)]
    got, expected = _thmC(values, q, horizon, k, block, monkeypatch)
    assert got == expected
    assert (got[0] if at is not None else None) == at


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("q", [1, 2, 4])
def test_thmC_reads_equal_values_alike_whatever_their_text(block, q, monkeypatch):
    # 0/5 is 0 and 3/3 is 1, each its own object; the occurrence is written
    # with them alone, and one written with 0/1 and 1/1 comes later
    k, horizon = 4, 200
    need = q + k
    texts = ["1,2"] * (horizon + 1)
    for at, zero, one in ((150, "0,1", "1,1"), (90, "0,5", "3,3")):
        texts[at:at + need] = [one if i // q % 2 else zero for i in range(need)]
    window = loads_csv("index,value_num,value_den\n" + "".join(f"{i},{t}\n" for i, t in enumerate(texts)))
    got, expected = _thmC(list(window.values), q, horizon, k, block, monkeypatch,
                          source=window_source(window))
    assert got == expected and got[0] == 90


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("q, k", [(1, 2), (2, 2), (2, 5), (3, 3), (5, 2)])
def test_thmC_on_alpha_across_its_period_jump(block, q, k, monkeypatch):
    # alpha is 486-periodic from 244, so the walk scans to 730 and jumps;
    # the times it reads stay well below the horizon
    horizon = 2000
    values = [oracles.limit_value(i) for i in range(horizon + 1)]
    lad = ladder_new("default-minimal")
    alpha = alpha_source(lad)
    reads = []
    counted = OrbitSource(lambda a, b: reads.append(b - a) or alpha.read(a, b), None, alpha.repeat)
    got, expected = _thmC(values, q, horizon, k, block, monkeypatch, source=counted)
    assert got == expected
    assert sum(reads) < horizon


@pytest.mark.parametrize("head", [1, 2, 4, 64])
@pytest.mark.parametrize("seed", range(6))
def test_fixed_kernel_reports_only_a_strictly_better_time(seed, head, monkeypatch):
    # bracket_scan given the best of earlier times: the first time strictly
    # below it with the least sum, or None; bests are drawn from the sums
    # the times have, so ties with them are common.  Any number of head
    # terms gives the same answers.
    monkeypatch.setattr(brackets, "HEAD", head)
    rng = random.Random(seed)
    k, count = rng.choice((1, 3, 4, 5, 9)), 60
    pool = [F(i, 4) for i in range(5)]
    xs = [rng.choice(pool) for _ in range(count + k - 1)]
    target = [rng.choice(pool) for _ in range(k)]
    other = [rng.choice(pool) for _ in range(count + k - 1)]
    los = [max(oracles.naive_bracket_lo(lambda i: xs[t + i], target.__getitem__, 0, k),
               oracles.naive_bracket_lo(lambda i: other[t + i], target.__getitem__, 0, k))
           for t in range(count)]
    for best in [None, *rng.sample(los, 5), min(los), F(0)]:
        below = [lo for lo in los if best is None or lo < best]
        expected = None if not below else (los.index(min(below)), min(below))
        found = brackets.bracket_scan([(xs, target), (other, target)], count, k, False, best=best)
        assert (found and (found[0], found[1].lo)) == expected
    with pytest.raises(ValueError):
        brackets.bracket_scan([(xs, target)], count, k, False, want_max=True)


def test_constant_fixed_point_ties_everywhere():
    # every time ties with the first against a fixed point it never meets
    window = window_source(SeqWindow(0, (F(1, 2),) * 300))
    verdict, = thmB_witnesses(window, constant_source(F(1, 3)), [(0, 4)], 250, K, F(2))
    lo = sum(F(1, 6) / 2**i for i in range(K))
    assert verdict.prox_witness == (0, lo + F(2) ** (1 - K))
