"""Distance brackets, and the one bracket-scan kernel behind every search.

Distances between points of the shift space use the summable metric
sum |x(i) - y(i)| / 2^i; comparing finite windows of length k pins that
distance inside a closed bracket of width exactly 2^(1-k), which is the
only form of distance this package ever reports.  `bracket_scan` computes
every such bracket; the relation searches hand it one block of at most
`ladder.STREAM_BLOCK` times at a time.  thmC's word search,
`thmc.occurrence_scan`, lives with thmC, so no other search compiles it.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import compress, islice
from math import lcm
from operator import mul, sub
from typing import Iterator, NamedTuple, Sequence

from .ladder import Rational


class DistBracket(NamedTuple("DistBracket", [("lo", Fraction), ("hi", Fraction)])):
    """Closed interval certain to contain an orbit distance."""

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction):
        if not 0 <= lo <= hi <= 2:
            raise ValueError("bracket must satisfy 0 <= lo <= hi <= 2")
        return super().__new__(cls, lo, hi)


#: A block of times ends once the common denominator of its values passes
#: this many bits.  Many coprime denominators would otherwise make every
#: integer numerator, and the memory they take, grow with the whole range.
BLOCK_DEN_BITS = 1024


def bracket_scan(
    sides: Sequence[tuple[Sequence[Rational], Sequence[Rational]]],
    count: int,
    k: int,
    sliding: bool,
    want_max: bool = False,
    best: Fraction | None = None,
) -> tuple[int, DistBracket] | None:
    """The first of the times 0 .. count-1 (count >= 1) with the smallest
    (with `want_max`, the largest) bracket, and that bracket.  Given `best`,
    the lower end of the best bracket of earlier times, only a strictly
    better bracket counts, and None means that no time has one.

    The lower sum at time j is the largest over the sides (xs, ys) of
    sum_{i<k} |xs[j+i] - ys[i + (j if sliding else 0)]| / 2^i: a sliding
    side compares two points that both move with j, any other side compares
    the moving point with the fixed target ys[:k], and is searched for a
    minimum only.  The scan stops at the first time that reaches the bound
    (0, or 2 - 2^(1-k) with `want_max`), since no later time can beat it.

    A fixed-target minimum drops a time once it cannot win.  The weights
    halve, so the first HEAD terms carry all but 2^-HEAD of the weight:
    they are summed for every time at C speed, and the rest is added only
    where that partial sum, merged over the sides by max, is below the best
    so far.  Only a strictly smaller sum replaces the best, so ties keep
    the smallest time.

    Sums are exact integers over one common denominator per block of
    times.  A block holds at least one full k-window and ends once that
    denominator passes BLOCK_DEN_BITS bits; a best from an earlier block
    enters a later one as the least integer sum that does not beat it.
    The memory taken grows with count; the relation searches pass at most
    `ladder.STREAM_BLOCK` times.
    """
    if want_max and not sliding:
        raise ValueError("a fixed-target search looks for a minimum")
    high = k - 1
    weights = [1 << (high - i) for i in range(k)]
    width = Fraction(2) ** (1 - k)
    pick = max if want_max else min
    best_t = None
    j0 = 0
    while j0 < count:
        den = lcm(*(
            v.denominator
            for xs, ys in sides
            for v in (*xs[j0:j0 + k], *(ys[j0:j0 + k] if sliding else ys[:k]))
        ))
        # Times j1 .. stop-1 add the values at j1+k-1 .. stop+k-2.  Runs of
        # times join at once while the limit holds, and one at a time where a
        # run would pass it, so the block ends at the same time either way.
        j1, run = j0 + 1, 1
        while j1 < count and den.bit_length() <= BLOCK_DEN_BITS:
            stop = min(count, j1 + run)
            grown = lcm(den, *(
                v.denominator
                for xs, ys in sides
                for vs in ((xs, ys) if sliding else (xs,))
                for v in vs[j1 + high:stop + high]
            ))
            if run > 1 and grown.bit_length() > BLOCK_DEN_BITS:
                run = 1
                continue
            den, j1, run = grown, stop, 2 * run

        def scaled(vs: Sequence[Rational]) -> list[int]:
            return [v.numerator * (den // v.denominator) for v in vs]

        unit = den << high
        if not sliding:
            ceiling = (1 << k) * den if best is None else -(-best.numerator * unit // best.denominator)
            j, n = _fixed_min([(scaled(xs[j0:j1 + high]), scaled(ys[:k])) for xs, ys in sides],
                              weights, ceiling)
            if j is not None:
                best_t, best = j0 + j, Fraction(n, unit)
                if not n:
                    break
            j0 = j1
            continue
        sums = []
        for xs, ys in sides:
            diffs = map(abs, map(sub, scaled(xs[j0:j1 + high]), scaled(ys[j0:j1 + high])))
            sums.append(_sliding_sums(list(diffs), weights))
        bound = ((1 << k) - 1) * den if want_max else 0
        merged = sums[0] if len(sums) == 1 else map(max, *sums)
        # Chunks of doubling size, up to 4096 times: the scan stops within
        # twice the times a one-by-one scan would take to reach the bound.
        j, size = j0, 1
        while chunk := list(islice(merged, size)):
            n = pick(chunk)
            lo = Fraction(n, unit)
            if best is None or (lo > best if want_max else lo < best):
                best_t, best = j + chunk.index(n), lo
                if n == bound:
                    return best_t, DistBracket(best, best + width)
            j += len(chunk)
            size = min(2 * size, 4096)
        j0 = j1
    return None if best_t is None else (best_t, DistBracket(best, best + width))


def _sliding_sums(diffs: list[int], weights: list[int]) -> Iterator[int]:
    """Weighted sums of each k-window of diffs, one O(1) update per step."""
    k = len(weights)
    n = sum(map(mul, diffs, weights))
    yield n
    for old, new in zip(diffs, diffs[k:]):
        n = ((n - old * weights[0]) << 1) + new
        yield n


#: Terms of each time that a fixed-target minimum sums before it drops the
#: time or adds the rest.  In process on a 2-CPU x86-64 host (Python
#: 3.11), against ones at k = 32, classify and thmB on 2*10^5 random values
#: num/1000 ran fastest at 2 (of 1, 2, 3, 4 and 6), and classify on alpha's
#: ramps as fast at 2 as at 4.
HEAD = 2


def _fixed_min(
    sides: list[tuple[list[int], list[int]]], weights: list[int], ceiling: int
) -> tuple[int | None, int]:
    """(j, n): the first time j of the smallest merged sum n below
    `ceiling`, or (None, ceiling).  The sum of time j on a side (xi, yi) is
    sum_i |xi[j+i] - yi[i]| * weights[i], and the sides merge by max.

    Each side's first HEAD terms are summed at C speed, in units of the
    last of their weights.  A time whose partial sum, merged by max, reaches
    the best so far is dropped; `compress` finds the next one that does not,
    and only that time adds its other terms."""
    k = len(weights)
    count = len(sides[0][0]) - k + 1
    head = min(HEAD, k)
    shift = k - head  # weights[i] == 1 << (head - 1 - i) + shift for i < head
    heads = [
        map(sum, zip(*(map((1 << (head - 1 - i)).__mul__, map(abs, map(y.__sub__, islice(xi, i, i + count))))
                       for i, y in enumerate(yi[:head]))))
        for xi, yi in sides
    ]
    merged = heads[0] if len(heads) == 1 else map(max, *heads)
    times, best = iter(range(count)), None
    while True:
        # a partial sum p cannot win once p << shift >= ceiling
        for j in compress(times, map((-(-ceiling >> shift)).__gt__, merged)):
            n = max(sum(map(mul, map(abs, map(sub, xi[j:j + k], yi)), weights)) for xi, yi in sides)
            if n < ceiling:
                best, ceiling = j, n
                break
        else:
            return best, ceiling

