"""Windows of alpha, distance brackets, and the one bracket-scan kernel.

A `SeqWindow` is a finite, exactly-valued view of a one-sided sequence of
rationals in [0, 1]; `alpha_window` evaluates a range of alpha into one.
Distances between points of the shift space use the summable metric
sum |x(i) - y(i)| / 2^i; comparing finite windows of length k pins that
distance inside a closed bracket of width exactly 2^(1-k), which is the
only form of distance this package ever reports.  `bracket_scan` computes
every such bracket.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice, starmap
from math import lcm
from operator import mul, sub
from typing import Iterator, Sequence

from .ladder import DomainError, Ladder, Rational, eval_ainf, eval_ratio


@dataclass(frozen=True)
class SeqWindow:
    """Contiguous slice values[i] = x(offset + i) of a one-sided sequence."""

    offset: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError("window offset must be nonnegative")
        if not self.values:
            raise ValueError("window must hold at least one value")
        # once per object: the readers and alpha_block share one object per value
        for v in dict(zip(map(id, self.values), self.values)).values():
            if not 0 <= v.numerator <= v.denominator:
                raise ValueError(f"window value {v} outside [0, 1]")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DistBracket:
    """Closed interval certain to contain an orbit distance."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not 0 <= self.lo <= self.hi <= 2:
            raise ValueError("bracket must satisfy 0 <= lo <= hi <= 2")


def alpha(ladder: Ladder, i: int) -> Fraction:
    """Integer-coordinate sample of the limit profile; defined for i >= 0."""
    if not isinstance(i, int) or i < 0:
        raise DomainError("sequence coordinates are nonnegative integers")
    return eval_ainf(ladder, i)


def alpha_window(ladder: Ladder, start: int, length: int) -> SeqWindow:
    return SeqWindow(start, tuple(alpha_block(ladder, start, length)))


#: Values per window that `alpha_windows` yields: few enough that a
#: streamed range of alpha takes the same memory at any length.
STREAM_BLOCK = 4096


def alpha_windows(ladder: Ladder, start: int, length: int) -> Iterator[SeqWindow]:
    """The window of alpha at start .. start + length - 1 as consecutive
    windows of at most STREAM_BLOCK values."""
    for i in range(start, start + length, STREAM_BLOCK):
        yield alpha_window(ladder, i, min(STREAM_BLOCK, start + length - i))


def alpha_block(ladder: Ladder, start: int, length: int) -> list[Fraction]:
    """alpha(start) .. alpha(start + length - 1); none for length < 1.

    Each coordinate is evaluated at the least level whose domain covers it,
    as in `alpha`, so the range splits at each level size p[m].  Each
    distinct value is built into a Fraction once.
    """
    if not isinstance(start, int) or start < 0:
        raise DomainError("sequence coordinates are nonnegative integers")
    sizes, fraction = ladder.sizes, cache(Fraction)
    out: list[Fraction] = []
    i, stop = start, start + length
    while i < stop:
        n = ladder.ensure_cover(i)
        end = min(stop, sizes[n] + 1)
        out += starmap(fraction, [eval_ratio(sizes, n, x, 1) for x in range(i, end)])
        i = end
    return out


#: A block of times ends once the common denominator of its values passes
#: this many bits.  Many coprime denominators would otherwise make every
#: integer numerator, and the memory they take, grow with the whole range.
BLOCK_DEN_BITS = 1024
#: A block also ends at this many times, so a range whose denominator never
#: grows, such as a constant orbit, is still summed in bounded memory.
BLOCK_TIMES = 1 << 14


def bracket_scan(
    sides: Sequence[tuple[Sequence[Rational], Sequence[Rational]]],
    count: int,
    k: int,
    sliding: bool,
    want_max: bool = False,
) -> tuple[int, DistBracket]:
    """The first of the times 0 .. count-1 (count >= 1) with the smallest
    (with `want_max`, the largest) bracket, and that bracket.

    The lower sum at time j is the largest over the sides (xs, ys) of
    sum_{i<k} |xs[j+i] - ys[i + (j if sliding else 0)]| / 2^i: a sliding
    side compares two points that both move with j, any other side compares
    the moving point with the fixed target ys[:k].  The scan stops at the
    first time that reaches the bound (0, or 2 - 2^(1-k) with `want_max`),
    since no later time can beat it.

    Sums are exact integers over one common denominator per block of
    times.  A block holds at least one full k-window and ends once that
    denominator passes BLOCK_DEN_BITS bits or it holds BLOCK_TIMES times.
    """
    high = k - 1
    weights = [1 << (high - i) for i in range(k)]
    width = Fraction(2) ** (1 - k)
    pick = max if want_max else min
    best_t, best = 0, None
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
        end = min(count, j0 + BLOCK_TIMES)
        while j1 < end and den.bit_length() <= BLOCK_DEN_BITS:
            stop = min(end, j1 + run)
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

        sums = []
        for xs, ys in sides:
            xi = scaled(xs[j0:j1 + high])
            if sliding:
                diffs = list(map(abs, map(sub, xi, scaled(ys[j0:j1 + high]))))
                sums.append(_sliding_sums(diffs, weights))
            else:
                sums.append(_fixed_sums(xi, scaled(ys[:k]), weights))
        bound = ((1 << k) - 1) * den if want_max else 0
        merged = sums[0] if len(sums) == 1 else map(max, *sums)
        # Chunks of doubling size, up to 4096 times: the scan stops within
        # twice the times a one-by-one scan would take to reach the bound.
        j, size = j0, 1
        while chunk := list(islice(merged, size)):
            n = pick(chunk)
            lo = Fraction(n, den << high)
            if best is None or (lo > best if want_max else lo < best):
                best_t, best = j + chunk.index(n), lo
                if n == bound:
                    return best_t, DistBracket(best, best + width)
            j += len(chunk)
            size = min(2 * size, 4096)
        j0 = j1
    return best_t, DistBracket(best, best + width)


def _sliding_sums(diffs: list[int], weights: list[int]) -> Iterator[int]:
    """Weighted sums of each k-window of diffs, one O(1) update per step."""
    k = len(weights)
    n = sum(map(mul, diffs, weights))
    yield n
    for old, new in zip(diffs, diffs[k:]):
        n = ((n - old * weights[0]) << 1) + new
        yield n


def _fixed_sums(xi: list[int], yi: list[int], weights: list[int]) -> Iterator[int]:
    """Weighted distance of each k-window of xi from the fixed window yi."""
    k = len(weights)
    for j in range(len(xi) - k + 1):
        yield sum(map(mul, map(abs, map(sub, xi[j:j + k], yi)), weights))
