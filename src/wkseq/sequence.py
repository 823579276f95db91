"""Windows of alpha, distance brackets, and the one bracket-scan kernel.

A `SeqWindow` is a finite, exactly-valued view of a one-sided sequence of
rationals in [0, 1]; `alpha_window` reads a range of alpha into one through
`alpha_block`, the ladder's block reader on nonnegative coordinates.
Distances between points of the shift space use the summable metric
sum |x(i) - y(i)| / 2^i; comparing finite windows of length k pins that
distance inside a closed bracket of width exactly 2^(1-k), which is the
only form of distance this package ever reports.  `bracket_scan` computes
every such bracket; the relation searches hand it one block of at most
`STREAM_BLOCK` times at a time.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import lcm
from operator import mul, sub
from typing import Iterator, NamedTuple, Sequence

from .ladder import DomainError, Ladder, Rational, eval_ainf, eval_block


class SeqWindow:
    """Contiguous slice values[i] = x(offset + i) of a one-sided sequence.

    Immutable, equal by value, and as long as its values.
    """

    __slots__ = ("offset", "values")

    def __init__(self, offset: int, values: tuple[Fraction, ...]):
        if offset < 0:
            raise ValueError("window offset must be nonnegative")
        if not values:
            raise ValueError("window must hold at least one value")
        # once per object: the readers and alpha_block share one object per value
        for v in dict(zip(map(id, values), values)).values():
            if not 0 <= v.numerator <= v.denominator:
                raise ValueError(f"window value {v} outside [0, 1]")
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.offset, self.values) == (other.offset, other.values)

    def __hash__(self) -> int:
        return hash((self.offset, self.values))

    def __repr__(self) -> str:
        return f"SeqWindow(offset={self.offset!r}, values={self.values!r})"


class DistBracket(NamedTuple("DistBracket", [("lo", Fraction), ("hi", Fraction)])):
    """Closed interval certain to contain an orbit distance."""

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction):
        if not 0 <= lo <= hi <= 2:
            raise ValueError("bracket must satisfy 0 <= lo <= hi <= 2")
        return super().__new__(cls, lo, hi)


def alpha(ladder: Ladder, i: int) -> Fraction:
    """Integer-coordinate sample of the limit profile; defined for i >= 0."""
    if not isinstance(i, int) or i < 0:
        raise DomainError("sequence coordinates are nonnegative integers")
    return eval_ainf(ladder, i)


def alpha_window(ladder: Ladder, start: int, length: int) -> SeqWindow:
    return SeqWindow(start, tuple(alpha_block(ladder, start, length)))


#: Values per window that `alpha_windows` yields, and times per block of a
#: relation search: few enough that a streamed range of alpha, or a search
#: over it, takes the same memory at any length.
STREAM_BLOCK = 4096


def alpha_windows(ladder: Ladder, start: int, length: int) -> Iterator[SeqWindow]:
    """The window of alpha at start .. start + length - 1 as consecutive
    windows of at most STREAM_BLOCK values."""
    for i in range(start, start + length, STREAM_BLOCK):
        yield alpha_window(ladder, i, min(STREAM_BLOCK, start + length - i))


def alpha_block(ladder: Ladder, start: int, length: int) -> list[Fraction]:
    """alpha(start) .. alpha(start + length - 1); none for length < 1.

    This is `ladder.eval_block` on nonnegative coordinates: each coordinate
    is read at the least level whose domain covers it, as in `alpha`, at a
    cost that grows with the levels and pieces the range meets.
    """
    if not isinstance(start, int) or start < 0:
        raise DomainError("sequence coordinates are nonnegative integers")
    return eval_block(ladder, range(start, start + length))


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
    denominator passes BLOCK_DEN_BITS bits.  The memory taken grows with
    count; the relation searches pass at most STREAM_BLOCK times.
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
