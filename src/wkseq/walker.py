"""The one walker of a range of integers through the ladder's levels.

`pieces` gives a level on a range by its structure: plateaus of ones,
repeats of the periodized level below, and ramps over them; `spans` splits
a range by the least level covering each point.  `fold` descends the
pieces once, for any algebra over them, with repeats of one period joined
by count: `eval_block` folds the values, and the ones certificate its runs.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import iadd, mul
from typing import Iterable, Iterator

from .ladder import ONE, ZERO, Ladder, _below, _copy, _value, eval_ratio

#: Multiples of stretch(n) where level n's stretched copy changes form
#: inside [-p[n], p[n]]: it is 0 on [-s, s] and [5s, 7s], 1 on [2s, 4s]
#: and [8s, 9s] (and their mirror images), and a ramp in between.  The
#: splice 3s lies inside the plateau [2s, 4s], so each piece that reads the
#: level below lies on one side of it.
_COPY_EDGES = (-8, -7, -5, -4, -2, -1, 1, 2, 4, 5, 7, 8)


def pieces(ladder: Ladder, n: int, lo: int, hi: int) -> Iterator[tuple]:
    """Level n on lo .. hi-1, inside [-p[n], p[n]], as pieces (a, b, i,
    copies, s) in order, cut where the stretched copy (stretch s) changes
    form.  A piece is all ones where i is None; otherwise it reads the
    periodized level below at i .. i+b-a-1, one step ahead past the splice,
    and on a ramp `copies` holds the copy's c/s at each point, which takes
    the larger of the two.  Level 0 is the copy of stretch 1 over a level
    -1 that is 0 everywhere, read at i = a."""
    s = ladder.stretch(n) if n else 1
    cuts = sorted({lo, hi, *(k * s for k in _COPY_EDGES if lo < k * s < hi)})
    for a, b in zip(cuts, cuts[1:]):
        first, last = _copy(a, s), _copy(b - 1, s)
        if min(first, last) >= s:
            yield a, b, None, None, s
        else:
            step = 1 if last >= first else -1
            copies = range(first, last + step, step) if max(first, last) > 0 else None
            yield a, b, _below(ladder.sizes, n, a, 1) if n else a, copies, s


def spans(ladder: Ladder, lo: int, hi: int) -> Iterator[tuple[int, int, int]]:
    """The integers lo .. hi-1 of either sign as runs (n, a, b), each at the
    least level n whose domain covers it, as `eval_ainf` reads them."""
    p = ladder.sizes
    while lo < hi:
        n = ladder.ensure_cover(lo)
        # level n covers [-p[n], -p[n-1]) and (p[n-1], p[n]]; level 0 [-3, 3]
        end = min(hi, -p[n - 1] if n and lo < 0 else p[n] + 1)
        yield n, lo, end
        lo = end


def fold(ladder: Ladder, n: int, r: range, alg, size: int):
    """Level n at the points of r, a range of positive step in [-p[n], p[n]],
    folded over its `pieces` by `alg`: `flat(value, points)` for a plateau of
    ONE, and for level 0's level below, all ZERO; `ramp` over the level below;
    `join`; `repeat(part, times)`.  A ramp's only 1, its first point, is a
    plateau.  A period of the level below no longer than `size` is folded
    once per ladder, in `ladder._memo[alg, level, phase]`: at phase 0 where
    `alg.cut` reads any points of it, else at the phase read, and repeated."""
    out, d = alg.flat(ZERO, ()), r.step
    for a, b, i, copies, s in pieces(ladder, n, r.start, r.stop):
        k = (r.start - a) % d  # the first point of r in the piece is a + k
        if a + k < b and copies and copies[k] >= s:
            out, k = alg.join(out, alg.flat(ONE, (a,))), k + d
        if a + k < b:
            part = range(a + k, b, d) if i is None else _periodized(ladder, n - 1, range(i + k, i + b - a, d), alg, size)
            part = alg.flat(ONE, part) if i is None else part if copies is None else alg.ramp(copies[k::d], s, part)
            out = alg.join(out, part)
    return out


def _periodized(ladder, m, r, alg, size, memoised=True):
    """Level m periodized with period 2p[m], at the points of r, folded a run
    of points per period met, but for the whole periods of a memoised one."""
    if m < 0:  # level 0 reads a level -1 that is 0 everywhere
        return alg.flat(ZERO, r)
    half, memo, out = ladder.sizes[m], ladder._memo, alg.flat(ZERO, ())
    key = alg, m, 0 if alg.cut else (r.start + half) % (2 * half)
    if memoised and (key in memo or 2 * half <= size):
        if key not in memo:
            memo[key] = _periodized(ladder, m, range(key[2] - half, key[2] + half), alg, size, False)
        if alg.cut:
            return alg.cut(memo[key], r)
        out = alg.repeat(memo[key], (r.stop - r.start) // (2 * half))  # r is contiguous without `cut`
        r = range(r.stop - (r.stop - r.start) % (2 * half), r.stop)
    while r:
        x = (r.start + half) % (2 * half) - half
        run = range(x, min(half, x + r.stop - r.start), r.step)
        out, r = alg.join(out, fold(ladder, m, run, alg, size)), range(r.start + run[-1] - x + r.step, r.stop, r.step)
    return out


class VALUES:
    """`eval_block`'s algebra, whose summary is the list of values.  A read
    of a memoised period is cut out of it, so reads share one object per
    point of it, and repeats after period / gcd(period, step) points."""

    join, repeat = iadd, mul

    def flat(value, points):
        return [value] * len(points)

    def ramp(copies, s, below):
        return [v if c <= 0 or c * v.denominator <= v.numerator * s else Fraction(c, s) for c, v in zip(copies, below)]

    def cut(tile, r):
        period, d = len(tile), r.step
        j, cycle = (r.start + period // 2) % period, period // gcd(d, period)
        once = tile[j:] + tile[:j] if d == 1 else [tile[x % period] for x in range(j, j + min(cycle, len(r)) * d, d)]
        return (once * -(-len(r) // cycle))[:len(r)]


def eval_block(ladder: Ladder, points: Iterable[int]) -> list[Fraction]:
    """The limit profile at integer points of either sign, each at the least
    level covering it, as `eval_ainf` reads it: a range of positive step folded
    by `VALUES` over its `spans`, other points by `eval_ratio` one by one."""
    if not isinstance(points, range) or points.step < 1:
        return [_value(*eval_ratio(ladder.sizes, ladder.ensure_cover(x), x, 1)) for x in points]
    out: list[Fraction] = []
    for n, lo, hi in spans(ladder, points.start, points[-1] + 1 if points else points.start):
        out += fold(ladder, n, range(lo + (points.start - lo) % points.step, hi, points.step), VALUES, len(points))
    return out
