"""The one walker of a range of integers through the ladder's levels.

`pieces` gives a level on a range by its structure: plateaus of ones,
repeats of the periodized level below, and ramps over them; `spans` splits
a range by the least level covering each point.  `eval_block` expands the
pieces of a range of any positive step into values, and `certify` reads
runs of ones off them, so both cost what the levels and pieces of a range
do, not its length.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator

from .ladder import ONE, ZERO, Ladder, _below, _copy, _value, eval_ratio

#: Points per block of a certificate scan, values per window that
#: `sequence.alpha_windows` yields, and times per block of a relation
#: search: few enough that a streamed range of alpha, or a scan or search
#: over it, takes the same memory at any length.
STREAM_BLOCK = 4096


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


def eval_block(ladder: Ladder, points: Iterable[int]) -> list[Fraction]:
    """The limit profile at integer points of either sign, each read at the
    least level whose domain covers it, as `eval_ainf` does; the shared
    ZERO and ONE stand for every 0 and 1.  A range of positive step d is the
    expansion of its `pieces`: inside a piece its points are a range, a
    ramp's copies a slice of the piece's, and a repeat reads the periodized
    level below at a range of step d, split where it wraps.  Where a level's
    period is cached, or no longer than the points of the call, it is one
    period expanded once per ladder and shared by all reads, and a read of
    it repeats after period / gcd(period, d) points.  Other points, and a
    range's lone points, go through `eval_ratio` one by one.
    """
    p = ladder.sizes
    if not isinstance(points, range) or points.step < 1:
        return [_value(*eval_ratio(p, ladder.ensure_cover(x), x, 1)) for x in points]
    tiles = ladder._tiles

    def level(n: int, r: range) -> list[Fraction]:
        """Level n at the points of r, inside [-p[n], p[n]]."""
        if len(r) < 2:
            return [_value(*eval_ratio(p, n, x, 1)) for x in r]
        out: list[Fraction] = []
        d = r.step
        for a, b, i, copies, s in pieces(ladder, n, r.start, r[-1] + 1):
            k = (r.start - a) % d  # the first point of r in the piece is a + k
            if a + k >= b:
                continue
            if i is None:
                out += [ONE] * len(range(a + k, b, d))
                continue
            below = periodized(n - 1, range(i + k, i + b - a, d))
            if copies is None:
                out += below
                continue
            out += [
                ONE if c >= s
                else v if c <= 0 or c * v.denominator <= v.numerator * s
                else Fraction(c, s)
                for c, v in zip(copies[k::d], below)
            ]
        return out

    def periodized(m: int, r: range) -> list[Fraction]:
        """Level m periodized with period 2p[m], at the points of r."""
        if m < 0:
            return [ZERO] * len(r)
        half, d = p[m], r.step
        if m in tiles or 2 * half <= len(points):
            if m not in tiles:
                tiles[m] = level(m, range(-half, half))
            tile, j = tiles[m], (r.start + half) % (2 * half)
            cycle = 2 * half // gcd(d, 2 * half)  # points until the read repeats
            if d == 1:
                once = tile[j:] + tile[:j]
            else:
                once = [tile[x % (2 * half)] for x in range(j, j + min(cycle, len(r)) * d, d)]
            reps, rest = divmod(len(r), cycle)
            out = once * reps
            out += once[:rest]
            return out
        out = []
        while len(out) < len(r):  # one run of points per period met
            x = (r[len(out)] + half) % (2 * half) - half
            run = level(m, range(x, half, d)[:len(r) - len(out)])
            if out:
                out += run
            else:
                out = run
        return out

    out: list[Fraction] = []
    for n, lo, hi in spans(ladder, points.start, points[-1] + 1 if points else points.start):
        out += level(n, range(lo + (points.start - lo) % points.step, hi, points.step))
    return out
