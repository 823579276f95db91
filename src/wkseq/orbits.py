"""Orbit sources and views, and the repeats they know of.

An `OrbitSource` gives lazy access to the coordinates of a one-sided orbit
point: alpha, a constant, or a window file.  It may also state where its
coordinates repeat, and they repeat exactly: a constant with period 1,
alpha with the period of the level below over each of its repeats (486 on
[244, 3^15)), and a window of alpha with the same.  An `OrbitView` reads a
source from a fixed shift onward.  `jump_over` combines the repeats of the
views one relation search reads into the stretch of times it may skip.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, NamedTuple, Sequence

from .ladder import Ladder, Rational, pieces
from .sequence import SeqWindow, alpha_block


class OrbitSource:
    """Lazy coordinate access to a one-sided orbit point.

    length is None for sources that can produce arbitrarily many
    coordinates.  The `read` callback returns coordinates start .. stop-1;
    `read` checks them against the bounds before calling it.  The optional
    `repeat` callback is one structural fact: `repeat(i)` is (period, stop)
    when x[j] == x[j + period] for every i <= j < stop - period (stop None:
    no end), or None where the source knows no such stretch from i.
    """

    def __init__(
        self,
        read: Callable[[int, int], Sequence[Fraction]],
        length: int | None = None,
        repeat: Callable[[int], tuple[int, int | None] | None] = lambda i: None,
    ):
        self.length = length
        self._read = read
        self.repeat = repeat

    def read(self, start: int, stop: int) -> Sequence[Fraction]:
        """Coordinates start .. stop-1."""
        if start < 0:
            raise IndexError("orbit coordinates are nonnegative")
        if self.length is not None and stop > self.length:
            raise IndexError(
                f"coordinate {stop - 1} beyond orbit data of length {self.length}"
            )
        return self._read(start, stop)


def alpha_source(ladder: Ladder) -> OrbitSource:
    """alpha.  Its repeat from coordinate i is the piece of the level n
    covering i that starts there: a plateau of ones has period 1, the level
    below read as it is has its period 2p[n-1], and a ramp has none."""
    p = ladder.sizes

    def repeat(i: int) -> tuple[int, int] | None:
        n = ladder.ensure_cover(i)
        _, stop, below, copies, _ = next(pieces(ladder, n, i, p[n] + 1))
        if copies is not None:
            return None
        return 1 if below is None or not n else 2 * p[n - 1], stop

    return OrbitSource(lambda a, b: alpha_block(ladder, a, b - a), repeat=repeat)


#: Most values at the end of a window file whose least period
#: `tail_period` looks for.
TAIL = 4096


def tail_period(values: Sequence[Fraction]) -> tuple[int, int] | None:
    """(period, first): the least period of the file's tail, its last half
    but at most TAIL values, when that period is at most half the tail, and
    the first index from which the values keep it to the end.  None when
    the tail has no such period.

    The tail is coded one character per distinct value, equal values alike
    whatever their objects, so `str.find` proposes the periods at C speed;
    the tail's own period is then followed back through the values in
    slices."""
    tail = values[len(values) - min(TAIL, len(values) // 2):]
    codes: dict[tuple[int, int], int] = {}
    by_id = dict(zip(map(id, tail), tail))
    for i, v in by_id.items():
        by_id[i] = codes.setdefault(v.as_integer_ratio(), len(codes))
    text = "".join(map(chr, map(by_id.__getitem__, map(id, tail))))
    m = len(text)
    head = text[:m // 2]
    p = text.find(head, 1, 2 * (m // 2))
    while p > 0 and text[p:] != text[:m - p]:
        p = text.find(head, p + 1, 2 * (m // 2))
    if p < 1:
        return None
    first = len(values) - m  # values[j] == values[j + p] for first <= j < len - p
    while first:
        a = max(0, first - TAIL)
        if values[a:first] != values[a + p:first + p]:
            while values[first - 1] == values[first - 1 + p]:
                first -= 1
            return p, first
        first = a
    return p, 0


def window_source(window: SeqWindow) -> OrbitSource:
    """A window file's values.  They repeat with the least period of the
    file's tail from where the file starts keeping it; `tail_period` finds
    both the first time a search asks, so a search that ends in its first
    block never pays for it."""
    values = window.values
    found = []

    def repeat(i: int) -> tuple[int, int] | None:
        if not found:
            found.append(tail_period(values))
        tail = found[0]
        return (tail[0], len(values)) if tail and i >= tail[1] else None

    return OrbitSource(lambda a, b: values[a:b], len(values), repeat)


def constant_source(value: Rational) -> OrbitSource:
    v = Fraction(value)
    return OrbitSource(lambda a, b: [v] * (b - a), repeat=lambda i: (1, None))


def ones_source() -> OrbitSource:
    """The all-ones fixed point, the distinguished target for proximality."""
    return constant_source(1)


def zeros_source() -> OrbitSource:
    return constant_source(0)


class OrbitView(NamedTuple("OrbitView", [("source", OrbitSource), ("shift", int)])):
    """An orbit source read from a fixed shift onward."""

    __slots__ = ()

    def __new__(cls, source: OrbitSource, shift: int = 0):
        if shift < 0:
            raise ValueError("view shift must be nonnegative")
        return super().__new__(cls, source, shift)

    def read(self, start: int, stop: int) -> Sequence[Fraction]:
        """Values at times start .. stop-1."""
        return self.source.read(self.shift + start, self.shift + stop)

    def max_time(self, k: int) -> int | None:
        """Largest time t for which coordinates t..t+k-1 are available."""
        if self.source.length is None:
            return None
        return self.source.length - self.shift - k


def jump_over(views: Sequence[OrbitView], width: int, t: int, horizon: int) -> tuple[int, int] | None:
    """(ready, leave) when every view repeats from time t.  With P the lcm
    of their periods, the sums of the times t .. leave-1, whose windows of
    `width` values stay in every stretch, repeat with period P; so once the
    times t .. ready-1 = t+P-1 are scanned, the rest can be skipped.  None
    when some view does not repeat or nothing would be skipped."""
    period, end = 1, horizon + width
    for source, shift in views:
        rep = source.repeat(shift + t)
        if rep is None:
            return None
        period = lcm(period, rep[0])
        end = end if rep[1] is None else min(end, rep[1] - shift)
    ready, leave = t + period, end - width + 1
    return (ready, leave) if ready < leave else None
