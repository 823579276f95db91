"""Orbit sources and views, and the repeats they know of.

An `OrbitSource` gives lazy access to the coordinates of a one-sided orbit
point: alpha, a constant, or a window file.  It may also state where its
coordinates repeat, and they repeat exactly: a constant with period 1,
alpha with the period of the level below over each of its repeats (486 on
[244, 3^15)), and a window of alpha with the same.  Where a source does not
repeat, it states where that stretch ends.  An `OrbitView` reads a source
from a fixed shift onward.  `jump_over` combines the stretches of the views
one relation search reads into the times it may skip, or the time at which
to ask again.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, NamedTuple, Sequence

from .ladder import Ladder, Rational, exact_fraction
from .sequence import SeqWindow, alpha_block
from .walker import pieces


class OrbitSource:
    """Lazy coordinate access to a one-sided orbit point.

    length is None for sources that can produce arbitrarily many
    coordinates.  The `read` callback returns coordinates start .. stop-1;
    `read` checks them against the bounds before calling it.  The optional
    `repeat` callback states the stretch from coordinate i: `repeat(i)` is
    (period, stop), with stop > i where the next stretch begins (None: no
    end), and x[j] == x[j + period] for every i <= j < stop - period, or
    period None where the source does not repeat from i.
    """

    def __init__(
        self,
        read: Callable[[int, int], Sequence[Fraction]],
        length: int | None = None,
        repeat: Callable[[int], tuple[int | None, int | None]] = lambda i: (None, None),
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
    """alpha.  Its stretch from coordinate i is the piece of the level n
    covering i that starts there: a plateau of ones has period 1, the level
    below read as it is has its period 2p[n-1], and a ramp has none."""
    p = ladder.sizes

    def repeat(i: int) -> tuple[int | None, int]:
        n = ladder.ensure_cover(i)
        _, stop, below, copies, _ = next(pieces(ladder, n, i, p[n] + 1))
        if copies is not None:
            return None, stop
        return 1 if below is None or not n else 2 * p[n - 1], stop

    return OrbitSource(lambda a, b: alpha_block(ladder, a, b - a), repeat=repeat)


#: Most values at the end of a window file whose least period
#: `tail_period` looks for.
TAIL = 4096


def tail_period(window: SeqWindow) -> tuple[int, int] | None:
    """(period, first): the least period of the window's tail, its last
    half but at most TAIL values, when that period is at most half the
    tail, and the first index from which the values keep it to the end.
    None when the tail has no such period.

    The tail is written one character per distinct value, each code named
    once (a window built from objects may give equal values two codes), so
    `str.find` proposes the period at C speed; it is followed back through
    the codes in slices, and value by value where the codes differ."""
    codes, table, n = window._codes, window._distinct, len(window)
    tail = codes[n - min(TAIL, n // 2):]
    same: dict[tuple[int, int], str] = {}
    chars = {c: same.setdefault(table[c].as_integer_ratio(), chr(len(same))) for c in set(tail)}
    text = "".join(map(chars.__getitem__, tail))
    m = len(text)
    head = text[:m // 2]
    # By Fine and Wilf, when the first candidate is not a period no later
    # one at most half the tail is.
    p = text.find(head, 1, 2 * (m // 2))
    if p < 1 or text[p:] != text[:m - p]:
        return None
    first = n - m  # value j equals value j + p for first <= j < n - p
    while first:
        a = max(0, first - TAIL)
        if codes[a:first] != codes[a + p:first + p]:
            while first and table[codes[first - 1]] == table[codes[first - 1 + p]]:
                first -= 1
            return p, first
        first = a
    return p, 0


def window_source(window: SeqWindow) -> OrbitSource:
    """A window file's values, read off its codes.  They repeat with the
    least period of the file's tail from where the file starts keeping it,
    and not before; `tail_period` finds both the first time a search asks."""
    codes, table = window._codes, window._distinct
    found = []

    def repeat(i: int) -> tuple[int | None, int]:
        if not found:
            found.append(tail_period(window) or (None, len(codes)))
        period, first = found[0]
        return (period, len(codes)) if i >= first else (None, first)

    return OrbitSource(lambda a, b: list(map(table.__getitem__, codes[a:b])), len(codes), repeat)


def constant_source(value: Rational) -> OrbitSource:
    v = exact_fraction(value)
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


def jump_over(views: Sequence[OrbitView], width: int, t: int, horizon: int) -> tuple[int, int]:
    """(ready, leave): scan the times t .. ready-1, skip ready .. leave-1,
    and ask again at leave.  When every view repeats from time t, with P the
    lcm of their periods, the sums of the times t .. leave-1, whose windows
    of `width` values stay in every stretch, repeat with period P; so once
    the times t .. ready-1 = t+P-1 are scanned, the rest can be skipped.
    Otherwise, or when nothing would be skipped, ready = leave is where the
    first view's stretch ends, or horizon + 1 when none ends before."""
    period, end = 1, horizon + width
    for source, shift in views:
        rep, stop = source.repeat(shift + t)
        period = lcm(period, rep) if period and rep else None
        end = end if stop is None else min(end, stop - shift)
    leave = end - width + 1
    if period and t + period < leave:
        return t + period, leave
    return (min(end, horizon + 1),) * 2
