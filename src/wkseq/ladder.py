"""Exact evaluation of a recursively spliced family of plateau functions.

The base profile is a symmetric trapezoid on [-3, 3]: zero on [-1, 1],
ramps on [-2, -1] and [1, 2], and plateaus at height one on [-3, -2] and
[2, 3].  Each level of the family periodizes the previous level, lays a
stretched copy of the base profile over it, takes the pointwise maximum,
and shifts the periodized part by one past a splice point in the right
half.  The limit restricted to nonnegative integers is the sequence this
package studies.

All arithmetic is exact and no floats are used.  The one per-point
evaluator, `eval_ratio`, works on integer numerators and denominators.
Around it, `eval_b` reads a periodized level and `eval_ainf` the limit
profile, and both return `fractions.Fraction`.  `eval_block` reads the limit
profile on a range of integers by its structure: each level is a plateau of
ones, a repeat of the periodized level below, or a ramp over it, so its
cost grows with the levels and pieces the range meets, not with its length.
It shares `eval_ratio`'s level arithmetic, `_copy` and `_below`.  Level
sizes live in a `Ladder`, an append-only tower that can grow on demand and
is safe to share between threads.
"""
from __future__ import annotations

import threading
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]

#: Half-width of the base profile's support, and the level-0 size.
BASE_HALF_PERIOD = 3
#: Largest bit length a level size may be predicted to take.  Under the
#: default policy level 12 (about 1.7 million bits) fits and level 13 does not.
MAX_LEVEL_BITS = 1 << 22

ZERO = Fraction(0)
ONE = Fraction(1)


class LadderError(Exception):
    """Base class for ladder construction and evaluation failures."""


class ScheduleViolationError(LadderError):
    """A requested growth schedule entry is below the required minimum."""


class LadderDepthError(LadderError):
    """An evaluation needed a deeper ladder than the one supplied."""


class DomainError(LadderError):
    """An argument fell outside the domain a level is defined on."""


class Ladder:
    """Append-only tower of level sizes p[0], p[1], ... with growth factors.

    p[0] = 3 and p[n] = 9 * L[n] * p[n-1], where each growth factor must
    satisfy L[n] >= p[n-1]**2.  The default policy always picks the minimal
    admissible factor; an explicit schedule supplies its own prefix of
    factors and falls back to the minimal rule once exhausted.
    """

    def __init__(self, schedule: Sequence[int] | None = None, depth: int = 0):
        self._explicit = tuple(int(x) for x in schedule) if schedule is not None else ()
        self._p: list[int] = [BASE_HALF_PERIOD]
        self._L: list[int] = [0]  # index 0 unused; L[n] valid for n >= 1
        self._lock = threading.Lock()
        self.ensure(max(depth, len(self._explicit)))

    # -- growth ---------------------------------------------------------

    def _next_factor(self, n: int) -> int:
        minimum = self._p[n - 1] ** 2
        if n - 1 < len(self._explicit):
            factor = self._explicit[n - 1]
            if factor < minimum:
                raise ScheduleViolationError(
                    f"schedule entry L[{n}]={factor} is below the minimum "
                    f"p[{n-1}]^2={minimum}"
                )
            return factor
        return minimum

    def ensure(self, depth: int) -> None:
        """Extend the tower so levels 0..depth are populated.

        First bound each new level's bit length by bits(L[n]) + bits(p[n-1])
        + 4, with 2 * bits(p[n-1]) for a default factor, and refuse a depth
        past MAX_LEVEL_BITS before growing any level.
        """
        if depth < len(self._p):
            return
        bits = self._p[-1].bit_length()
        for n in range(len(self._p), depth + 1):
            entry = self._explicit[n - 1].bit_length() if n - 1 < len(self._explicit) else 2 * bits
            bits += entry + 4
            if bits > MAX_LEVEL_BITS:
                raise LadderError(
                    f"level {n} would take about {bits} bits, past the limit of {MAX_LEVEL_BITS}"
                )
        with self._lock:
            while len(self._p) <= depth:
                n = len(self._p)
                factor = self._next_factor(n)
                self._L.append(factor)
                self._p.append(9 * factor * self._p[n - 1])

    def ensure_cover(self, bound: Rational) -> int:
        """Grow until some level size reaches |bound|; return the least such level."""
        bound = abs(bound)
        while self._p[-1] < bound:
            self.ensure(len(self._p))
        return bisect_left(self._p, bound)

    def require(self, depth: int) -> None:
        if depth >= len(self._p):
            raise LadderDepthError(
                f"ladder populated to depth {self.depth}, need {depth}"
            )

    # -- accessors ------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._p) - 1

    @property
    def sizes(self) -> Sequence[int]:
        """The populated level sizes p[0] .. p[depth], as `eval_ratio` reads them."""
        return self._p

    def p(self, n: int) -> int:
        if n < 0:
            raise DomainError("level must be nonnegative")
        self.require(n)
        return self._p[n]

    def L(self, n: int) -> int:
        if n < 1:
            raise DomainError("growth factors start at level 1")
        self.require(n)
        return self._L[n]

    def epsilon(self, n: int) -> Fraction:
        """Certification bound 1/n for level n >= 1."""
        if n < 1:
            raise DomainError("no certification bound at level 0")
        return Fraction(1, n)

    def splice(self, n: int) -> int:
        """Splice point of level n; equals p[n] / 3."""
        return self.p(n) // 3

    def stretch(self, n: int) -> int:
        """Stretch factor p[n-1] * L[n] of level n's base copy; equals p[n] / 9."""
        if n < 1:
            raise DomainError("stretch factors start at level 1")
        return self.p(n - 1) * self.L(n)


def ladder_new(policy: str | Sequence[int] = "default-minimal", depth: int = 0) -> Ladder:
    """Create a ladder.

    `policy` is either the string "default-minimal" or an explicit sequence
    of growth factors for levels 1, 2, ...; explicit entries are validated
    against the minimum-growth rule as they are consumed.
    """
    if isinstance(policy, str):
        if policy != "default-minimal":
            raise ValueError(f"unknown ladder policy {policy!r}")
        return Ladder(None, depth)
    return Ladder(policy, depth)


def _exact(t: Rational) -> tuple[int, int]:
    """t as an integer numerator over a positive integer denominator."""
    if not isinstance(t, (int, Fraction)):
        t = Fraction(t)
    return t.numerator, t.denominator


def _value(num: int, den: int) -> Fraction:
    return ZERO if num == 0 else ONE if num == den else Fraction(num, den)


def _fold(x: int, half: int) -> int:
    """Representative of x modulo 2*half inside [-half, half)."""
    return (x + half) % (2 * half) - half


def _copy(x: int, s: int) -> int:
    """Level n's stretched base copy at x, before clamping to [0, s]; x and
    the stretch s = stretch(n) in the same units."""
    return abs((x + 3 * s) % (6 * s) - 3 * s) - s


def _below(p: Sequence[int], n: int, x: int, den: int) -> int:
    """Where level n >= 1 reads the level below at x/den, in units of 1/den:
    x, or x + 1 past the splice point p[n]/3, folded into [-p[n-1], p[n-1])."""
    if x > p[n] // 3 * den:
        x += den
    half = p[n - 1] * den
    return (x + half) % (2 * half) - half


def eval_ratio(p: Sequence[int], n: int, x: int, den: int) -> tuple[int, int]:
    """The level-n profile at x/den, |x| <= p[n]*den, as an unreduced pair
    (num, den), in int arithmetic only; p holds the level sizes.

    That is the largest of the stretched copies met on the way down to
    level 0 and of the base profile there, min(max(|u| - 1, 0), 1) at u
    folded into [-3, 3).  Maxima compare by cross-multiplying.
    """
    best, best_den = 0, 1
    while n:
        s = p[n] // 9 * den  # stretch(n), in units of 1/den
        copy = _copy(x, s)
        if copy >= s:
            return 1, 1
        if copy > 0 and copy * best_den > best * s:
            best, best_den = copy, s
        x = _below(p, n, x, den)
        n -= 1
    base = abs(x) - den
    if base >= den:
        return 1, 1
    if base > 0 and base * best_den > best * den:
        return base, den
    return best, best_den


#: Multiples of stretch(n) where level n's stretched copy changes form
#: inside [-p[n], p[n]]: it is 0 on [-s, s] and [5s, 7s], 1 on [2s, 4s]
#: and [8s, 9s] (and their mirror images), and a ramp in between.  The
#: splice 3s lies inside the plateau [2s, 4s], so each piece that reads the
#: level below lies on one side of it.
_COPY_EDGES = (-8, -7, -5, -4, -2, -1, 1, 2, 4, 5, 7, 8)


def eval_block(ladder: Ladder, points: Iterable[int]) -> list[Fraction]:
    """The limit profile at integer points of either sign, each read at the
    least level whose domain covers it, as `eval_ainf` does; the shared
    ZERO and ONE stand for every 0 and 1.

    A range of step 1 is read by its structure: split at each +-p[m], then,
    at level n with s = stretch(n), where the stretched copy changes form
    (+-s, +-2s, +-4s, +-5s, +-7s, +-8s).  Where the copy is 1 the piece is
    ONE; where it is 0 the piece is the periodized level below, read one
    step ahead past the splice 3s; on a ramp each point takes the larger of
    the two.  The periodized level over more than its period is one period,
    expanded once per call and tiled.  Level 0 and any other points go
    through `eval_ratio` point by point.
    """
    p = ladder.sizes
    if not isinstance(points, range) or points.step != 1:
        return [_value(*eval_ratio(p, ladder.ensure_cover(x), x, 1)) for x in points]
    tiles: dict[int, list[Fraction]] = {}

    def level(n: int, lo: int, hi: int) -> list[Fraction]:
        """Level n at lo .. hi-1, inside [-p[n], p[n]]."""
        if n == 0:
            return [_value(*eval_ratio(p, n, x, 1)) for x in range(lo, hi)]
        s = ladder.stretch(n)
        cuts = sorted({lo, hi, *(k * s for k in _COPY_EDGES if lo < k * s < hi)})
        out: list[Fraction] = []
        for a, b in zip(cuts, cuts[1:]):
            first, last = _copy(a, s), _copy(b - 1, s)
            if min(first, last) >= s:
                out += [ONE] * (b - a)
                continue
            below = periodized(n - 1, _below(p, n, a, 1), b - a)
            if max(first, last) <= 0:
                out += below
                continue
            step = 1 if last >= first else -1
            out += [
                ONE if c >= s
                else v if c <= 0 or c * v.denominator <= v.numerator * s
                else Fraction(c, s)
                for c, v in zip(range(first, last + step, step), below)
            ]
        return out

    def periodized(m: int, i: int, length: int) -> list[Fraction]:
        """Level m periodized with period 2p[m], at i .. i+length-1, for i
        in [-p[m], p[m])."""
        half = p[m]
        if length > 2 * half:
            if m not in tiles:
                tiles[m] = level(m, -half, half)
            tile = tiles[m]
            out = tile[i + half:]
            reps, rest = divmod(length - len(out), 2 * half)
            out += tile * reps
            out += tile[:rest]
            return out
        if i + length <= half:
            return level(m, i, i + length)
        return level(m, i, half) + level(m, -half, i + length - 2 * half)

    out: list[Fraction] = []
    i, stop = points.start, points.stop
    while i < stop:
        n = ladder.ensure_cover(i)
        # level n covers [-p[n], -p[n-1]) and (p[n-1], p[n]]; level 0 [-3, 3]
        end = min(stop, -p[n - 1] if n and i < 0 else p[n] + 1)
        out += level(n, i, end)
        i = end
    return out


def eval_b(ladder: Ladder, n: int, t: Rational) -> Fraction:
    """Periodization of the level-n profile with period 2*p[n]."""
    p_n = ladder.p(n)
    x, den = _exact(t)
    return _value(*eval_ratio(ladder.sizes, n, _fold(x, p_n * den), den))


def eval_ainf(ladder: Ladder, t: Rational) -> Fraction:
    """Limit profile: evaluate at the least level whose domain covers t.

    The ladder grows on demand, so any rational argument is accepted.
    """
    x, den = _exact(t)
    n = ladder.ensure_cover(-(-abs(x) // den))
    return _value(*eval_ratio(ladder.sizes, n, x, den))
