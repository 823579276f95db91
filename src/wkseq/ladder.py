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
profile, and both return `fractions.Fraction`; `walker` reads a range of
integers by the structure of its levels.  Level sizes live in a `Ladder`,
an append-only tower that every accessor grows on demand, up to
`MAX_LEVEL_BITS`, and that threads may share.
"""
from __future__ import annotations

import threading
from bisect import bisect_left
from fractions import Fraction
from typing import Sequence, Union

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


class DomainError(LadderError):
    """An argument fell outside the domain a level is defined on."""


class Ladder:
    """Append-only tower of level sizes p[0], p[1], ... with growth factors.

    p[0] = 3 and p[n] = 9 * L[n] * p[n-1], where each growth factor must
    satisfy L[n] >= p[n-1]**2.  The default policy always picks the minimal
    admissible factor; an explicit schedule supplies its own prefix of
    factors and falls back to the minimal rule once exhausted.  Every
    accessor grows the tower to the level it reads.
    """

    def __init__(self, schedule: Sequence[int] | None = None):
        self._explicit = tuple(_integer_entry(n, x) for n, x in enumerate(schedule or (), 1))
        self._p: list[int] = [BASE_HALF_PERIOD]
        self._L: list[int] = [0]  # index 0 unused; L[n] valid for n >= 1
        self._lock = threading.Lock()
        # (algebra, level, phase) -> one period of the level, folded by `walker.fold`
        self._memo: dict[tuple, object] = {}
        self.ensure(len(self._explicit))

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

        First bound each new level's bit length, counting from p[len(schedule)]
        (from p[0] while the constructor grows the schedule's levels), by
        bits(L[n]) + bits(p[n-1]) + 4, with 2 * bits(p[n-1]) for a default
        factor, and refuse a depth past MAX_LEVEL_BITS before growing any level.
        """
        if depth < len(self._p):
            return
        base = min(len(self._explicit), len(self._p) - 1)
        bits = self._p[base].bit_length()
        for n in range(base + 1, depth + 1):
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

    # -- accessors ------------------------------------------------------

    @property
    def sizes(self) -> Sequence[int]:
        """The level sizes grown so far, p[0], p[1], ..., as `eval_ratio` reads them."""
        return self._p

    def p(self, n: int) -> int:
        if n < 0:
            raise DomainError("level must be nonnegative")
        self.ensure(n)
        return self._p[n]

    def L(self, n: int) -> int:
        if n < 1:
            raise DomainError("growth factors start at level 1")
        self.ensure(n)
        return self._L[n]

    def splice(self, n: int) -> int:
        """Splice point of level n; equals p[n] / 3."""
        return self.p(n) // 3

    def stretch(self, n: int) -> int:
        """Stretch factor p[n-1] * L[n] of level n's base copy; equals p[n] / 9."""
        if n < 1:
            raise DomainError("stretch factors start at level 1")
        return self.L(n) * self.p(n - 1)  # L(n) first: a refused level grows nothing


def _integer_entry(n: int, entry) -> int:
    """Schedule entry L[n] as an int; an entry that is not an integer is refused."""
    if int(entry) != entry:
        raise ValueError(f"schedule entry L[{n}]={entry!r} is not an integer")
    return int(entry)


def ladder_new(policy: str | Sequence[int] = "default-minimal") -> Ladder:
    """Create a ladder, grown on demand by every accessor.

    `policy` is either the string "default-minimal" or an explicit sequence
    of integer growth factors for levels 1, 2, ...; those levels are grown
    and checked against the minimum-growth rule at once.
    """
    if isinstance(policy, str):
        if policy != "default-minimal":
            raise ValueError(f"unknown ladder policy {policy!r}")
        return Ladder()
    return Ladder(policy)


def _exact(t: Rational) -> tuple[int, int]:
    """An int or a Fraction t as (numerator, positive denominator)."""
    if not isinstance(t, (int, Fraction)):
        raise TypeError(f"expected an int or a Fraction, got {t!r}")
    return t.numerator, t.denominator


def exact_fraction(t: Rational) -> Fraction:
    """An int or a Fraction t as a Fraction; anything else is refused, as
    `_exact` refuses it, so no float or string reaches the core."""
    _exact(t)
    return Fraction(t)


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
