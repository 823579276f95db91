"""Exact evaluation of a recursively spliced family of plateau functions.

The base profile is a symmetric trapezoid on [-3, 3]: zero on [-1, 1],
ramps on [-2, -1] and [1, 2], and plateaus at height one on [-3, -2] and
[2, 3].  Each level of the family periodizes the previous level, lays a
stretched copy of the base profile over it, takes the pointwise maximum,
and shifts the periodized part by one past a splice point in the right
half.  The limit restricted to nonnegative integers is the sequence this
package studies.

All arithmetic is exact (`fractions.Fraction`); no floats are used.
Level sizes live in a `Ladder`, an append-only tower that can grow on
demand and is safe to share between threads.
"""
from __future__ import annotations

import threading
from fractions import Fraction
from typing import Sequence, Union

Rational = Union[int, Fraction]

#: Half-width of the base profile's support, and the level-0 size.
BASE_HALF_PERIOD = 3

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
        """Extend the tower so levels 0..depth are populated."""
        if depth < len(self._p):
            return
        with self._lock:
            while len(self._p) <= depth:
                n = len(self._p)
                factor = self._next_factor(n)
                self._L.append(factor)
                self._p.append(9 * factor * self._p[n - 1])

    def ensure_cover(self, bound: Rational) -> int:
        """Grow until some level size reaches `bound`; return the least such level."""
        bound = abs(bound)
        n = 0
        while True:
            self.ensure(n)
            if self._p[n] >= bound:
                return n
            n += 1

    def require(self, depth: int) -> None:
        if depth >= len(self._p):
            raise LadderDepthError(
                f"ladder populated to depth {self.depth}, need {depth}"
            )

    # -- accessors ------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._p) - 1

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

    def period(self, n: int) -> int:
        return 2 * self.p(n)


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


def _fold(t: Rational, half_period: int) -> Rational:
    """Representative of t modulo 2*half_period inside [-half_period, half_period)."""
    period = 2 * half_period
    return t - period * ((t + half_period) // period)


def eval_a0(t: Rational) -> Fraction:
    """Base profile: 0 on [-1,1], ramps to 1 on [1,2], plateau 1 on [2,3], 0 beyond.

    Symmetric about 0, so only |t| matters.
    """
    u = abs(Fraction(t))
    if u <= 1:
        return ZERO
    if u <= 2:
        return u - 1
    if u <= 3:
        return ONE
    return ZERO


def eval_b0(t: Rational) -> Fraction:
    """Periodization of the base profile with period 6."""
    return eval_a0(_fold(t, BASE_HALF_PERIOD))


def eval_c(ladder: Ladder, n: int, t: Rational) -> Fraction:
    """Level-n stretched copy of the periodized base profile."""
    if n < 1:
        raise DomainError("stretched copies start at level 1")
    return eval_b0(Fraction(t) / ladder.stretch(n))


def eval_a(ladder: Ladder, n: int, t: Rational) -> Fraction:
    """Level-n profile on [-p[n], p[n]]; arguments beyond that are rejected.

    The splice point belongs to the first (unshifted) branch; past it the
    periodized previous level is read one step ahead.
    """
    p_n = ladder.p(n)
    if abs(t) > p_n:
        raise DomainError(f"|t| > p[{n}] = {p_n}")
    if n == 0:
        return eval_a0(t)
    copy = eval_c(ladder, n, t)
    if t <= ladder.splice(n):
        return max(eval_b(ladder, n - 1, t), copy)
    return max(eval_b(ladder, n - 1, t + 1), copy)


def eval_b(ladder: Ladder, n: int, t: Rational) -> Fraction:
    """Periodization of the level-n profile with period 2*p[n]."""
    return eval_a(ladder, n, _fold(t, ladder.p(n)))


def eval_ainf(ladder: Ladder, t: Rational) -> Fraction:
    """Limit profile: evaluate at the least level whose domain covers t.

    The ladder grows on demand, so any rational argument is accepted.
    """
    n = ladder.ensure_cover(t)
    return eval_a(ladder, n, t)
