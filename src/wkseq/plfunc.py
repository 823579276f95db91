"""Exact piecewise-linear functions over rational breakpoints.

A `PLFunc` is the linear interpolation of a strictly increasing breakpoint
list, extended by zero outside its span.  Evaluation, pointwise maximum,
shifting and splicing are all exact rational operations; pointwise maximum
inserts the crossing abscissas of intersecting segments so the result is
again piecewise linear on its own breakpoints.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Tuple

from .ladder import Rational

Point = Tuple[Fraction, Fraction]


class PLFunc(NamedTuple("PLFunc", [("breakpoints", Tuple[Point, ...])])):
    __slots__ = ()

    def __new__(cls, breakpoints: tuple[Point, ...]):
        if not breakpoints:
            raise ValueError("a piecewise-linear function needs breakpoints")
        xs = [x for x, _ in breakpoints]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoint abscissas must be strictly increasing")
        if any(y < 0 or y > 1 for _, y in breakpoints):
            raise ValueError("breakpoint ordinates must lie in [0, 1]")
        return super().__new__(cls, breakpoints)

    @property
    def span(self) -> tuple[Fraction, Fraction]:
        return self.breakpoints[0][0], self.breakpoints[-1][0]

    def evaluate(self, t: Rational) -> Fraction:
        """Interpolate at t; zero outside the breakpoint span."""
        t = Fraction(t)
        pts = self.breakpoints
        if t < pts[0][0] or t > pts[-1][0]:
            return Fraction(0)
        lo, hi = 0, len(pts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if pts[mid][0] <= t:
                lo = mid
            else:
                hi = mid - 1
        x0, y0 = pts[lo]
        if t == x0:
            return y0
        x1, y1 = pts[lo + 1]
        return y0 + (y1 - y0) * (t - x0) / (x1 - x0)

    def shifted(self, dx: Rational) -> "PLFunc":
        dx = Fraction(dx)
        return PLFunc(tuple((x + dx, y) for x, y in self.breakpoints))


def make_plfunc(points: Iterable[tuple[Rational, Rational]]) -> PLFunc:
    return PLFunc(tuple((Fraction(x), Fraction(y)) for x, y in points))


def pointwise_max(f: PLFunc, g: PLFunc, lo: Rational, hi: Rational) -> PLFunc:
    """Pointwise maximum of f and g restricted to [lo, hi].

    Both inputs must be continuous across (lo, hi): any support edge with a
    nonzero value there would introduce a jump no breakpoint list can carry.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError("empty restriction window")
    mesh = {lo, hi}
    for fn in (f, g):
        mesh.update(x for x, _ in fn.breakpoints if lo < x < hi)
    xs = sorted(mesh)
    # insert crossings of the two graphs inside each mesh cell
    extra = []
    for x0, x1 in zip(xs, xs[1:]):
        d0 = f.evaluate(x0) - g.evaluate(x0)
        d1 = f.evaluate(x1) - g.evaluate(x1)
        if (d0 < 0 < d1) or (d1 < 0 < d0):
            extra.append(x0 + (x1 - x0) * d0 / (d0 - d1))
    xs = sorted(set(xs) | set(extra))
    return PLFunc(tuple((x, max(f.evaluate(x), g.evaluate(x))) for x in xs))


def splice(left: PLFunc, right: PLFunc, cut: Rational) -> PLFunc:
    """Concatenate left on (-inf, cut] with right on (cut, +inf).

    The two pieces must agree at the cut so the result is continuous.
    """
    cut = Fraction(cut)
    meet = left.evaluate(cut)
    if meet != right.evaluate(cut):
        raise ValueError("pieces disagree at the splice point")
    pts = [(x, y) for x, y in left.breakpoints if x < cut]
    pts.append((cut, meet))
    pts.extend((x, y) for x, y in right.breakpoints if x > cut)
    return PLFunc(tuple(pts))
