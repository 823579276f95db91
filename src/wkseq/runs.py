"""The ones-run certificate: long runs of exact ones in every window.

`certify.check_ones_runs` imports this module when it is called, so only
`verify ones` compiles it.  `walker.fold` summarises the runs of each
period of a level once, exactly, and joins its repeats by count, so the
certificate's time grows with the levels the window meets, not with its
length, and its memory does not grow with either.
"""
from __future__ import annotations

from typing import NamedTuple

from . import certify
from .ladder import ONE, ZERO, DomainError, Ladder
from .walker import fold, spans


class OnesRunReport(NamedTuple):
    """Syndetic occurrence of long all-ones blocks in an initial window."""

    n: int
    run_length_required: int
    gap_bound: int
    window: tuple[int, int]
    passed: bool
    worst_gap: int
    first_run: tuple[int, int] | None
    runs_found: int
    mode: str

    lemma = "ones-runs"
    to_json_dict = certify._report_json


class _Runs(NamedTuple):
    """`walker.fold`'s algebra for the certificate: a stretch's summary is its
    length, its leading and trailing ones (its length if all ones) and `long`'s
    view of the runs of at least `required` ones inside.  Equal algebras share
    the ladder's memo."""

    required: int
    cut = None

    def flat(self, value, points):
        length = points[-1] + 1 - points[0] if points else 0
        return length, length * (value is ONE), None, length * (value is ONE)

    def ramp(self, copies, s, below):
        return below  # past its first point a ramp is 1 only where the level below is

    def long(self, u, v):  # (first run, last run's end, count, largest step between block starts)
        return ((u, v), v, 1, min(1, v - u + 1 - self.required)) if v - u + 1 >= self.required else None

    def merge(self, x, *rest):
        for y in rest:  # the step from x's last block start to y's first run
            x = x and y and (x[0], y[1], x[2] + y[2], max(x[3], y[3], y[0][0] - x[1] + self.required - 1)) or x or y
        return x

    def join(self, a, b):  # a, then b, with a's tail and b's head one run
        (la, ha, xa, ta), (lb, hb, xb, tb) = a, b
        xb = xb and ((xb[0][0] + la, xb[0][1] + la), xb[1] + la, *xb[2:])
        if ha == la:  # a is all ones
            return la + lb, la + hb, xb, tb + la * (hb == lb)
        if hb == lb:
            return la + lb, ha, xa, ta + lb
        return la + lb, ha, self.merge(xa, self.long(la - ta, la + hb - 1), xb), tb

    def repeat(self, summary, times):  # by doubling
        half = self.repeat(self.join(summary, summary), times >> 1) if times > 1 else self.flat(ZERO, ())
        return self.join(half, summary) if times & 1 else half

    def verdict(self, total, window: int, end: int) -> tuple[tuple, int | None]:
        """The report's (passed, worst_gap, first_run, runs_found) from the summary
        of 0 .. end, and the last run's end; worst_gap is the largest step between
        block starts, the lead-in from 0 included (end + 1 without a run)."""
        length, head, runs, tail = total
        runs = self.merge(self.long(0, head - 1), runs, head < length and self.long(length - tail, end))
        if not runs:
            return (False, end + 1, None, 0), None
        (u, v), last, found, worst = runs
        # each slice 0 .. end - window + 1 holds a block when the lead-in from -1 and every
        # step are at most window - required + 1 (a step from a block start at or past the
        # last slice's start cannot be more: blocks end by `end`), and one starts past it
        covered = max(u + 1, worst) <= window - self.required + 1 and last - self.required >= end - window
        return (covered, max(u, worst), (u, v), found), last


def _plateau(ladder: Ladder, required: int, window: int, end: int) -> tuple:
    """`_Runs.verdict` of the runs folded on 0 .. end, with the first run
    probed at its ends and middle, and the last at its end."""
    alg = _Runs(required)
    total = alg.flat(ZERO, ())
    for n, a, b in spans(ladder, 0, end + 1):
        total = alg.join(total, fold(ladder, n, range(a, b), alg, end + 1))
    summary, last = alg.verdict(total, window, end)
    if summary[2]:
        u, v = summary[2]
        for probe in (u, (u + v) // 2, v, last):
            # read through certify's name, where the traced benchmark counts it
            if certify.eval_ainf(ladder, probe) != ONE:
                raise AssertionError(f"certified run fails at {probe}")
    return summary


def check_ones_runs(ladder: Ladder, n: int, window_end: int, mode: str = "auto") -> OnesRunReport:
    """Certify, exactly both ways, that every length-2p[n] window of the
    sequence's first window_end + 1 coordinates holds p[n]/9 consecutive ones.
    Every mode runs the one fold; `mode` ("scan", "plateau", or "auto": scan
    at level 1, plateau above) only labels the report."""
    if n < 1:
        raise DomainError("run certificates start at level 1")
    window = 2 * ladder.p(n)
    required = ladder.p(n) // 9  # exact: p[n] = 9 L[n] p[n-1]
    if window_end < window:
        raise ValueError("window_end must cover at least one full window")
    if mode == "auto":
        mode = "scan" if n == 1 else "plateau"
    if mode not in ("scan", "plateau"):
        raise ValueError(f"unknown mode {mode!r}")
    return OnesRunReport(n, required, window, (0, window_end), *_plateau(ladder, required, window, window_end), mode)
