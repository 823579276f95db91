"""The ones-run certificate: long runs of exact ones in every window.

`certify.check_ones_runs` imports this module when it is called, so only
`verify ones` compiles it.  The certificate scans every coordinate at small
levels, into one pass over the runs; at large ones `walker.fold` summarises
the runs of each period once and joins repeats by count.  Either way its
memory does not grow with the window.
"""
from __future__ import annotations

from functools import partial
from itertools import count
from operator import is_
from typing import Iterable, Iterator, NamedTuple

from . import certify, walker
from .ladder import ONE, ZERO, DomainError, Ladder
from .walker import eval_block, fold, spans


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
    """`walker.fold`'s algebra for the plateau mode: a stretch's summary is its
    length, its leading and trailing ones (its length if all ones) and `long`'s
    view of the runs inside.  Levels below `floor`, too short for a run of the
    prune bound's ones, read as zeros.  Equal algebras share the ladder's memo."""

    required: int
    floor: int
    cut = None

    def flat(self, value, points):
        length = points[-1] + 1 - points[0] if points else 0
        return length, length * (value is ONE), None, length * (value is ONE)

    def ramp(self, copies, s, below):
        return below  # past its first point a ramp is 1 only where the level below is

    def long(self, u, v):  # (first run, last end, count, largest step), as `_summary` counts
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


def _plateau(ladder: Ladder, required: int, window: int, end: int) -> tuple:
    """`_summary`'s result for the runs `_Runs` folds on 0 .. end, pruned at
    required // 8, with the first run probed at its ends and middle, the last at its end."""
    alg = _Runs(required, next(m for m in count() if 2 * ladder.p(m) + 1 >= max(1, required // 8)))
    total = alg.flat(ZERO, ())
    for n, a, b in spans(ladder, 0, end + 1):
        total = alg.join(total, fold(ladder, n, range(a, b), alg, end + 1))
    length, head, runs, tail = total
    runs = alg.merge(alg.long(0, head - 1), runs, head < length and alg.long(length - tail, end))
    if not runs:
        return False, end + 1, None, 0
    (u, v), last, found, worst = runs
    for probe in (u, (u + v) // 2, v, last):
        # read through certify's name, where the traced benchmark counts it
        if certify.eval_ainf(ladder, probe) != ONE:
            raise AssertionError(f"certified run fails at {probe}")
    # `_summary`'s coverage: no step, the lead-in from -1 included, past window - required + 1
    # (one from a block start at or past the last slice's start cannot be, as blocks end by
    # `end`), and a block start at or past that slice's start
    covered = max(u + 1, worst) <= window - required + 1 and last - required >= end - window
    return covered, max(u, worst), (u, v), found


def _scanned_runs(ladder: Ladder, points: range, required: int) -> Iterator[tuple[int, int]]:
    """The runs of ones of alpha at least `required` long on points, a range
    from 0, read a block of STREAM_BLOCK at a time.  The block reader hands
    out the one shared ONE for every 1, so each block is coded as bytes, 1
    for ONE, and its runs found by `bytes.find`.  A run open at a block's
    end is carried into the next as at most `required` ones."""
    ones, size, start = b"\x01" * required, walker.STREAM_BLOCK, 0
    for b in range(0, len(points), size):
        carry = min(b - start, required)  # the open run began at start
        code = ones[:carry] + bytes(map(partial(is_, ONE), eval_block(ladder, points[b:b + size])))
        j = 0
        while (j := code.find(ones, j)) >= 0 and (end := code.find(0, j)) >= 0:
            yield start if j == 0 else b - carry + j, b - carry + end - 1
            j = end
        if (last := code.rfind(0)) >= 0:
            start = b - carry + last + 1
    if len(points) - start >= required:
        yield start, len(points) - 1


def _summary(
    runs: Iterable[tuple[int, int]], required: int, window: int, end: int
) -> tuple[bool, int, tuple[int, int] | None, int]:
    """One pass over sorted, disjoint runs; those under `required` long are
    skipped.  Returns whether every length-`window` slice of [0, end] holds
    `required` points of one run; the largest step between consecutive
    starts of a required-length block of one run, the lead-in from
    coordinate zero included (end + 1 when there is none); the first run;
    and the number of runs."""
    target = end - window + 1  # the last slice's start
    pos = last = worst = count = 0  # slices starting before pos are covered
    first, lost = None, False
    for u, v in runs:
        if v - u + 1 < required:
            continue
        # the run's block starts u .. v-required+1, one apart when it is longer
        worst = max(worst, u - last, min(1, v - u + 1 - required))
        last, count, first = v - required + 1, count + 1, first or (u, v)
        if not lost and pos <= target:  # slices u+required-window .. last are covered
            lost = u + required - window > pos
            pos = last + 1
    return not lost and pos > target, worst if count else end + 1, first, count


def check_ones_runs(ladder: Ladder, n: int, window_end: int, mode: str = "auto") -> OnesRunReport:
    """Certify that every length-2p[n] window of the sequence's first
    window_end + 1 coordinates contains at least p[n]/9 consecutive exact
    ones.

    Mode "scan" reads every coordinate, in blocks of STREAM_BLOCK, and is
    exact in both directions; mode "plateau" folds the runs off the ladder's
    pieces, and can only affirm (a False there means the certificate could
    not be built).  The default picks scan at level 1 and plateau above.
    """
    if n < 1:
        raise DomainError("run certificates start at level 1")
    window = 2 * ladder.p(n)
    required = ladder.p(n) // 9  # exact: p[n] = 9 L[n] p[n-1]
    if window_end < window:
        raise ValueError("window_end must cover at least one full window")
    if mode == "auto":
        mode = "scan" if n == 1 else "plateau"
    if mode == "scan":
        runs = _scanned_runs(ladder, certify.scan_points(range(window_end + 1)), required)
        summary = _summary(runs, required, window, window_end)
    elif mode == "plateau":
        summary = _plateau(ladder, required, window, window_end)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return OnesRunReport(n, required, window, (0, window_end), *summary, mode)
