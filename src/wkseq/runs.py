"""The ones-run certificate: long runs of exact ones in every window.

`certify.check_ones_runs` imports this module when it is called, so only
`verify ones` compiles the runs walk, and the other certificates compile
only the shifted-comparison kernel.

The certificate scans every coordinate at small levels; at large ones it
reads the runs off `walker.pieces`, which `eval_block` expands.  Either way
the runs stream into one pass that decides the report, so its memory does
not grow with the window.
"""
from __future__ import annotations

from functools import partial
from itertools import chain
from operator import is_
from typing import Iterable, Iterator, NamedTuple

from . import certify, walker
from .ladder import ONE, DomainError, Ladder
from .walker import eval_block, pieces, spans


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


def _ones_runs(ladder: Ladder, lo: int, hi: int, prune: int) -> Iterator[tuple[int, int]]:
    """Runs of exact ones of the limit profile on lo .. hi-1, as closed
    intervals, at least `prune` long, in order: a sound under-approximation.
    Each run is spot-checked at its ends and middle and yielded as soon as
    the next run cannot extend it.  A read of level m is descended only
    while one period of it (with the next one's first point) can hold such
    a run, and each level's runs over one full period are found once."""
    p = ladder.sizes
    period_runs: dict[int, list[tuple[int, int]]] = {}

    def level(n: int, lo: int, hi: int, at: int) -> Iterator[tuple[int, int]]:
        # runs of level n on lo .. hi-1, moved by `at`, in order
        for a, b, i, copies, s in pieces(ladder, n, lo, hi):
            if i is None:
                yield a + at, b - 1 + at
                continue
            if copies and copies[0] >= s:  # only a ramp's first point reaches 1
                yield a + at, a + at
            if n and 2 * p[n - 1] + 1 >= prune:
                yield from periodized(n - 1, i, b - a, a + at)

    def periodized(m: int, i: int, length: int, at: int) -> Iterator[tuple[int, int]]:
        # runs of level m periodized, read from i for `length` points, moved to `at`
        half = p[m]
        while length:
            take = min(length, half - i)
            if take == 2 * half:
                if m not in period_runs:
                    period_runs[m] = list(level(m, -half, half, half))
                yield from ((u + at, v + at) for u, v in period_runs[m])
            else:
                yield from level(m, i, i + take, at - i)
            at, length, i = at + take, length - take, -half

    start, stop = lo, lo - 2  # no run, and no run extends it
    found = chain.from_iterable(level(n, a, b, 0) for n, a, b in spans(ladder, lo, hi))
    for u, v in chain(found, [(hi + 1, hi)]):  # a last run that extends none
        if u > stop + 1:
            if stop - start + 1 >= prune:
                for probe in (start, (start + stop) // 2, stop):
                    # read through certify's name, where the traced benchmark counts it
                    if certify.eval_ainf(ladder, probe) != ONE:
                        raise AssertionError(f"certified interval [{start}, {stop}] fails at {probe}")
                yield start, stop
            start = u
        stop = max(stop, v)


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


def check_ones_runs(
    ladder: Ladder, n: int, window_end: int, mode: str = "auto"
) -> OnesRunReport:
    """Certify that every length-2p[n] window of the sequence's first
    window_end + 1 coordinates contains at least p[n]/9 consecutive exact
    ones.

    Mode "scan" reads every coordinate, in blocks of STREAM_BLOCK, and is
    exact in both directions; mode "plateau" reads runs off the ladder's
    pieces, spot-checks each as it comes, and can only affirm (a False there
    means the certificate could not be built).  The default picks scan at
    level 1 and plateau above.
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
    elif mode == "plateau":
        runs = _ones_runs(ladder, 0, window_end + 1, max(1, required // 8))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    passed, worst_gap, first_run, runs_found = _summary(runs, required, window, window_end)
    return OnesRunReport(
        n=n,
        run_length_required=required,
        gap_bound=window,
        window=(0, window_end),
        passed=passed,
        worst_gap=worst_gap,
        first_run=first_run,
        runs_found=runs_found,
        mode=mode,
    )
