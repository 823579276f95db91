"""Finite certificates for the limit sequence's structural properties.

Each checker evaluates one finite, exactly decidable statement and returns
a report carrying the exact extremal values it saw, the bound it compared
them against, and a pass verdict.  Reports serialize to versioned JSON
with every rational rendered as an exact num/den string.

Every comparison of a profile with its own shift runs through one kernel,
`_max_defect`, and every coordinate scan is refused up front when it would
visit more than SCAN_LIMIT points.

The ones-run certificate scans every coordinate at small levels; at large
ones it reads the runs off `walker.pieces`, which `eval_block` expands.
Either way the runs stream into one pass that decides the report, so its
memory does not grow with the window.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import chain, compress, count, islice
from operator import is_, ne
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import walker
from .ladder import (
    ONE,
    ZERO,
    DomainError,
    Ladder,
    Rational,
    eval_ainf,
    eval_b,
    exact_fraction,
)
from .seqio import report_dict
from .walker import eval_block, pieces, spans

#: Every coordinate scan visits at most this many points; a larger scan is
#: refused before it evaluates anything.  A scan of alpha whose points form
#: an arithmetic progression reads it a block at a time by its structure:
#: contiguous at about 0.05 us per point (`rigidity --n 2` over all of them:
#: 0.1 s in process on a 2-CPU host), sampled at about 0.25 us per point
#: and shift (`returns --n 2 --samples 1000000`: 0.8 s).  The rational
#: `shift-defect` grid costs one `eval_ratio` call per point and shift, 2-4
#: us each, so at the limit it takes 13-17 s.
SCAN_LIMIT = 2_000_001


def scan_points(points: Sequence[int]) -> Sequence[int]:
    """The points of a scan, once they are known to be within SCAN_LIMIT;
    raises ValueError otherwise.  Slicing never builds a range's points."""
    if points[SCAN_LIMIT:]:
        raise ValueError(f"scan of more than {SCAN_LIMIT} points refused")
    return points


def _moved(points: Sequence[int], s: int) -> Iterable[int]:
    """The points shifted by s: a range for a range, and lazily otherwise."""
    if isinstance(points, range):
        return range(points.start + s, points.stop + s, points.step)
    return (t + s for t in points)


def _max_defect(
    read: Callable[[Iterable[int]], Sequence[Fraction]],
    points: Sequence[int],
    shifts: tuple[int, ...],
    first: bool = False,
) -> tuple[Fraction, int]:
    """Largest |f(t + s) - f(t)| over t in points and s in shifts, and the
    index of the first point that reaches it.  `read` gives f at a block of
    points, and is handed at most `walker.STREAM_BLOCK` of them at a time.
    With `first`, the scan stops at the first nonzero defect, taking points
    in order and each point's shifts in order."""
    worst, worst_i = ZERO, 0
    points = scan_points(points)
    size = walker.STREAM_BLOCK
    for b0 in range(0, len(points), size):
        block = points[b0:b0 + size]
        here = read(block)
        moved = [read(_moved(block, s)) for s in shifts]
        # list equality tries identity before ==, so blocks built from the
        # same shared values compare without touching a Fraction
        if all(map(here.__eq__, moved)):
            continue
        for i, (h, *vs) in enumerate(zip(here, *moved), b0):
            for v in vs:
                if v is h or v == h:
                    continue
                defect = abs(v - h)
                if defect > worst:
                    worst, worst_i = defect, i
                    if first:
                        return worst, worst_i
    return worst, worst_i


def _report_json(report) -> dict:
    """The one wk-report/1 encoding of every certificate: each field, the
    lemma's name and the verdict under "pass"."""
    body = {k: v for k, v in report._asdict().items() if k != "passed"}
    return report_dict(lemma=report.lemma, **body, **{"pass": report.passed})


class RigidityReport(NamedTuple):
    """Worst displacement seen when comparing a profile against its 2p[n] shift."""

    n: int
    shift: int
    tested_range: tuple[int, int]
    max_defect: Fraction
    bound: Fraction | None
    passed: bool
    argmax_index: int
    m: int | None = None
    grid_step: Fraction | None = None

    to_json_dict = _report_json

    @property
    def lemma(self) -> str:
        return "shift-defect" if self.m is not None else "rigidity"


class ReturnReport(NamedTuple):
    """Exact equality of the sequence with both of its certified return shifts."""

    n: int
    left_shift: int
    right_shift: int
    checked: int
    all_equal: bool
    first_mismatch: int | None

    lemma = "returns"
    to_json_dict = _report_json

    @property
    def passed(self) -> bool:
        return self.all_equal


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
    to_json_dict = _report_json


class WMReport(NamedTuple):
    """Certified double return: N and N+1 both send the start cylinder home."""

    n: int
    N: int
    agree_len: int
    forward_exact: bool
    backward_exact: bool
    dist_hi: Fraction
    eps: Fraction
    passed: bool

    lemma = "wm-returns"
    to_json_dict = _report_json


# -- shift defect and rigidity --------------------------------------------

def check_shift_defect(
    ladder: Ladder, n: int, m: int, grid_step: Rational
) -> RigidityReport:
    """Bound |b_m(t + 2p[n]) - b_m(t)| on a grid over one full period of b_m
    against 1/n.  The level-0 bound is vacuous (no certification threshold
    exists there); such reports carry bound None and pass vacuously.
    """
    if m < n:
        raise DomainError("the periodized level may not be below the shift level")
    grid_step = exact_fraction(grid_step)
    if grid_step <= 0:
        raise ValueError("grid step must be positive")
    span = ladder.p(m)
    displacement = 2 * ladder.p(n)
    # the grid -span, -span + step, ... <= span, in units of 1/den(step)
    den = grid_step.denominator
    worst, worst_k = _max_defect(
        lambda xs: [eval_b(ladder, m, Fraction(x, den)) for x in xs],
        range(-span * den, span * den + 1, grid_step.numerator),
        (displacement * den,),
    )
    bound = Fraction(1, n) if n >= 1 else None
    passed = True if bound is None else worst < bound
    return RigidityReport(
        n=n,
        shift=displacement,
        tested_range=(-span, span),
        max_defect=worst,
        bound=bound,
        passed=passed,
        argmax_index=worst_k,
        m=m,
        grid_step=grid_step,
    )


def check_rigidity(ladder: Ladder, n: int, count: int) -> RigidityReport:
    """Bound |alpha(j + 2p[n]) - alpha(j)| for 0 <= j < count against 1/n."""
    if n < 1:
        raise DomainError("no certification bound exists at level 0")
    if count < 1:
        raise ValueError("need at least one index to check")
    displacement = 2 * ladder.p(n)
    worst, worst_j = _max_defect(
        partial(eval_block, ladder), range(count), (displacement,)
    )
    bound = Fraction(1, n)
    return RigidityReport(
        n=n,
        shift=displacement,
        tested_range=(0, count),
        max_defect=worst,
        bound=bound,
        passed=worst < bound,
        argmax_index=worst_j,
    )


# -- certified returns -----------------------------------------------------

def check_returns(ladder: Ladder, n: int, grid: Iterable[int], end: int | None = None) -> ReturnReport:
    """Check alpha(t) = ainf(t - S) = ainf(t + S - 1) with S = 2*splice(n+1).

    The grid and `end`, if given, hold at most SCAN_LIMIT integers in
    [-p[n], p[n]]; a range is used as it is, and `end` last if past it; any
    other grid is sorted once checked.  The sorted grid's longest arithmetic
    prefix is read as a range, by the structure of alpha, the rest one by one.
    """
    if end is not None and not (isinstance(grid, range) and grid and isinstance(end, int) and end > grid[-1] >= grid[0]):
        grid, end = chain(grid, [end]), None
    if isinstance(grid, range):
        points = scan_points(grid[::-1] if grid.step < 0 else grid)
    else:
        points = scan_points(list(islice(grid, SCAN_LIMIT + 1)))
        for t in points:
            if not isinstance(t, int):
                raise ValueError(f"grid point {t!r} is not an integer")
        points = sorted(set(points))
    if not points:
        raise ValueError("need at least one grid point")
    tail = [] if end is None else [end]
    scan_points(range(len(points) + len(tail)))
    left = 2 * ladder.splice(n + 1)
    bound = ladder.p(n)
    if points[0] < -bound or (tail or points)[-1] > bound:
        bad = points[0] if points[0] < -bound else (tail or points)[-1]
        raise DomainError(f"grid point {bad} outside [-p[{n}], p[{n}]]")
    head = points  # the longest arithmetic prefix, as a range
    if not isinstance(points, range):
        head = range(points[0], points[-1] + 1, points[1] - points[0] if len(points) > 1 else 1)
        head = head[:next(compress(count(), map(ne, points, head)), len(head))]
    for part in (head, [*points[len(head):], *tail]):
        defect, at = _max_defect(
            partial(eval_block, ladder), part, (-left, left - 1), first=True
        )
        if defect:
            break
    return ReturnReport(
        n=n,
        left_shift=left,
        right_shift=left - 1,
        checked=len(points) + len(tail),
        all_equal=defect == 0,
        first_mismatch=part[at] if defect else None,
    )


def check_wm_returns(
    ladder: Ladder, n: int, eps: Rational | None = None
) -> WMReport:
    """Certify that N = 2*splice(n+1) - 1 and N + 1 both return the start
    cylinder: the N-shifted sequence repeats coordinates 0..p[n] exactly,
    and the backward extension by N + 1 shifts onto the sequence exactly.
    """
    big_n = 2 * ladder.splice(n + 1) - 1
    p_n = ladder.p(n)
    if eps is not None:
        eps = exact_fraction(eps)
        if eps <= 0:
            raise ValueError("tolerance must be positive")
    agree = range(p_n + 1)
    forward, backward = (
        _max_defect(partial(eval_block, ladder), agree, (s,), first=True)[0] == 0
        for s in (big_n, -big_n - 1)
    )
    # 2**p_n is built only once the scans fit the limit
    dist_hi = Fraction(1, 2**p_n)  # zero partial sum plus tail bound 2^(1-(p_n+1))
    if eps is None:
        eps = 4 * dist_hi  # twice the unavoidable bracket width
    return WMReport(
        n=n,
        N=big_n,
        agree_len=p_n + 1,
        forward_exact=forward,
        backward_exact=backward,
        dist_hi=dist_hi,
        eps=eps,
        passed=forward and backward and dist_hi < eps,
    )


# -- ones runs -------------------------------------------------------------

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
                    if eval_ainf(ladder, probe) != ONE:
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
        runs = _scanned_runs(ladder, scan_points(range(window_end + 1)), required)
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
