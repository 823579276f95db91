"""Finite certificates for the limit sequence's structural properties.

Each checker evaluates one finite, exactly decidable statement and returns
a report carrying the exact extremal values it saw, the bound it compared
them against, and a pass verdict.  Reports serialize to versioned JSON
with every rational rendered as an exact num/den string.

Every comparison of a profile with its own shift runs through one kernel,
`_max_defect`, and every coordinate scan is refused up front when it would
visit more than SCAN_LIMIT points.

The ones-run certificate scans no coordinates: it folds the runs off the
ladder's pieces.  It lives in `wkseq.runs`, which `check_ones_runs`
imports when it is called, so the other checks never compile it.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Sequence

from .ladder import (
    ZERO,
    DomainError,
    Ladder,
    Rational,
    eval_ainf,  # the runs module's spot-checks read it through this name
    eval_b,
    exact_fraction,
)
from .report import report_dict
from .walker import eval_block

#: Every coordinate scan visits at most this many points; a larger scan is
#: refused before it evaluates anything.  Every scan's points form a range,
#: and a scan of alpha reads it a block at a time by its structure:
#: contiguous at about 0.05 us per point (`rigidity --n 2` over all of them:
#: 0.1 s in process on a 2-CPU host), sampled at about 0.25 us per point
#: and shift (`returns --n 2 --samples 1000000`: 0.8 s).  The rational
#: `shift-defect` grid costs one `eval_ratio` call per point and shift, 2-4
#: us each, so at the limit it takes 13-17 s.
SCAN_LIMIT = 2_000_001


def scan_points(points: range) -> range:
    """The points of a scan, once they are known to be within SCAN_LIMIT;
    raises ValueError otherwise.  Slicing never builds a range's points."""
    if points[SCAN_LIMIT:]:
        raise ValueError(f"scan of more than {SCAN_LIMIT} points refused")
    return points


def _max_defect(
    read: Callable[[range], Sequence[Fraction]],
    points: range,
    shifts: tuple[int, ...],
    first: bool = False,
) -> tuple[Fraction, int]:
    """Largest |f(t + s) - f(t)| over t in points and s in shifts, and the
    index of the first point that reaches it.  `read` gives f at a range of
    points, and is handed at most `ladder.STREAM_BLOCK` of them at a time.
    With `first`, the scan stops at the first nonzero defect, taking points
    in order and each point's shifts in order."""
    from .ladder import STREAM_BLOCK as size  # read when the scan runs

    worst, worst_i = ZERO, 0
    points = scan_points(points)
    for b0 in range(0, len(points), size):
        block = points[b0:b0 + size]
        here = read(block)
        moved = [read(range(block.start + s, block.stop + s, block.step)) for s in shifts]
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

def check_returns(ladder: Ladder, n: int, grid: range, end: int | None = None) -> ReturnReport:
    """Check alpha(t) = ainf(t - S) = ainf(t + S - 1) with S = 2*splice(n+1).

    The grid is a range, in either direction, and `end`, if given, an
    integer past its largest point: at most SCAN_LIMIT points in all, in
    [-p[n], p[n]].  The grid's points are read in ascending order by the
    structure of alpha, then `end`.
    """
    if not isinstance(grid, range):
        raise ValueError("the grid must be a range")
    points = scan_points(grid[::-1] if grid.step < 0 else grid)
    if not points:
        raise ValueError("need at least one grid point")
    if end is not None and not (isinstance(end, int) and end > points[-1]):
        raise ValueError(f"end point {end!r} is not an integer past the grid")
    tail = range(0) if end is None else range(end, end + 1)
    scan_points(range(len(points) + len(tail)))
    left = 2 * ladder.splice(n + 1)
    bound = ladder.p(n)
    if points[0] < -bound or (tail or points)[-1] > bound:
        bad = points[0] if points[0] < -bound else (tail or points)[-1]
        raise DomainError(f"grid point {bad} outside [-p[{n}], p[{n}]]")
    for part in (points, tail):
        defect, at = _max_defect(partial(eval_block, ladder), part, (-left, left - 1), first=True)
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

def check_ones_runs(ladder: Ladder, n: int, window_end: int, mode: str = "auto"):
    """`runs.check_ones_runs`: every length-2p[n] window of the first
    window_end + 1 coordinates holds p[n]/9 consecutive exact ones, decided
    by one exact fold in every mode, which only labels the report."""
    from .runs import check_ones_runs  # only `verify ones` compiles the runs fold

    return check_ones_runs(ladder, n, window_end, mode)
