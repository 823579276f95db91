"""Finite certificates for the limit sequence's structural properties.

Each checker evaluates one finite, exactly decidable statement and returns
a report carrying the exact extremal values it saw, the bound it compared
them against, and a pass verdict.  Reports serialize to versioned JSON
with every rational rendered as an exact num/den string.

Every comparison of a profile with its own shift runs through one kernel,
`_max_defect`, and every coordinate scan is refused up front when it would
visit more than SCAN_LIMIT points.

Two execution strategies appear for the ones-run certificate: small levels
scan every coordinate; large levels certify runs through exact interval
arithmetic on the plateau preimages of the stretched base profile, whose
plateaus are what plant those runs in the first place.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, groupby
from operator import is_
from typing import Callable, Iterable, Sequence

from . import sequence
from .ladder import (
    ONE,
    ZERO,
    DomainError,
    Ladder,
    Rational,
    eval_ainf,
    eval_b,
    eval_block,
)
from .seqio import report_dict
from .sequence import alpha_windows

#: Every coordinate scan visits at most this many points; a larger scan is
#: refused before it evaluates anything.  A contiguous scan of alpha reads
#: it a block at a time by its structure, at about 0.25 us per point
#: (`rigidity --n 2` over all of them: 0.5 s on a 2-CPU host).  A sampled
#: `returns` grid or a rational `shift-defect` grid costs one `eval_ratio`
#: call per point and shift, 2-4 us each, so the costliest of those (about
#: 2 * 10^6 points at two or three evaluations each) takes 13-14 s.
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
    points, and is handed at most `sequence.STREAM_BLOCK` of them at a time.
    With `first`, the scan stops at the first nonzero defect, taking points
    in order and each point's shifts in order."""
    worst, worst_i = ZERO, 0
    points = scan_points(points)
    for b0 in range(0, len(points), sequence.STREAM_BLOCK):
        block = points[b0:b0 + sequence.STREAM_BLOCK]
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


class _Report:
    """One wk-report/1 encoding for every certificate: each field, the
    lemma's name and the verdict under "pass"."""

    def to_json_dict(self) -> dict:
        body = {k: v for k, v in vars(self).items() if k != "passed"}
        return report_dict(lemma=self.lemma, **body, **{"pass": self.passed})


@dataclass(frozen=True)
class RigidityReport(_Report):
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

    @property
    def lemma(self) -> str:
        return "shift-defect" if self.m is not None else "rigidity"


@dataclass(frozen=True)
class ReturnReport(_Report):
    """Exact equality of the sequence with both of its certified return shifts."""

    lemma = "returns"

    n: int
    left_shift: int
    right_shift: int
    checked: int
    all_equal: bool
    first_mismatch: int | None

    @property
    def passed(self) -> bool:
        return self.all_equal


@dataclass(frozen=True)
class OnesRunReport(_Report):
    """Syndetic occurrence of long all-ones blocks in an initial window."""

    lemma = "ones-runs"

    n: int
    run_length_required: int
    gap_bound: int
    window: tuple[int, int]
    passed: bool
    worst_gap: int
    first_run: tuple[int, int] | None
    runs_found: int
    mode: str


@dataclass(frozen=True)
class WMReport(_Report):
    """Certified double return: N and N+1 both send the start cylinder home."""

    lemma = "wm-returns"

    n: int
    N: int
    agree_len: int
    forward_exact: bool
    backward_exact: bool
    dist_hi: Fraction
    eps: Fraction
    passed: bool


# -- shift defect and rigidity --------------------------------------------

def check_shift_defect(
    ladder: Ladder, n: int, m: int, grid_step: Rational
) -> RigidityReport:
    """Bound |b_m(t + 2p[n]) - b_m(t)| on a grid over one full period of b_m.

    Requires the ladder to be populated to depth max(n, m) + 1.  The level-0
    bound is vacuous (no certification threshold exists there); such reports
    carry bound None and pass vacuously.
    """
    if m < n:
        raise DomainError("the periodized level may not be below the shift level")
    ladder.require(max(n, m) + 1)
    grid_step = Fraction(grid_step)
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
    bound = ladder.epsilon(n) if n >= 1 else None
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
    ladder.ensure(n)
    displacement = 2 * ladder.p(n)
    worst, worst_j = _max_defect(
        partial(eval_block, ladder), range(count), (displacement,)
    )
    bound = ladder.epsilon(n)
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

def check_returns(ladder: Ladder, n: int, grid: Iterable[int]) -> ReturnReport:
    """Check alpha(t) = ainf(t - S) = ainf(t + S - 1) with S = 2*splice(n+1).

    Grid points must be integers in [-p[n], p[n]].
    """
    points = sorted(set(int(t) for t in grid))
    if not points:
        raise ValueError("need at least one grid point")
    ladder.ensure(n + 1)
    left = 2 * ladder.splice(n + 1)
    bound = ladder.p(n)
    if points[0] < -bound or points[-1] > bound:
        bad = points[0] if points[0] < -bound else points[-1]
        raise DomainError(f"grid point {bad} outside [-p[{n}], p[{n}]]")
    if points[-1] - points[0] + 1 == len(points):
        # a contiguous grid is read by its structure, not point by point
        points = range(points[0], points[-1] + 1)
    defect, at = _max_defect(
        partial(eval_block, ladder), points, (-left, left - 1), first=True
    )
    return ReturnReport(
        n=n,
        left_shift=left,
        right_shift=left - 1,
        checked=len(points),
        all_equal=defect == 0,
        first_mismatch=points[at] if defect else None,
    )


def check_wm_returns(
    ladder: Ladder, n: int, eps: Rational | None = None
) -> WMReport:
    """Certify that N = 2*splice(n+1) - 1 and N + 1 both return the start
    cylinder: the N-shifted sequence repeats coordinates 0..p[n] exactly,
    and the backward extension by N + 1 shifts onto the sequence exactly.
    """
    ladder.ensure(n + 1)
    p_n = ladder.p(n)
    big_n = 2 * ladder.splice(n + 1) - 1
    if eps is not None:
        eps = Fraction(eps)
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

def _merge_runs(runs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Union of integer intervals; adjacent intervals fuse."""
    out: list[tuple[int, int]] = []
    for u, v in sorted(runs):
        if out and u <= out[-1][1] + 1:
            prev = out[-1]
            if v > prev[1]:
                out[-1] = (prev[0], v)
        else:
            out.append((u, v))
    return out


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _plateau_runs(ladder: Ladder, level: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """Integer intervals of [lo, hi] where the level's stretched copy is 1.

    The periodized base profile is exactly 1 on [2, 4] modulo 6, so after
    stretching by q the plateaus are [(6k+2)q, (6k+4)q].
    """
    q = ladder.stretch(level)
    out = []
    k0 = _ceil_div(lo - 4 * q, 6 * q)
    k1 = (hi - 2 * q) // (6 * q)
    for k in range(k0, k1 + 1):
        u = max(lo, (6 * k + 2) * q)
        v = min(hi, (6 * k + 4) * q)
        if u <= v:
            out.append((u, v))
    return out


def _certified_runs(
    ladder: Ladder, level: int, lo: int, hi: int, prune: int
) -> list[tuple[int, int]]:
    """Certified all-ones integer intervals of the level profile on [lo, hi].

    Sound under-approximation: every returned interval really is identically
    one; intervals shorter than `prune` may be dropped.  Recursion descends
    only while the previous level can still contribute an interval of that
    size, which keeps the work proportional to the number of plateaus in
    range rather than to the length of the range.
    """
    if lo > hi:
        return []
    if level == 0:
        runs = [(u, v) for u, v in ((-3, -2), (2, 3)) if u <= hi and v >= lo]
        return [(max(u, lo), min(v, hi)) for u, v in runs]
    runs = _plateau_runs(ladder, level, lo, hi)
    if 2 * ladder.p(level - 1) + 1 >= prune:
        cut = ladder.splice(level)
        runs += _periodized_runs(ladder, level - 1, lo, min(hi, cut), prune, 0)
        runs += _periodized_runs(ladder, level - 1, max(lo, cut + 1), hi, prune, 1)
    merged = _merge_runs(runs)
    return [r for r in merged if r[1] - r[0] + 1 >= prune]


def _periodized_runs(
    ladder: Ladder, level: int, lo: int, hi: int, prune: int, shift: int
) -> list[tuple[int, int]]:
    """Certified intervals where the periodized level profile, read `shift`
    steps ahead, is identically one."""
    if lo > hi:
        return []
    p = ladder.p(level)
    period = 2 * p
    out = []
    a, b = lo + shift, hi + shift
    for k in range((a + p) // period, (b + p) // period + 1):
        seg_lo = max(a, period * k - p)
        seg_hi = min(b, period * k + p - 1)
        if seg_lo > seg_hi:
            continue
        for u, v in _certified_runs(
            ladder, level, seg_lo - period * k, seg_hi - period * k, prune
        ):
            out.append((u + period * k - shift, v + period * k - shift))
    return out


def _window_coverage(
    runs: list[tuple[int, int]], required: int, window: int, end: int
) -> bool:
    """True iff every length-`window` slice of [0, end] meets a run segment
    of at least `required` consecutive ones."""
    target = end - window + 1
    pos = 0
    for u, v in runs:
        a = max(0, u + required - window)
        b = v - required + 1
        if a > pos:
            return False
        if b >= pos:
            pos = b + 1
        if pos > target:
            return True
    return pos > target


def _worst_gap(runs: list[tuple[int, int]], required: int, end: int) -> int:
    """Largest jump between consecutive starting positions of a required-length
    all-ones block, counting the lead-in from coordinate zero; end + 1 when
    no qualifying run exists."""
    if not runs:
        return end + 1
    worst = runs[0][0]
    for (u0, v0), (u1, _) in zip(runs, runs[1:]):
        worst = max(worst, u1 - (v0 - required + 1))
    return worst


def check_ones_runs(
    ladder: Ladder, n: int, window_end: int, mode: str = "auto"
) -> OnesRunReport:
    """Certify that every length-2p[n] window of the sequence's first
    window_end + 1 coordinates contains at least p[n]/9 consecutive exact
    ones.

    Mode "scan" inspects every coordinate and is exact in both directions;
    mode "plateau" certifies runs through interval arithmetic and can only
    affirm (a False there means the certificate could not be built).  The
    default picks scan at level 1 and plateau above.
    """
    if n < 1:
        raise DomainError("run certificates start at level 1")
    ladder.ensure(n)
    window = 2 * ladder.p(n)
    required = ladder.p(n) // 9  # exact: p[n] = 9 L[n] p[n-1]
    if window_end < window:
        raise ValueError("window_end must cover at least one full window")
    if mode == "auto":
        mode = "scan" if n == 1 else "plateau"
    if mode == "scan":
        windows = alpha_windows(ladder, 0, len(scan_points(range(window_end + 1))))
        runs, i = [], 0
        # the block reader hands out the one shared ONE for every 1
        for one, run in groupby(chain.from_iterable(w.values for w in windows), partial(is_, ONE)):
            size = sum(1 for _ in run)
            if one and size >= required:
                runs.append((i, i + size - 1))
            i += size
    elif mode == "plateau":
        prune = max(1, required // 8)
        top = ladder.ensure_cover(window_end)
        candidates = _certified_runs(ladder, top, 0, window_end, prune)
        for u, v in candidates:  # spot-check the interval arithmetic
            for probe in (u, (u + v) // 2, v):
                if eval_ainf(ladder, probe) != ONE:
                    raise AssertionError(
                        f"certified interval [{u}, {v}] fails at {probe}"
                    )
        runs = [r for r in candidates if r[1] - r[0] + 1 >= required]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    passed = _window_coverage(runs, required, window, window_end)
    return OnesRunReport(
        n=n,
        run_length_required=required,
        gap_bound=window,
        window=(0, window_end),
        passed=passed,
        worst_gap=_worst_gap(runs, required, window_end),
        first_run=runs[0] if runs else None,
        runs_found=len(runs),
        mode=mode,
    )
