"""Finite-evidence verdicts for orbit-pair relations.

A pair of orbit views can be certified proximal (some time brings them
within tau), delta-separated (some time pushes them at least delta - tau
apart), or jointly recurrent (some time nearly returns both to their
starts).  Every verdict is backed by an explicit witness time and an exact
distance bracket; anything not witnessed within the search horizon is
labeled inconclusive rather than refuted.

All searches of one call share one block loop, `_scan`.  It walks the time
range in blocks of `ladder.STREAM_BLOCK` times, reads each view once per
block, as integers over the denominator the read states, and hands that
read to each search's kernel: `brackets.bracket_scan`, the one place a
bracket sum is computed, or `thmc.occurrence_scan` for thmC's pattern.  So
a search holds at most one block of each orbit at any horizon, and ties
prefer the smallest time.  Where every orbit a search reads repeats (see
`orbits`), it scans one period of the stretch and jumps past it.

classify's searches are here.  thmB's and thmC's are in `wkseq.thmb` and
`wkseq.thmc`, behind the front doors `thmB_witnesses` and `thmC_witnesses`,
which import them when called, so no other search compiles them.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Sequence

from .brackets import DistBracket, bracket_scan
# eval_ainf and the sources stay bound here: the CLI calls the sources, and
# bench/tracing.py counts and times them all, through this module.
from .ladder import Rational, eval_ainf, exact_fraction
from .orbits import (OrbitSource, OrbitView, alpha_source, jump_over, ones_source,
                     window_source, zeros_source)
from .report import report_dict

PROXIMAL_WITNESSED = "proximal-witnessed"
DELTA_SEPARATED_WITNESSED = "delta-separated-witnessed"
PAIR_RECURRENT_WITNESSED = "pair-recurrent-witnessed"
INCONCLUSIVE = "inconclusive"
#: The kinds of `bracket_scan` the searches use.
_PROX, _SEP, _FIXED = (partial(bracket_scan, sliding=s, want_max=m)
                       for s, m in ((True, False), (True, True), (False, False)))


class NotFoundInHorizonError(Exception):
    """The requested pattern does not occur within the search horizon."""


def _check_span(views: Sequence[OrbitView], start: int, horizon: int, k: int) -> None:
    if k < 1:
        raise ValueError("prefix length must be at least 1")
    if start < 0 or horizon < start:
        raise ValueError("need 0 <= start <= horizon")
    for view in views:
        limit = view.max_time(k)
        if limit is not None and horizon > limit:
            raise ValueError(f"horizon {horizon} exceeds available data (max {limit})")


class _Search(NamedTuple):
    """One search of a `_scan`: its first time, its window length, its
    kernel, `occurrence_scan` or a kind of `bracket_scan`, and its sides,
    the function that gives the (x, y) pairs the kernel compares from one
    block's reads, each (values, den), with its own first time at index 0."""

    first: int
    k: int
    scan: Callable
    sides: Callable


def _scan(
    views: Sequence[OrbitView],
    width: int,
    start: int,
    horizon: int,
    searches: Sequence[_Search],
) -> list[tuple[int, DistBracket] | None]:
    """The first best (time, bracket) of each search over its times first
    .. horizon, or None where it covers no time.

    The times start .. horizon are walked in blocks of
    `ladder.STREAM_BLOCK`.  Each view is read once per block, with the
    `width` values each time needs from its own coordinate on, and every
    search that covers the block scans that read for a bracket strictly
    better than its best so far.  A search that has met its bound (lo 0, or
    hi 2 for `_SEP`) scans no further, and the walk ends once all have.

    From the first time every open search covers, the largest first, the
    walk asks `orbits.jump_over` where to skip, and asks again where it
    says; blocks end at those times.  Where every view repeats, the walk
    scans one common period of the stretch, then jumps to the first time
    whose windows leave it.  Every open search has scanned that period, so
    the sums skipped repeat ones already scanned, and none can be strictly
    better.
    """
    from .ladder import STREAM_BLOCK  # read when the search runs

    best: list[tuple[int, DistBracket] | None] = [None] * len(searches)
    done = [s.first > horizon for s in searches]
    t0 = start
    ready = leave = max((s.first for s, d in zip(searches, done) if not d), default=start)
    while t0 <= horizon and not all(done):
        if t0 == leave:
            ready, leave = jump_over(views, width, t0, horizon)
        t1 = min(horizon + 1, t0 + STREAM_BLOCK, ready)
        reads = [view.read(t0, t1 + width - 1) for view in views]
        for i, s in enumerate(searches):
            if done[i] or s.first >= t1:
                continue
            skip = max(0, s.first - t0)
            sides = s.sides([(vs[skip:], d) for vs, d in reads] if skip else reads)
            if found := s.scan(sides, t1 - t0 - skip, s.k, best=best[i] and best[i][1].lo):
                best[i] = t0 + skip + found[0], found[1]
                done[i] = found[1].hi == 2 if s.scan is _SEP else found[1].lo == 0
        t0 = leave if t1 == ready else t1
    return best


def _pair_scan(
    a: OrbitView, b: OrbitView, start: int, horizon: int, k: int, pick: Sequence[int] = (0, 1, 2)
) -> list[tuple[int, DistBracket] | None]:
    """The picked searches of one pair, in one `_scan`: 0 is proximity, 1
    separation, and 2 recurrence from time max(start, 1)."""
    _check_span([a, b], start, horizon, k)
    homes = a.read(0, k), b.read(0, k)
    searches = [
        _Search(start, k, _PROX, lambda reads: [tuple(reads)]),
        _Search(start, k, _SEP, lambda reads: [tuple(reads)]),
        _Search(max(start, 1), k, _FIXED, lambda reads: list(zip(reads, homes))),
    ]
    return _scan([a, b], k, start, horizon, [searches[i] for i in pick])


def prox_defect(
    a: OrbitView, b: OrbitView, start: int, horizon: int, k: int
) -> tuple[int, DistBracket]:
    """Time in [start, horizon] with the smallest distance bracket between
    the two t-shifted views, compared at prefix length k."""
    return _pair_scan(a, b, start, horizon, k, [0])[0]


def sep_sup(
    a: OrbitView, b: OrbitView, start: int, horizon: int, k: int
) -> tuple[int, DistBracket]:
    """Time in [start, horizon] with the largest certified separation."""
    return _pair_scan(a, b, start, horizon, k, [1])[0]


def pair_recur_defect(
    a: OrbitView, b: OrbitView, start: int, horizon: int, k: int
) -> tuple[int, DistBracket]:
    """Time whose shift nearly returns both views to their own start.

    Minimizes the worse of the two self-return brackets; the reported
    bracket is that worse one.  Time 0, the identity shift, proves nothing,
    so the search must start at time 1 or later.
    """
    if start < 1:
        raise ValueError("recurrence searches start at time 1 or later")
    return _pair_scan(a, b, start, horizon, k, [2])[0]


class Witness(NamedTuple):
    """A witness time and the exact bracket value its label rests on."""

    time: int
    value: Fraction


class PairVerdict(NamedTuple):
    """Outcome of the witness searches for one pair of orbit views.

    Witness fields are populated only when the corresponding threshold was
    met; each holds the witness time and the exact bracket value the label
    rests on (upper bound for proximity and recurrence, lower bound for
    separation).  A clause searched without success contributes the
    "inconclusive" label instead of a refutation.
    """

    labels: tuple[str, ...]
    delta: Fraction | None
    horizon: tuple[int, int]
    prefix_len: int
    tau: Fraction
    prox_witness: Witness | None
    sep_witness: Witness | None
    recur_witness: Witness | None
    pair: tuple[int, int] | None = None

    def to_json_dict(self) -> dict:
        return report_dict(kind="pair-verdict", **self._asdict())


def _verdict(
    delta: Fraction | None, tau: Fraction, span: tuple[int, int], k: int, pair=None, **found
) -> PairVerdict:
    """Label the clauses searched for one pair.

    `found` maps each searched clause (prox, sep, recur) to its best
    (time, bracket), or to None when its search covered no time.  Proximity
    and recurrence are witnessed when the bracket's upper bound is below
    tau, separation when its lower bound reaches delta - tau; any clause
    left unwitnessed adds the "inconclusive" label.
    """
    labels, witnesses = [], {}
    for name, label in (("prox", PROXIMAL_WITNESSED), ("sep", DELTA_SEPARATED_WITNESSED),
                        ("recur", PAIR_RECURRENT_WITNESSED)):
        if found.get(name) is not None:
            t, br = found[name]
            value = br.lo if name == "sep" else br.hi
            if (value >= delta - tau) if name == "sep" else (value < tau):
                labels.append(label)
                witnesses[name] = Witness(t, value)
    if len(labels) < len(found):
        labels.append(INCONCLUSIVE)
    return PairVerdict(tuple(labels), delta, span, k, tau, witnesses.get("prox"),
                       witnesses.get("sep"), witnesses.get("recur"), pair)


def classify_pair(
    a: OrbitView, b: OrbitView, delta: Rational, start: int, horizon: int, k: int, tau: Rational
) -> PairVerdict:
    """Run the three witness searches on one pair and label the outcome.

    Recurrence is searched from time max(start, 1); when that leaves no
    time in the horizon, its clause is inconclusive.
    """
    delta, tau = exact_fraction(delta), exact_fraction(tau)
    if delta <= 0 or tau <= 0:
        raise ValueError("delta and tau must be positive")
    prox, sep, recur = _pair_scan(a, b, start, horizon, k)
    return _verdict(delta, tau, (start, horizon), k, prox=prox, sep=sep, recur=recur)


def thmB_witnesses(x, fixed_point, pairs, horizon, k, tau) -> list[PairVerdict]:
    """`thmb.thmB_witnesses(x, fixed_point, pairs, horizon, k, tau)`: each
    pair of shifts of x carried near the fixed point, and back near home."""
    from .thmb import thmB_witnesses  # only thmB compiles its search

    return thmB_witnesses(x, fixed_point, pairs, horizon, k, tau)


def thmC_witnesses(x, q, delta, horizon, k, tau) -> PairVerdict:
    """`thmc.thmC_witnesses(x, q, delta, horizon, k, tau)`: x against its
    q-shift, separated through the alternating-blocks pattern."""
    from .thmc import thmC_witnesses  # only thmC compiles its pattern search

    return thmC_witnesses(x, q, delta, horizon, k, tau)
