"""Finite-evidence verdicts for orbit-pair relations.

A pair of orbit views can be certified proximal (some time brings them
within tau), delta-separated (some time pushes them at least delta - tau
apart), or jointly recurrent (some time nearly returns both to their
starts).  Every verdict is backed by an explicit witness time and an exact
distance bracket; anything not witnessed within the search horizon is
labeled inconclusive rather than refuted.

Searches scan a closed time range in one pass, and ties always prefer the
smallest time.  Each search reads the orbit values it needs once and hands
them to `sequence.bracket_scan`, the one place a bracket sum is computed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from .ladder import Ladder, Rational, eval_ainf
from .seqio import report_dict
from .sequence import DistBracket, SeqWindow, bracket_scan

PROXIMAL_WITNESSED = "proximal-witnessed"
DELTA_SEPARATED_WITNESSED = "delta-separated-witnessed"
PAIR_RECURRENT_WITNESSED = "pair-recurrent-witnessed"
INCONCLUSIVE = "inconclusive"


class NotFoundInHorizonError(Exception):
    """The requested pattern does not occur within the search horizon."""


class OrbitSource:
    """Lazy coordinate access to a one-sided orbit point.

    length is None for sources that can produce arbitrarily many
    coordinates.  The `read` callback returns coordinates start .. stop-1;
    `read` checks them against the bounds before calling it.
    """

    def __init__(
        self,
        read: Callable[[int, int], Sequence[Fraction]],
        length: int | None = None,
    ):
        self.length = length
        self._read = read

    def read(self, start: int, stop: int) -> Sequence[Fraction]:
        """Coordinates start .. stop-1."""
        if start < 0:
            raise IndexError("orbit coordinates are nonnegative")
        if self.length is not None and stop > self.length:
            raise IndexError(
                f"coordinate {stop - 1} beyond orbit data of length {self.length}"
            )
        return self._read(start, stop)

    def value(self, i: int) -> Fraction:
        return self.read(i, i + 1)[0]


def alpha_source(ladder: Ladder) -> OrbitSource:
    return OrbitSource(lambda a, b: [eval_ainf(ladder, i) for i in range(a, b)])


def window_source(window: SeqWindow) -> OrbitSource:
    values = window.values
    return OrbitSource(lambda a, b: values[a:b], length=len(values))


def constant_source(value: Rational) -> OrbitSource:
    v = Fraction(value)
    return OrbitSource(lambda a, b: [v] * (b - a))


def ones_source() -> OrbitSource:
    """The all-ones fixed point, the distinguished target for proximality."""
    return constant_source(1)


def zeros_source() -> OrbitSource:
    return constant_source(0)


@dataclass(frozen=True)
class OrbitView:
    """An orbit source read from a fixed shift onward."""

    source: OrbitSource
    shift: int = 0

    def __post_init__(self):
        if self.shift < 0:
            raise ValueError("view shift must be nonnegative")

    def value(self, i: int) -> Fraction:
        return self.source.value(self.shift + i)

    def read(self, start: int, stop: int) -> Sequence[Fraction]:
        """Values at times start .. stop-1."""
        return self.source.read(self.shift + start, self.shift + stop)

    def max_time(self, k: int) -> int | None:
        """Largest time t for which coordinates t..t+k-1 are available."""
        if self.source.length is None:
            return None
        return self.source.length - self.shift - k


def _check_span(views: Sequence[OrbitView], start: int, horizon: int, k: int) -> None:
    if k < 1:
        raise ValueError("prefix length must be at least 1")
    if start < 0 or horizon < start:
        raise ValueError("need 0 <= start <= horizon")
    for view in views:
        limit = view.max_time(k)
        if limit is not None and horizon > limit:
            raise ValueError(
                f"horizon {horizon} exceeds available data (max {limit})"
            )


def _search(
    sides: Sequence[tuple[Sequence[Fraction], Sequence[Fraction]]],
    start: int,
    horizon: int,
    k: int,
    sliding: bool,
    want_max: bool = False,
) -> tuple[int, DistBracket]:
    """`bracket_scan` over the times start .. horizon, whose values the
    sides hold from time `start` on."""
    t, bracket = bracket_scan(sides, horizon - start + 1, k, sliding, want_max)
    return start + t, bracket


def prox_defect(
    a: OrbitView,
    b: OrbitView,
    start: int,
    horizon: int,
    k: int,
) -> tuple[int, DistBracket]:
    """Time in [start, horizon] with the smallest distance bracket between
    the two t-shifted views, compared at prefix length k."""
    _check_span([a, b], start, horizon, k)
    reads = a.read(start, horizon + k), b.read(start, horizon + k)
    return _search([reads], start, horizon, k, True)


def sep_sup(
    a: OrbitView,
    b: OrbitView,
    start: int,
    horizon: int,
    k: int,
) -> tuple[int, DistBracket]:
    """Time in [start, horizon] with the largest certified separation."""
    _check_span([a, b], start, horizon, k)
    reads = a.read(start, horizon + k), b.read(start, horizon + k)
    return _search([reads], start, horizon, k, True, want_max=True)


def pair_recur_defect(
    a: OrbitView,
    b: OrbitView,
    start: int,
    horizon: int,
    k: int,
) -> tuple[int, DistBracket]:
    """Time whose shift nearly returns both views to their own start.

    Minimizes the worse of the two self-return brackets; the reported
    bracket is that worse one.  Time 0, the identity shift, proves nothing,
    so the search must start at time 1 or later.
    """
    if start < 1:
        raise ValueError("recurrence searches start at time 1 or later")
    _check_span([a, b], start, horizon, k)
    sides = [(v.read(start, horizon + k), v.read(0, k)) for v in (a, b)]
    return _search(sides, start, horizon, k, False)


class Witness(NamedTuple):
    """A witness time and the exact bracket value its label rests on."""

    time: int
    value: Fraction


@dataclass(frozen=True)
class PairVerdict:
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
        return report_dict(kind="pair-verdict", **vars(self))


def _labels(*clauses: tuple[str, bool]) -> tuple[str, ...]:
    out = [name for name, hit in clauses if hit]
    if any(not hit for _, hit in clauses):
        out.append(INCONCLUSIVE)
    return tuple(out)


def classify_pair(
    a: OrbitView,
    b: OrbitView,
    delta: Rational,
    start: int,
    horizon: int,
    k: int,
    tau: Rational,
) -> PairVerdict:
    """Run the three witness searches on one pair and label the outcome.

    Recurrence is searched from time max(start, 1); when that leaves no
    time in the horizon, its clause is inconclusive.
    """
    delta, tau = Fraction(delta), Fraction(tau)
    if delta <= 0 or tau <= 0:
        raise ValueError("delta and tau must be positive")
    _check_span([a, b], start, horizon, k)
    reads = a.read(start, horizon + k), b.read(start, horizon + k)
    pt, pbr = _search([reads], start, horizon, k, True)
    st, sbr = _search([reads], start, horizon, k, True, want_max=True)
    prox_hit = pbr.hi < tau
    sep_hit = sbr.lo >= delta - tau
    first = max(start, 1)
    recur_hit = False
    if first <= horizon:
        sides = [
            (read[first - start:], view.read(0, k))
            for view, read in zip((a, b), reads)
        ]
        rt, rbr = _search(sides, first, horizon, k, False)
        recur_hit = rbr.hi < tau
    return PairVerdict(
        labels=_labels(
            (PROXIMAL_WITNESSED, prox_hit),
            (DELTA_SEPARATED_WITNESSED, sep_hit),
            (PAIR_RECURRENT_WITNESSED, recur_hit),
        ),
        delta=delta,
        horizon=(start, horizon),
        prefix_len=k,
        tau=tau,
        prox_witness=Witness(pt, pbr.hi) if prox_hit else None,
        sep_witness=Witness(st, sbr.lo) if sep_hit else None,
        recur_witness=Witness(rt, rbr.hi) if recur_hit else None,
    )


def thmB_witnesses(
    x: OrbitSource,
    fixed_point: OrbitSource,
    pairs: Iterable[tuple[int, int]],
    horizon: int,
    k: int,
    tau: Rational,
) -> list[PairVerdict]:
    """For each pair of distinct shifts of one orbit, search for a time that
    carries both shifted views close to the fixed point (the proximality
    mechanism) and for a joint near-return (the recurrence half)."""
    tau = Fraction(tau)
    if tau <= 0:
        raise ValueError("tau must be positive")
    pairs = list(pairs)
    if not pairs:
        return []
    if fixed_point.length is not None and fixed_point.length < k:
        raise ValueError(
            f"fixed point has {fixed_point.length} values, fewer than k = {k}"
        )
    for m, n in pairs:
        if m == n:
            raise ValueError("pairs must use two distinct shifts")
        if m < 0 or n < 0:
            raise ValueError("shifts must be nonnegative")
        # the recurrence half searches from time 1
        _check_span([OrbitView(x, max(m, n))], 1, horizon, k)
    top = max(max(pair) for pair in pairs)
    xs = x.read(0, top + horizon + k)
    target = fixed_point.read(0, k)
    verdicts = []
    for m, n in pairs:
        pt, pbr = _search([(xs[m:], target), (xs[n:], target)], 0, horizon, k, False)
        rt, rbr = _search(
            [(xs[m + 1:], xs[m:m + k]), (xs[n + 1:], xs[n:n + k])], 1, horizon, k, False
        )
        prox_hit = pbr.hi < tau
        recur_hit = rbr.hi < tau
        verdicts.append(
            PairVerdict(
                labels=_labels(
                    (PROXIMAL_WITNESSED, prox_hit),
                    (PAIR_RECURRENT_WITNESSED, recur_hit),
                ),
                delta=None,
                horizon=(0, horizon),
                prefix_len=k,
                tau=tau,
                prox_witness=Witness(pt, pbr.hi) if prox_hit else None,
                sep_witness=None,
                recur_witness=Witness(rt, rbr.hi) if recur_hit else None,
                pair=(m, n),
            )
        )
    return verdicts


def thmC_witnesses(
    x: OrbitSource,
    q: int,
    delta: Rational,
    horizon: int,
    k: int,
    tau: Rational,
) -> PairVerdict:
    """Separate the orbit from its q-shift through an occurrence of the
    alternating-blocks pattern (q zeros, q ones, repeating), then search
    for proximity of the same pair.

    The occurrence must fit inside the horizon: coordinates t .. t+q+k-1
    all lie in [0, horizon].  Raises NotFoundInHorizonError when no such
    occurrence exists.
    """
    delta, tau = Fraction(delta), Fraction(tau)
    if q < 1:
        raise ValueError("block length must be at least 1")
    if k < 1:
        raise ValueError("prefix length must be at least 1")
    if delta <= 0 or tau <= 0:
        raise ValueError("delta and tau must be positive")
    need = q + k
    top = horizon - need + 1
    if x.length is not None:
        top = min(top, x.length - need)
    found = None
    if top >= 0:
        xs = x.read(0, top + need)
        pattern = [(i // q) % 2 for i in range(need)]
        # the first exact occurrence is the first time whose bracket sum is 0
        t, match = _search([(xs, pattern)], 0, top, need, False)
        if match.lo == 0:
            found = t
    if found is None:
        raise NotFoundInHorizonError(
            f"no block-alternating occurrence of length {need} within horizon {horizon}"
        )
    sep_lo = bracket_scan([(xs[found:found + k], xs[found + q:found + q + k])], 1, k, True)[1].lo
    # the shifted pair reads coordinates up to top + q + k - 1, as the pattern did
    pt, pbr = _search([(xs, xs[q:])], 0, top, k, True)
    sep_hit = sep_lo >= delta - tau
    prox_hit = pbr.hi < tau
    return PairVerdict(
        labels=_labels(
            (PROXIMAL_WITNESSED, prox_hit),
            (DELTA_SEPARATED_WITNESSED, sep_hit),
        ),
        delta=delta,
        horizon=(0, horizon),
        prefix_len=k,
        tau=tau,
        prox_witness=Witness(pt, pbr.hi) if prox_hit else None,
        sep_witness=Witness(found, sep_lo) if sep_hit else None,
        recur_witness=None,
        pair=(0, q),
    )
