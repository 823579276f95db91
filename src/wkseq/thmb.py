"""thmB's search, in `relations._scan` with fixed-target `bracket_scan`s
for both of each pair's clauses.  `relations.thmB_witnesses` imports this
module when it is called, so classify and thmC never compile it."""
from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .ladder import Rational, exact_fraction
from .orbits import OrbitSource, OrbitView
from .relations import _FIXED, PairVerdict, _check_span, _scan, _Search, _verdict


def _shifted(m: int, n: int, home_m: Sequence, home_n: Sequence) -> Callable:
    """Sides comparing the orbit from shifts m and n with fixed targets."""
    return lambda reads: [((reads[0][0][m:], reads[0][1]), home_m), ((reads[0][0][n:], reads[0][1]), home_n)]


def thmB_witnesses(
    x: OrbitSource, fixed_point: OrbitSource, pairs: Iterable[tuple[int, int]],
    horizon: int, k: int, tau: Rational,
) -> list[PairVerdict]:
    """For each pair of distinct shifts of one orbit, search for a time that
    carries both shifted views close to the fixed point (the proximality
    mechanism) and for a joint near-return (the recurrence half).

    Recurrence is searched from time 1; at horizon 0 its clause is
    inconclusive, as in `classify_pair`.
    """
    tau = exact_fraction(tau)
    if tau <= 0:
        raise ValueError("tau must be positive")
    pairs = list(pairs)
    if not pairs:
        return []
    if fixed_point.length is not None and fixed_point.length < k:
        raise ValueError(f"fixed point has {fixed_point.length} values, fewer than k = {k}")
    for m, n in pairs:
        if m == n:
            raise ValueError("pairs must use two distinct shifts")
        if m < 0 or n < 0:
            raise ValueError("shifts must be nonnegative")
        _check_span([OrbitView(x, max(m, n))], 0, horizon, k)
    top = max(max(pair) for pair in pairs)
    target = fixed_point.read(0, k)
    searches = []
    for m, n in pairs:
        searches += [
            _Search(0, k, _FIXED, _shifted(m, n, target, target)),
            _Search(1, k, _FIXED, _shifted(m, n, x.read(m, m + k), x.read(n, n + k))),
        ]
    found = _scan([OrbitView(x)], top + k, 0, horizon, searches)
    return [
        _verdict(None, tau, (0, horizon), k, pair, prox=prox, recur=recur)
        for pair, prox, recur in zip(pairs, found[::2], found[1::2])
    ]
