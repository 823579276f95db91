"""thmC's search, in `relations._scan` with `brackets.occurrence_scan` as
the pattern's kernel.  `relations.thmC_witnesses` imports this module when
it is called, so the other searches never compile it."""
from __future__ import annotations

from .brackets import bracket_scan, occurrence_scan
from .ladder import Rational, exact_fraction
from .orbits import OrbitSource, OrbitView
from .relations import _PROX, NotFoundInHorizonError, PairVerdict, _scan, _Search, _verdict


def thmC_witnesses(
    x: OrbitSource, q: int, delta: Rational, horizon: int, k: int, tau: Rational
) -> PairVerdict:
    """Separate the orbit from its q-shift through an occurrence of the
    alternating-blocks pattern (q zeros, q ones, repeating), then search
    for proximity of the same pair.

    The occurrence must fit inside the horizon: coordinates t .. t+q+k-1
    all lie in [0, horizon], so a finite orbit needs horizon < its length.
    Raises NotFoundInHorizonError when no such occurrence exists.
    """
    delta, tau = exact_fraction(delta), exact_fraction(tau)
    if q < 1:
        raise ValueError("block length must be at least 1")
    if k < 1:
        raise ValueError("prefix length must be at least 1")
    if delta <= 0 or tau <= 0:
        raise ValueError("delta and tau must be positive")
    if x.length is not None and horizon >= x.length:
        raise ValueError(f"horizon {horizon} exceeds available data (max {x.length - 1})")
    need = q + k
    top = horizon - need + 1
    word = "".join(str(i // q % 2) for i in range(need))
    # the shifted pair reads coordinates up to top + q + k - 1, as the word does
    match, prox = _scan([OrbitView(x)], need, 0, top, [
        _Search(0, need, occurrence_scan, lambda reads: [(reads[0], word)]),
        _Search(0, k, _PROX, lambda reads: [(reads[0], reads[0][q:])]),
    ])
    if match is None:
        raise NotFoundInHorizonError(
            f"no block-alternating occurrence of length {need} within horizon {horizon}"
        )
    found = match[0]
    xs = x.read(found, found + need)
    sep = found, bracket_scan([(xs, xs[q:])], 1, k, True)[1]
    return _verdict(delta, tau, (0, horizon), k, (0, q), prox=prox, sep=sep)
