"""thmC's search, in `relations._scan` with `occurrence_scan` as the
pattern's kernel.  The occurrence fixes the separation bracket, so the
orbit is read once.  `relations.thmC_witnesses` imports this module when
it is called, so the other searches never compile it."""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .brackets import DistBracket, Read
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
        _Search(0, k, _PROX, lambda reads: [(reads[0], (reads[0][0][q:], reads[0][1]))]),
    ])
    if match is None:
        raise NotFoundInHorizonError(
            f"no block-alternating occurrence of length {need} within horizon {horizon}"
        )
    # at the occurrence each of the k terms differs from its q-shift by 1
    sep = match[0], DistBracket(2 - Fraction(2) ** (1 - k), Fraction(2))
    return _verdict(delta, tau, (0, horizon), k, (0, q), prox=prox, sep=sep)


def occurrence_scan(
    sides: Sequence[tuple[Read, str]], count: int, k: int, best: Fraction | None = None
) -> tuple[int, DistBracket] | None:
    """The first of the times 0 .. count-1 at which xs[j:j+k] is exactly
    the 0/1 word of the one side (xs, word), and its bracket [0, 2^(1-k)],
    which no time beats; or None where the word does not occur, whatever
    `best`.

    Each distinct value of the read (xs, den) is coded once, "0" or "1"
    where it equals 0 or den (1 where den is None), else "x", and `str.find`
    searches the code for the word in linear time."""
    ((xs, den), word), = sides
    code = dict.fromkeys(xs)
    for v in code:
        code[v] = "0" if v == 0 else "1" if v == (den or 1) else "x"
    j = "".join(map(code.__getitem__, xs)).find(word, 0, count + k - 1)
    return None if j < 0 else (j, DistBracket(Fraction(0), Fraction(2) ** (1 - k)))
