"""Test inputs that the package itself does not need.

Two points of the full shift on the symbols 0 and 1, which exercise the
relation searches on an orbit other than alpha, and the level-n profile
read straight from the package's evaluator kernel.  Kept apart from
`oracles.py`, which shares no code with the package.
"""
from fractions import Fraction

from wkseq import SeqWindow
from wkseq.ladder import Ladder, Rational, eval_ratio


def full_shift_transitive_point(length: int) -> SeqWindow:
    """Prefix of the concatenation of all binary words in length-lex order.

    Every finite binary word occurs in the full sequence, so this is the
    standard transitive point of the full shift on two symbols.
    """
    if length < 1:
        raise ValueError("window length must be at least 1")
    out: list[Fraction] = []
    width = 1
    zero, one = Fraction(0), Fraction(1)
    while len(out) < length:
        for v in range(1 << width):
            for j in range(width - 1, -1, -1):
                out.append(one if (v >> j) & 1 else zero)
            if len(out) >= length:
                break
        width += 1
    return SeqWindow(0, tuple(out[:length]))


def full_shift_rigidity_witness(n: int, length: int) -> SeqWindow:
    """Prefix of the 2n-periodic point: n zeros then n ones, repeated."""
    if n < 1:
        raise ValueError("block length must be at least 1")
    if length < 2 * n:
        raise ValueError("window must cover at least one full period")
    zero, one = Fraction(0), Fraction(1)
    vals = tuple(one if (i // n) % 2 else zero for i in range(length))
    return SeqWindow(0, vals)


def profile(ladder: Ladder, n: int, t: Rational) -> Fraction:
    """The level-n profile at t, taken as zero outside [-p[n], p[n]], as
    the base profile (level 0) is beyond [-3, 3]."""
    t = Fraction(t)
    if abs(t) > ladder.p(n):
        return Fraction(0)
    return Fraction(*eval_ratio(ladder.sizes, n, t.numerator, t.denominator))
