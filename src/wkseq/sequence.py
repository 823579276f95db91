"""Windows of alpha: the exact, one-sided sequence views every layer reads.

A `SeqWindow` is a finite, exactly-valued view of a one-sided sequence of
rationals in [0, 1]; `alpha_window` reads a range of alpha into one through
`alpha_block`, the ladder's block reader on nonnegative coordinates, and
`alpha_windows` streams a long range as consecutive windows.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from . import walker
from .ladder import DomainError, Ladder, Rational, eval_ainf


class SeqWindow:
    """Contiguous slice values[i] = x(offset + i) of a one-sided sequence.

    Immutable, equal by value, and as long as its values.  It also keeps
    its distinct value objects once each, in the order of their first
    appearance, for `seqio.window_chunks` to format once each.
    """

    __slots__ = ("offset", "values", "_distinct")

    def __init__(self, offset: int, values: tuple[Fraction, ...]):
        # once per object: alpha_block shares one object per value
        self._fill(offset, values, dict(zip(map(id, values), values)).values())

    @classmethod
    def _from_distinct(
        cls, offset: int, values: tuple[Fraction, ...], distinct: Iterable[Fraction]
    ) -> SeqWindow:
        """The window of `values`, each one of the objects `distinct`, which
        come in the order of their first appearance in values: a reader's
        memo of the values it parsed, so each is checked once."""
        window = cls.__new__(cls)
        window._fill(offset, values, distinct)
        return window

    def _fill(self, offset: int, values: tuple[Fraction, ...], distinct: Iterable[Fraction]) -> None:
        if offset < 0:
            raise ValueError("window offset must be nonnegative")
        if not values:
            raise ValueError("window must hold at least one value")
        distinct = tuple(distinct)
        for v in distinct:
            if not 0 <= v.numerator <= v.denominator:
                raise ValueError(f"window value {v} outside [0, 1]")
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_distinct", distinct)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.offset, self.values) == (other.offset, other.values)

    def __hash__(self) -> int:
        return hash((self.offset, self.values))

    def __repr__(self) -> str:
        return f"SeqWindow(offset={self.offset!r}, values={self.values!r})"


def alpha(ladder: Ladder, i: int) -> Fraction:
    """Integer-coordinate sample of the limit profile; defined for i >= 0."""
    if not isinstance(i, int) or i < 0:
        raise DomainError("sequence coordinates are nonnegative integers")
    return eval_ainf(ladder, i)


def alpha_window(ladder: Ladder, start: int, length: int) -> SeqWindow:
    return SeqWindow(start, tuple(alpha_block(ladder, start, length)))


def alpha_windows(ladder: Ladder, start: int, length: int) -> Iterator[SeqWindow]:
    """The window of alpha at start .. start + length - 1 as consecutive
    windows of at most `walker.STREAM_BLOCK` values."""
    for i in range(start, start + length, walker.STREAM_BLOCK):
        yield alpha_window(ladder, i, min(walker.STREAM_BLOCK, start + length - i))


def alpha_block(ladder: Ladder, start: int, length: int) -> list[Fraction]:
    """alpha(start) .. alpha(start + length - 1); none for length < 1.

    This is `walker.eval_block` on nonnegative coordinates: each coordinate
    is read at the least level whose domain covers it, as in `alpha`, at a
    cost that grows with the levels and pieces the range meets.
    """
    if not isinstance(start, int) or start < 0:
        raise DomainError("sequence coordinates are nonnegative integers")
    return walker.eval_block(ladder, range(start, start + length))
