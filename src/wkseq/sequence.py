"""Windows of alpha: the exact, one-sided sequence views every layer reads.

A `SeqWindow` is a finite, exactly-valued view of a one-sided sequence of
rationals in [0, 1]; `alpha_window` reads a range of alpha into one through
`walker.eval_block`, and `alpha_windows` streams a long range as
consecutive windows.  Only those two import the walker, so a search on a
window file never compiles it.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from typing import Iterable, Iterator, MutableSequence, Sequence

from .ladder import DomainError, Ladder, eval_ainf


def code_array(distinct: int, codes: list[int]) -> MutableSequence[int]:
    """`codes` in a mutable array of 1 byte each up to 256 `distinct` codes, else 2 or 4."""
    if distinct <= 1 << 8:
        return bytearray(codes)
    from array import array  # loaded only for a window of more than 256 distinct values

    wide = array("H" if distinct <= 1 << 16 else "I")
    wide.fromlist(codes)
    return wide


class SeqWindow:
    """Contiguous slice values[i] = x(offset + i) of a one-sided sequence.

    Immutable, equal by value, and as long as its values.  `_codes` holds
    each value as its index in `_distinct`, the distinct values in the order
    of their first appearance, in a `code_array`; the constructor codes objects.
    """

    __slots__ = ("offset", "_codes", "_distinct")

    def __init__(self, offset: int, values: Sequence[Fraction]):
        # one code per object, the next free one at its first row: eval_block
        # shares one object per value
        codes: dict[int, int] = {}
        rows = [*map(codes.setdefault, map(id, values), map(len, repeat(codes)))]
        self._fill(offset, code_array(len(codes), rows), dict(zip(rows, values)).values())

    @classmethod
    def _from_codes(cls, offset: int, codes: MutableSequence[int], distinct: Iterable[Fraction]) -> SeqWindow:
        """The window whose value i is distinct[codes[i]], from a reader."""
        window = cls.__new__(cls)
        window._fill(offset, codes, distinct)
        return window

    def _fill(self, offset: int, codes: MutableSequence[int], distinct: Iterable[Fraction]) -> None:
        if offset < 0:
            raise ValueError("window offset must be nonnegative")
        if not codes:
            raise ValueError("window must hold at least one value")
        distinct = tuple(distinct)
        for v in distinct:
            if not 0 <= v.numerator <= v.denominator:
                raise ValueError(f"window value {v} outside [0, 1]")
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "_codes", codes)
        object.__setattr__(self, "_distinct", distinct)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The values, built from the codes; no package code reads them."""
        return tuple(map(self._distinct.__getitem__, self._codes))

    def __len__(self) -> int:
        return len(self._codes)

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
    """alpha(start) .. alpha(start + length - 1), read by alpha's structure."""
    if not isinstance(start, int) or start < 0:
        raise DomainError("sequence coordinates are nonnegative integers")
    from .walker import eval_block

    return SeqWindow(start, eval_block(ladder, range(start, start + length)))


def alpha_windows(ladder: Ladder, start: int, length: int) -> Iterator[SeqWindow]:
    """The window of alpha at start .. start + length - 1 as consecutive
    windows of at most `ladder.STREAM_BLOCK` values."""
    from .ladder import STREAM_BLOCK

    for i in range(start, start + length, STREAM_BLOCK):
        yield alpha_window(ladder, i, min(STREAM_BLOCK, start + length - i))
